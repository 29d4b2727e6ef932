"""The benchmark tracer resolves every package name it wraps.

``perfbench/tracing.py`` looks up each ``(module, attribute)`` of its
``NAMED`` table and every entry of the traced modules' ``__all__`` by
name, so a renamed or deleted function breaks the traced benchmark run.
``perfbench`` is not a package: the module is loaded from its path.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_resolves_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.Tracer()  # raises AttributeError on a stale name

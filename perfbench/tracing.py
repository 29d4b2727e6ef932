"""Span tracer that wraps the ``sdfm`` layers from outside the package.

Each wrapped callable records a span (name, start, end, parent span,
command id) and adds its counters, such as rows or entries, to a
per-name aggregate. A span's self time is its duration minus the time its
child spans cover. Wrappers are installed wherever callers look a callable
up (``sdfm.flow.assign_batch`` and ``sdfm.cli.assign_batch`` alike), and
only for the duration of one command, so the benchmark's own output
checks are never traced.

No layer has a queue, so spans carry busy time only; there is no waiting
time to report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("numerics", "costs", "semidual", "solver", "coupling", "flow",
           "container")


def _rows(a):
    return 1 if getattr(a, "ndim", 2) == 1 else len(a)


def _file_bytes(args, kwargs, result, error):
    return {"bytes": os.path.getsize(args[0])} if os.path.exists(args[0]) else {}


def _solve_provenance(args, kwargs, result, error):
    if result is None:
        return {}
    prov = result.provenance
    return {"iterations": prov["iterations"], "final_chi2": prov["final_chi2"]}


def _sinkhorn(args, kwargs, result, error):
    if error is not None:
        return {"failures": 1}
    return {"sweeps": result[3]}


def _entries(args, kwargs, result, error):
    return {} if result is None else {"entries": result.size}


# (module, attribute, span name, counters(args, kwargs, result, error)).
# Attributes of the form "Class.method" wrap the method on the class and
# every alias of it there (``FlowModel.__call__`` is ``velocity``).
NAMED = [
    ("numerics", "Rng.generator", "numerics.rng_generator", None),
    ("numerics", "softmax_b_eps_rows", "numerics.softmax_rows",
     lambda a, k, r, e: {"entries": a[0].size}),
    ("numerics", "eps0_column_stats", "numerics.eps0_column_stats", None),
    ("costs", "cost_matrix", "costs.cost_matrix", _entries),
    ("semidual", "coupling_scores", "semidual.coupling_scores", _entries),
    ("semidual", "chi2_estimator", "semidual.chi2_estimator",
     lambda a, k, r, e: {"rows": _rows(a[1])}),
    ("semidual", "semidual_value", "semidual.semidual_value",
     lambda a, k, r, e: {"rows": _rows(a[1])}),
    ("semidual", "GaussianNoise.sample", "semidual.noise_sample",
     lambda a, k, r, e: {"rows": a[2]}),
    ("solver", "solve_sdot", "solver.solve_sdot", _solve_provenance),
    ("solver", "_chi2_check", "solver.chi2_check", None),
    ("solver", "_semidual_probe", "solver.semidual_probe", None),
    ("coupling", "assign_batch", "coupling.assign_batch",
     lambda a, k, r, e: {} if r is None else {"pairs": len(r)}),
    ("coupling", "sinkhorn_log", "coupling.sinkhorn", _sinkhorn),
    ("coupling", "hungarian", "coupling.hungarian",
     lambda a, k, r, e: {"n": len(a[0])}),
    ("coupling", "couple_independent", "coupling.couple_independent", None),
    ("flow", "fm_loss_and_grad", "flow.fm_loss_and_grad",
     lambda a, k, r, e: {"rows": len(a[1])}),
    ("flow", "train_flow", "flow.train_flow",
     lambda a, k, r, e: {"steps": a[3].steps}),
    ("flow", "FlowModel.velocity", "flow.velocity",
     lambda a, k, r, e: {"rows": _rows(a[2])}),
    ("flow", "integrate", "flow.integrate", None),
    ("flow", "guided_sample", "flow.guided_sample", None),
    ("container", "write_container", "container.write", _file_bytes),
    ("container", "read_container", "container.read", _file_bytes),
    ("container", "MetricsWriter.log", "container.metrics_log", None),
]


class Tracer:
    """Collects spans of traced commands; aggregates per span name."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id, command id)
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []  # open frames: [span id, start_ns, child_ns]
        self._command = -1
        self._targets = self._resolve()

    # -- instrumentation ---------------------------------------------------

    @staticmethod
    def _resolve():
        """(owner, function, span name, counters) of every traced callable."""
        targets = []
        seen = set()
        for mod_name, attr, span, count in NAMED:
            owner = importlib.import_module(f"sdfm.{mod_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            targets.append((owner, fn, span, count))
            seen.add(fn)
        # Every other public function of the traced modules.
        for mod_name in MODULES:
            mod = importlib.import_module(f"sdfm.{mod_name}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn not in seen:
                    targets.append((mod, fn, f"{mod_name}.{name}", None))
        return targets

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                counters = count(args, kwargs, result, error) if count else None
                tracer._exit(frame, name, counters)

        return traced

    def _install(self):
        """Patch every reference to a traced callable; returns the undo list."""
        undo = []
        packages = [m for n, m in list(sys.modules.items())
                    if n == "sdfm" or n.startswith("sdfm.")]
        for owner, fn, name, count in self._targets:
            wrapper = self._wrap(fn, name, count)
            holders = [owner] if inspect.isclass(owner) else packages
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, fn))
        return undo

    # -- spans -------------------------------------------------------------

    def _enter(self):
        frame = [len(self.spans) + len(self._stack), time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, counters):
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, child_ns = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        st = self.stats[name]
        st["calls"] += 1
        st["total_ns"] += duration
        st["self_ns"] += duration - child_ns
        for key, value in (counters or {}).items():
            if key == "final_chi2":
                st[key] = value
            else:
                st[key] += value
        self.spans.append((span_id, name, start, end,
                           None if parent is None else parent[0], self._command))

    def command(self, label, fn, *args):
        """Run ``fn(*args)`` as the traced command ``cli.<label>``."""
        self._command += 1
        undo = self._install()
        frame = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, f"cli.{label}", None)
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, cli_labels, rss_hwm_mb):
        """Per-layer metrics named in ``BENCHMARK.json`` (zeros if unused).

        ``rss_hwm_mb`` maps a command label to the process's RSS high-water
        mark after that command.
        """
        s = self.stats

        def get(name, key):
            return float(s[name][key]) if name in s else 0.0

        def ms(name):
            return get(name, "self_ns") / 1e6

        out = {}
        simple = {
            "numerics.rng_generator": ("calls",),
            "numerics.softmax_rows": ("calls", "entries"),
            "numerics.eps0_column_stats": (),
            "costs.cost_matrix": ("calls", "entries"),
            "semidual.coupling_scores": ("calls", "entries"),
            "semidual.chi2_estimator": ("calls", "rows"),
            "semidual.semidual_value": ("calls", "rows"),
            "semidual.noise_sample": ("calls", "rows"),
            "coupling.assign_batch": ("calls", "pairs"),
            "coupling.sinkhorn": ("calls", "sweeps", "failures"),
            "coupling.hungarian": ("calls", "n"),
            "coupling.couple_independent": (),
            "flow.fm_loss_and_grad": ("calls", "rows"),
            "flow.velocity": ("calls", "rows"),
            "flow.integrate": (),
            "flow.guided_sample": ("calls",),
            "container.write": ("calls", "bytes"),
            "container.read": ("calls", "bytes"),
            "container.metrics_log": ("calls",),
        }
        for name, keys in simple.items():
            for key in keys:
                out[f"{name}.{key}"] = get(name, key)
            out[f"{name}.self_ms"] = ms(name)
        # Computed bytes of the score blocks: entries x 8 B (float64).
        out["semidual.coupling_scores.computed_gb"] = \
            get("semidual.coupling_scores", "entries") * 8 / 1e9
        iterations = get("solver.solve_sdot", "iterations")
        checks = get("solver.chi2_check", "calls")
        out["solver.iterations"] = iterations
        out["solver.checks"] = checks
        out["solver.final_chi2"] = get("solver.solve_sdot", "final_chi2")
        out["solver.step_self_ms"] = \
            ms("solver.solve_sdot") / iterations if iterations else 0.0
        check_ns = get("solver.chi2_check", "total_ns") \
            + get("solver.semidual_probe", "total_ns")
        out["solver.check_ms"] = check_ns / 1e6 / checks if checks else 0.0
        steps = get("flow.train_flow", "steps")
        out["flow.train_step_self_ms"] = ms("flow.train_flow") / steps if steps else 0.0
        for label in cli_labels:
            out[f"cli.{label}.self_ms"] = ms(f"cli.{label}")
            out[f"cli.{label}.rss_hwm_mb"] = rss_hwm_mb.get(label, 0.0)
        return out

    def write_spans(self, path):
        """Write every span as one CSV row."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,command\n")
            for span in sorted(self.spans):
                fh.write(",".join("" if v is None else str(v) for v in span) + "\n")

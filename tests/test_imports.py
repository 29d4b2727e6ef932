"""A fresh ``sdfm`` call imports scipy only on the paths that call it.

Every CLI command starts a new interpreter, and importing scipy's
``spatial`` and ``optimize`` costs several times the rest of the start-up.
Only the W2 ``eval`` and minibatch-Hungarian ``train`` call scipy, so
they alone may load it. The check runs in a fresh interpreter: this test
process has loaded scipy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = r"""
import sys

from sdfm.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

train = ["train", "--data", "data.sdfm", "--steps", "3", "--batch", "16",
         "--hidden", "4", "--seed", "5"]
recipe = [
    (0, ["dataset", "--name", "eight-gaussians", "--n", "64",
         "--out", "data.sdfm"]),
    (3, ["solve", "--data", "data.sdfm", "--eps", "0", "--tau", "1e-9",
         "--iters", "20", "--batch", "32", "--chi2-samples", "256",
         "--out", "pot.sdfm"]),
    (3, ["solve", "--data", "data.sdfm", "--eps", "0.5", "--tau", "1e-9",
         "--iters", "20", "--batch", "32", "--chi2-samples", "256",
         "--out", "eps.sdfm"]),
    (0, ["chisq", "--potential", "pot.sdfm", "--data", "data.sdfm",
         "--samples", "256"]),
    (0, ["assign", "--potential", "pot.sdfm", "--data", "data.sdfm",
         "--sample", "16", "--out", "pairs.sdfm"]),
    (0, [*train, "--coupling", "sd", "--potential", "pot.sdfm",
         "--out", "sd.sdfm"]),
    (0, [*train, "--coupling", "independent", "--out", "ifm.sdfm"]),
    (0, [*train, "--coupling", "minibatch-sinkhorn", "--ot-eps", "0.3",
         "--out", "sk.sdfm"]),
    (0, ["sample", "--model", "sd.sdfm", "--count", "16", "--steps", "2",
         "--out", "s"]),
    (0, ["eval", "--model", "sd.sdfm", "--count", "16", "--steps", "2",
         "--out", "report.json"]),
    (0, ["guide", "--model1", "sd.sdfm", "--model2", "ifm.sdfm",
         "--replicas", "2", "--count", "8", "--steps", "2", "--out", "g"]),
]
for code, argv in recipe:
    assert main(argv) == code, (argv[0], code)
    assert not scipy_modules(), (argv[0], scipy_modules()[:3])
assert main([*train, "--coupling", "minibatch-hungarian",
             "--out", "hu.sdfm"]) == 0
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_commands_without_scipy_calls_never_import_it(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tmp_path, capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")

"""Every command's payload keeps its bits across BLAS thread counts.

The ``cli.py`` docstring promises that each command is a pure function of
its flags, input files and seed. The BLAS library splits a matrix product
across its threads, so the same recipe runs in two fresh interpreters,
one with ``OPENBLAS_NUM_THREADS=1`` and one with ``=2``: eps=0 at d=2
(``solve``, ``chisq``, ``assign``, ``train --coupling sd``, then ``sample``
and ``eval --model`` over three row blocks of the field and a partial one)
and eps>0 at d=8 (``solve``, ``chisq``, ``assign``). Each interpreter calls
``sdfm.cli.main`` once per command, and the two must print the same lines
(less ``assign``'s wall time) and write the same payload fingerprints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = r"""
import contextlib
import hashlib
import io
import json
import re
import sys

from sdfm.cli import main
from sdfm.container import read_container

solve = ["--tau", "1e-9", "--iters", "40", "--batch", "256",
         "--chi2-samples", "2048", "--seed", "1"]
recipe = [
    (0, ["dataset", "--name", "eight-gaussians", "--n", "4096", "--d", "2",
         "--seed", "0", "--out", "d2.sdfm"]),
    (3, ["solve", "--data", "d2.sdfm", "--eps", "0", *solve,
         "--out", "pot0.sdfm"]),
    (0, ["chisq", "--potential", "pot0.sdfm", "--data", "d2.sdfm",
         "--samples", "8192", "--seed", "9"]),
    (0, ["assign", "--potential", "pot0.sdfm", "--data", "d2.sdfm",
         "--sample", "4096", "--seed", "2", "--out", "pairs0.sdfm"]),
    (0, ["train", "--data", "d2.sdfm", "--coupling", "sd",
         "--potential", "pot0.sdfm", "--steps", "20", "--batch", "256",
         "--hidden", "32", "32", "--seed", "3", "--out", "sd.sdfm"]),
    # Width 32: the field's blocks are of 4096 rows.
    (0, ["sample", "--model", "sd.sdfm", "--count", "12588", "--steps", "4",
         "--seed", "4", "--out", "s"]),
    (0, ["eval", "--model", "sd.sdfm", "--count", "12588", "--solver", "rk4",
         "--steps", "4", "--seed", "4", "--out", "report.json"]),
    (0, ["dataset", "--name", "gaussian-blob", "--n", "2048", "--d", "8",
         "--seed", "5", "--out", "d8.sdfm"]),
    (3, ["solve", "--data", "d8.sdfm", "--eps", "0.1", *solve,
         "--out", "pot1.sdfm"]),
    (0, ["chisq", "--potential", "pot1.sdfm", "--data", "d8.sdfm",
         "--samples", "4096", "--seed", "9"]),
    (0, ["assign", "--potential", "pot1.sdfm", "--data", "d8.sdfm",
         "--sample", "1024", "--seed", "2", "--out", "pairs1.sdfm"]),
]
got = []
for code, argv in recipe:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code, (argv, code)
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if path is None:
        fingerprint = None
    elif path.endswith(".sdfm"):
        fingerprint = read_container(path)[1]["fingerprint"]
    else:
        with open(path if path.endswith(".json") else path + ".bin", "rb") as fh:
            fingerprint = hashlib.sha256(fh.read()).hexdigest()
    got.append([" ".join(argv[:3]), fingerprint,
                re.sub(r"time_per_pair=\S+", "", out.getvalue())])
print(json.dumps(got))
"""


def test_payloads_equal_at_one_and_two_blas_threads(tmp_path):
    runs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "OPENBLAS_NUM_THREADS": threads}
        runs[threads] = subprocess.Popen(
            [sys.executable, "-c", PROBE], cwd=cwd, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    got = {}
    for threads, proc in runs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        got[threads] = json.loads(stdout)
    assert len(got["1"]) == 11
    for one, two in zip(got["1"], got["2"]):
        assert one == two

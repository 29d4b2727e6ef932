"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/smoke_test.py

Runs every workload of ``BENCHMARK.json`` with ``--scale tiny``, untraced
and traced, and checks the result schema, the metric names and units, and
that the output checks ran and passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_schema_and_checks(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace and name != "peak_rss_mb":
            assert m["value"] > 0, name

    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    ops = {name.split(":")[0] + ":" + name.split(":")[1] for name, _, _ in record["ops"]}
    for op in ("setup:exit", "solve:exit", "solve:chi2_decreased",
               "assign:indices_valid", "chisq:estimate_finite",
               "eval:report_finite", "deterministic:potential",
               "deterministic:pairs", "deterministic:data"):
        assert op in ops, op
    if workload == "desk-2d":
        assert "claim:sd_straighter_than_ifm" in ops


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

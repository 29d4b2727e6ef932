"""Alternating parent/change pairs of benchmark runs, and their comparison.

    python3 tools/bench_pairs.py --parent ../parent-checkout [--pairs 10]
        [--seed 9001]

For every workload of ``BENCHMARK.json``, each pair runs
``perfbench/run.py --trace 0`` for the spec's ``run_seconds`` once in the
parent checkout and once in this one, one after the other; the side that
runs first alternates from pair to pair, so a drift in the box's speed
falls on both sides alike. After every run the payload fingerprints of
``.perfbench_out/<workload>-seed<seed>-trace0.json`` are kept, and each
pair's two sets are compared.

For each end-to-end metric of ``BENCHMARK.json`` the report prints the
parent's median and interquartile range, the change's median, their ratio
and the number of pairs the change won on the metric's ``better``
direction; a tie counts for neither side. It also lists every pair's
``peak_rss_mb``, since that metric can take one of two values by heap
placement. The exit status is 1 if any run was not ``correct`` (or
printed no result), else 0. Fingerprints that
differ are printed, but do not change the exit status: a change may move
bits on purpose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PEAK = "peak_rss_mb"


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One benchmark run in ``checkout``: its result line and fingerprints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{checkout}: no result (exit {proc.returncode})\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return {"correct": False, "metrics": {}, "fingerprints": {}}
    record = checkout / ".perfbench_out" / \
        f"{workload}-seed{seed}-trace0.json"
    result["fingerprints"] = json.loads(record.read_text())["fingerprints"]
    for line in lines:
        if line.startswith("FAILED"):
            print(f"{checkout}: {line}", file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(workload: str, runs, metrics) -> None:
    print(f"== {workload}: {len(runs)} pairs (parent median [IQR] -> change "
          f"median, ratio, pairs the change won)")
    for name, better in metrics:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in runs
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        q1, q3 = quartiles(parent)
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        sign = -1 if better == "lower" else 1
        won = sum(sign * (c - p) > 0 for p, c in pairs)
        ratio = mid_c / mid_p if mid_p else float("nan")
        print(f"  {name:20s} {mid_p:11.6g} [{q1:.6g}-{q3:.6g}] -> "
              f"{mid_c:11.6g}  {ratio:6.3f}x  {won}/{len(pairs)}")
    # Peak RSS can be bimodal by heap placement: show every run's value.
    peaks = [(p["metrics"][PEAK]["value"], c["metrics"][PEAK]["value"])
             for p, c in runs if PEAK in p["metrics"] and PEAK in c["metrics"]]
    if peaks:
        print(f"  {PEAK} by pair (parent/change): "
              + " ".join(f"{p:.2f}/{c:.2f}" for p, c in peaks))
    for i, (p, c) in enumerate(runs):
        keys = sorted(set(p["fingerprints"]) | set(c["fingerprints"]))
        moved = [k for k in keys
                 if p["fingerprints"].get(k) != c["fingerprints"].get(k)]
        if moved:
            print(f"  pair {i}: fingerprints differ: {', '.join(moved)}")
    print(f"  fingerprints equal in "
          f"{sum(p['fingerprints'] == c['fingerprints'] for p, c in runs)}"
          f" of {len(runs)} pairs")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9001)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    sides = (args.parent.resolve(), ROOT)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.pairs):
            pair = [None, None]
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                pair[k] = run_once(sides[k], workload, args.seed,
                                   spec["run_seconds"])
            ok &= all(r["correct"] for r in pair)
            runs.append(tuple(pair))
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        report(workload, runs, metrics)
    if not ok:
        print("FAILED: a run was not correct", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

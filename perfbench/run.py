"""Benchmark of the ``sdfm`` desk workflow: one workload, one run.

    python3 perfbench/run.py --workload desk-2d --seed 0 --seconds 50 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.

What one run does:

1. Times ``setup_s``: five fresh interpreters each import ``sdfm`` and run
   the workload's ``sdfm dataset`` commands, as a user pays on every CLI
   call. The median is reported.
2. Starts one fresh worker process (``worker.py``) with BLAS threads capped
   at the CPUs this process may use. The worker is a closed loop with one
   client: it calls ``sdfm.cli.main(argv)`` for each command of the recipe
   (``recipes.py``), untimed warm-up first, then repeats the recipe
   ``max(2, seconds // recipes.NOMINAL_REP_S)`` times and checks every output.
3. Reports the medians over repetitions. With ``--trace 1`` every second
   repetition is traced (``tracing.py``) and the per-layer metrics come
   from the traced ones; ``trace.overhead_s`` is the traced ``recipe_s``
   minus the untraced one of the same run.

Every command's exit code, every output check and every determinism
comparison (payload fingerprints of each artifact across repetitions) is
one operation. The last stdout line is the JSON result; a fuller record
(environment, load averages, per-repetition times, every operation) goes
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

import recipes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = {"full": 5, "tiny": 2}
RUN_LIMIT_S = 170

# End-to-end metrics and units; per-command ones come from STEP_METRICS.
E2E_UNITS = {"setup_s": "s", "recipe_s": "s", "peak_rss_mb": "MB",
             **{m: "s" for m in recipes.STEP_METRICS.values()},
             "assign_us_per_pair": "us"}

_PROBE = """
import json, sys
from sdfm.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    if rc:
        sys.exit(rc)
"""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".self_ms", "ms"), ("_ms", "ms"), (".computed_gb", "GB"),
                         (".bytes", "B"), (".rss_hwm_mb", "MB"),
                         (".final_chi2", "1"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sdfm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or None, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=recipes.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny: smoke-test sizes")
    args = ap.parse_args()

    t_start = time.perf_counter()
    if not (ROOT / "src" / "sdfm" / "__init__.py").is_file():
        print(f"error: no sdfm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    ops = []
    try:
        # 1. setup_s: fresh interpreter -> import sdfm -> dataset commands.
        probe_dir = work / "setup"
        probe_dir.mkdir(parents=True)
        datasets = recipes.build(args.workload, args.seed, args.scale,
                                 str(probe_dir)).datasets
        argvs = json.dumps([s.argv for s in datasets])
        setup_times = []
        for _ in range(SETUP_PROBES[args.scale]):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _PROBE, argvs], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=60)
            setup_times.append(time.perf_counter() - t0)
            ops.append(["setup:exit", proc.returncode == 0, proc.stderr[-300:]])

        # 2. the closed loop in one fresh worker process.
        result_path = work / "result.json"
        spans_path = out_dir / f"{tag}-spans.csv"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--src", str(ROOT / "src"),
               "--workdir", str(work / "worker"), "--result", str(result_path)]
        if args.trace:
            cmd += ["--spans", str(spans_path)]
        remaining = RUN_LIMIT_S - (time.perf_counter() - t_start)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: worker exited with {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        worker = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    ops += worker["ops"]
    failed = [op for op in ops if not op[1]]
    reps = worker["reps"]

    def recipe_s(rep):
        return sum(rep["times"].get(label, 0.0) for label in recipes.STEP_METRICS)

    if args.trace:
        layers = worker["layers"]
        values = {k: median([layer[k] for layer in layers]) for k in layers[0]}
        # The first repetition runs cold, so the traced ones are compared
        # with the later untraced ones where there are any.
        values["trace.overhead_s"] = \
            median([recipe_s(r) for r in worker["traced_reps"]]) \
            - median([recipe_s(r) for r in reps[1:] or reps])
        values["trace.spans"] = median([r["spans"] for r in worker["traced_reps"]])
        units = {k: layer_unit(k) for k in values}
    else:
        values = {"setup_s": median(setup_times),
                  "recipe_s": median([recipe_s(r) for r in reps]),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        for label, metric in recipes.STEP_METRICS.items():
            values[metric] = median([r["times"][label] for r in reps])
        values["assign_us_per_pair"] *= 1e6 / worker["pairs"]
        units = E2E_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "loop": "closed, 1 client",
        "env": {**worker["env"], **source_record(), "nproc": os.cpu_count(),
                "blas_threads_requested": threads,
                "loadavg_before": load_before, "loadavg_after": load_after},
        "setup_times_s": setup_times, "reps": reps,
        "traced_reps": worker["traced_reps"], "metrics": metrics,
        "fingerprints": worker["fingerprints"], "ops": ops,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} reps={len(reps)}"
          f"+{len(worker['traced_reps'])} traced  blas={worker['env']['blas']}"
          f"  load {load_before[0]:.2f} -> {load_after[0]:.2f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        print("note: no layer has a queue, so no waiting time is reported; "
              f"spans in {spans_path.relative_to(ROOT)}")
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run in a fresh process: the closed loop over ``sdfm`` commands.

A single client calls ``sdfm.cli.main(argv)`` in-process for each command
of the recipe and issues the next command only when the previous one has
returned. The recipe runs ``max(2, seconds // NOMINAL_REP_S)`` times, at
least twice so every artifact's payload fingerprint can be compared across
repetitions. A warm-up pass of the tiny recipe runs first and is not timed,
so one-off costs (lazy imports, first BLAS calls) stay out of the medians;
the import itself is measured by the caller as ``setup_s``.

Writes a JSON result file read by ``run.py``. Started by ``run.py``, which
sets ``PYTHONPATH`` to the checkout's ``src`` and the BLAS thread limits.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import recipes
from tracing import Tracer


class Run:
    """Commands, checks and timings of one workload run."""

    def __init__(self, main, n_data):
        self.main = main
        self.n_data = n_data
        self.ops = []  # (name, ok, detail)

    def op(self, name, ok, detail=""):
        self.ops.append((name, bool(ok), str(detail)))
        return ok

    def command(self, step, tracer):
        """Run one command; returns (seconds, ok, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.main(step.argv)
                else:
                    rc = tracer.command(step.label, self.main, step.argv)
        except Exception:  # a crash is a failed operation, not a harness error
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        ok = self.op(f"{step.label}:exit", rc == step.expect_rc,
                     f"rc={rc} expected={step.expect_rc} {err.getvalue()[-300:]}")
        return seconds, ok, out.getvalue()

    # -- output checks (untimed) ---------------------------------------------

    def check(self, step, stdout, fingerprints, curvatures):
        from sdfm import artifacts
        from sdfm.container import read_container

        def finite(name, values):
            arr = np.asarray(values, dtype=np.float64)
            return self.op(name, arr.size > 0 and np.all(np.isfinite(arr)),
                           f"size={arr.size}")

        label = step.label
        for key, path in step.outputs.items():
            if not os.path.exists(path):
                self.op(f"{label}:{key}:exists", False, path)
                return
            if path.endswith(".sdfm"):
                _, meta, arrays = read_container(path)
                fingerprints[key] = meta["fingerprint"]
            else:
                with open(path, "rb") as fh:
                    fingerprints[key] = hashlib.sha256(fh.read()).hexdigest()
        if label == "solve":
            prov = read_container(step.outputs["potential"])[1]["provenance"]
            first = prov["chi2_history"][0][1]
            final = prov["final_chi2"]
            self.op("solve:chi2_decreased",
                    math.isfinite(final) and final < first,
                    f"chi2 {first} -> {final}")
        elif label == "chisq":
            m = re.search(r"estimate=(\S+)", stdout)
            finite("chisq:estimate_finite", float(m.group(1)) if m else [])
            fingerprints["chisq"] = hashlib.sha256(stdout.encode()).hexdigest()
        elif label == "assign":
            idx = read_container(step.outputs["pairs"])[2]["indices"]
            self.op("assign:indices_valid",
                    idx.shape == (step.pairs,) and idx.min() >= 0
                    and idx.max() < self.n_data,
                    f"shape={idx.shape} range=[{idx.min()}, {idx.max()}]")
        elif label.startswith("train_"):
            finite(f"{label}:theta_finite",
                   read_container(next(iter(step.outputs.values())))[2]["theta"])
        elif label == "sample":
            (key, path), = step.outputs.items()
            finite(f"{key}:finite", artifacts.load_sample_dump(path))
            with open(path[:-4] + ".json") as fh:
                curvatures[key[len("sample_"):]] = json.load(fh)["curvature"]
        elif label == "eval":
            with open(step.outputs["report"]) as fh:
                report = json.load(fh)
            finite("eval:report_finite", list(report.values()))
        elif label == "guide":
            finite("guide:finite", artifacts.load_sample_dump(step.outputs["guide"]))

    def rep(self, recipe, tracer=None, checked=True):
        """One pass over the recipe: wall times per step label."""
        times, rss, fingerprints, curvatures = {}, {}, {}, {}
        for step in recipe.datasets + recipe.steps:
            seconds, ok, stdout = self.command(step, tracer)
            times[step.label] = times.get(step.label, 0.0) + seconds
            rss[step.label] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if ok and checked:
                try:
                    self.check(step, stdout, fingerprints, curvatures)
                except Exception:
                    self.op(f"{step.label}:check", False, traceback.format_exc()[-300:])
        claim = recipe.curvature_claim
        if checked and claim:
            straight, base = (curvatures.get(m, math.nan) for m in claim)
            self.op(f"claim:{claim[0]}_straighter_than_{claim[1]}",
                    straight < base, f"curvature {straight} vs {base}")
        return {"times": times, "rss_hwm_mb": rss, "fingerprints": fingerprints,
                "curvatures": curvatures}


def blas_info():
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"name": cfg.get("name"), "version": cfg.get("version"),
            "threads": threads}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=recipes.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    t_start = time.perf_counter()
    import scipy
    import sdfm
    from sdfm.cli import main as sdfm_main

    src = os.path.realpath(args.src)
    if not os.path.realpath(sdfm.__file__).startswith(src + os.sep):
        sys.exit(f"sdfm imported from {sdfm.__file__}, not from {src}")

    run_dir = os.path.join(args.workdir, "run")
    warm_dir = os.path.join(args.workdir, "warmup")
    os.makedirs(run_dir)
    os.makedirs(warm_dir)
    recipe = recipes.build(args.workload, args.seed, args.scale, run_dir)
    warm = recipes.build(args.workload, args.seed, "tiny", warm_dir)
    run = Run(sdfm_main, recipe.n_data)

    run.rep(warm, checked=False)
    shutil.rmtree(warm_dir)

    n_reps = 2 if args.scale == "tiny" else \
        max(2, int(args.seconds // recipes.NOMINAL_REP_S[args.workload]))
    reps, traced_reps, layers = [], [], []
    for i in range(n_reps):
        tracer = Tracer() if args.trace and i % 2 == 1 else None
        t0 = time.perf_counter()
        rep = run.rep(recipe, tracer)
        rep["seconds"] = time.perf_counter() - t0
        if tracer is None:
            reps.append(rep)
        else:
            traced_reps.append(rep)
            # The high-water marks of the first full-size repetition show
            # which command sets the peak; later ones only repeat the peak.
            layers.append(tracer.layer_metrics(recipes.CLI_LABELS,
                                               reps[0]["rss_hwm_mb"]))
            rep["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write_spans(args.spans)
        if i >= 1 and time.perf_counter() - t_start + rep["seconds"] > 150:
            break
    done = reps + traced_reps

    first = done[0]["fingerprints"]
    for i, rep in enumerate(done[1:], 1):
        for key in sorted(set(first) | set(rep["fingerprints"])):
            run.op(f"deterministic:{key}:rep{i}",
                   first.get(key) == rep["fingerprints"].get(key),
                   f"{first.get(key)} vs {rep['fingerprints'].get(key)}")

    shutil.rmtree(run_dir)
    result = {
        "reps": [{k: r[k] for k in ("seconds", "times", "rss_hwm_mb", "curvatures")}
                 for r in reps],
        "traced_reps": [{k: r[k] for k in ("seconds", "times", "spans")}
                        for r in traced_reps],
        "pairs": next(s.pairs for s in recipe.steps if s.label == "assign"),
        "fingerprints": first,
        "layers": layers,
        "ops": run.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "blas": blas_info(),
                "sdfm_file": sdfm.__file__},
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

"""Command-line surface and end-to-end experiment recipes.

Exit-code contract: 0 success, 2 malformed usage or inputs (single-line
machine-parsable error on stderr), 3 budget stop (artifact still
written), 4 numeric failure. Exit 2 covers only the validation errors
(:class:`UsageError`, :class:`~sdfm.costs.ConfigurationError`,
:class:`~sdfm.container.ContainerError` and a missing file); any other
exception is a defect and propagates as a traceback. All commands are
pure functions of (flags, input files, seed): reruns produce
byte-identical artifact payloads; only recorded wall times differ.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import artifacts
from .container import ContainerError, MetricsWriter, is_container
from .costs import (
    NEG_DOT,
    REFERENCE_BATCH_SIZE,
    SQ_EUCLIDEAN,
    ConfigurationError,
    CostConfig,
    estimate_cost_std,
    fit_pca,
)
from .coupling import (
    SinkhornError,
    assign_batch,
    couple_independent,
    couple_minibatch_ot,
    hungarian,
)
from .flow import (
    FlowModel,
    GuidanceConfig,
    TrainConfig,
    gaussian_starts,
    guided_sample,
    run_flow,
    train_flow,
)
from .numerics import Rng
from .semidual import TargetMeasure, chi2_batches
from .solver import SolverConfig, SolverDivergence, solve_sdot

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(ValueError):
    pass


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Shared loading helpers

def _load_target(data_path: str) -> TargetMeasure:
    points, weights, _ = artifacts.load_dataset(data_path)
    return TargetMeasure.from_points(points, weights)


def _relative_eps(cost: CostConfig, points, rng: Rng) -> CostConfig:
    """``cost`` with its ``eps_raw`` bound to the scale of a reference cost.

    The scale is the std of the cost between ``REFERENCE_BATCH_SIZE``
    standard normal rows and as many data rows, both drawn from
    ``rng.child(12)``.
    """
    gen = rng.child(12).generator()
    n_ref = min(REFERENCE_BATCH_SIZE, len(points))
    noise_ref = gen.standard_normal((n_ref, points.shape[1]))
    data_idx = gen.choice(len(points), size=n_ref, replace=False)
    return cost.with_rescaled_eps(
        estimate_cost_std(cost, noise_ref, points[data_idx]))


def _resolve_cost(args, points, rng: Rng):
    kind = NEG_DOT if args.cost == "negdot" else SQ_EUCLIDEAN
    if args.eps == 0.0 and kind != NEG_DOT:
        raise ConfigurationError(
            "eps=0 requires the neg-dot cost (distinct-point geometry)"
        )
    projection = None if args.pca is None else fit_pca(points, args.pca)
    cfg = CostConfig(kind=kind, eps_raw=float(args.eps), projection=projection)
    return _relative_eps(cfg, points, rng) if args.eps > 0.0 else cfg


# ---------------------------------------------------------------------------
# Subcommands

def cmd_solve(args) -> int:
    rng = Rng(args.seed)
    target = _load_target(args.data)
    cost = _resolve_cost(args, target.points, rng)

    cfg = replace(SolverConfig(tau=args.tau).scaled(args.iters),
                  base_lr=args.lr, batch=args.batch)
    if args.checkpoint_every < 0:
        raise UsageError("--checkpoint-every must be >= 0")
    if args.chi2_samples is not None:
        cfg = replace(cfg, chi2_total=args.chi2_samples,
                      chi2_batch=min(args.chi2_samples, 2**12))

    checkpoint_paths = []

    def checkpoint(k, pot, chi2):
        if args.checkpoint_every and k and k % args.checkpoint_every == 0:
            path = f"{args.out}.ckpt{k}"
            artifacts.save_potential(path, pot)
            checkpoint_paths.append(path)

    with MetricsWriter(args.out + ".metrics.csv",
                       args.out + ".metrics.json") as metrics:
        pot = solve_sdot(target, cost, cfg, rng, metrics=metrics,
                         checkpoint_cb=checkpoint)
        artifacts.save_potential(args.out, pot)
        metrics.finalize({
            "command": "solve", "seed": args.seed, "eps": args.eps,
            "tau": args.tau, "iters": args.iters,
            "stop_reason": pot.provenance["stop_reason"],
            "final_chi2": pot.provenance["final_chi2"],
            "final_marginal_linf": pot.provenance["final_marginal_linf"],
            "empty_cell_fraction": pot.provenance["empty_cell_fraction"],
            "lr_halvings": pot.provenance["lr_halvings"],
            "cost": cost.metadata(), "checkpoints": checkpoint_paths,
        })
    print(f"solve: chi2={pot.provenance['final_chi2']:.6f} "
          f"iterations={pot.provenance['iterations']} "
          f"stop={pot.provenance['stop_reason']} out={args.out}")
    return EXIT_OK if pot.provenance["stop_reason"] == "tau" else EXIT_BUDGET


def cmd_assign(args) -> int:
    pot = artifacts.load_potential(args.potential, _load_target(args.data))
    rng = Rng(args.seed)
    if args.noise:
        noise = artifacts.load_dataset(args.noise)[0]
        if noise.shape[1] != pot.target.dim:
            raise UsageError(f"noise rows have dimension {noise.shape[1]}, "
                             f"the dataset {pot.target.dim}")
        if not np.isfinite(noise).all():
            raise UsageError("noise rows must be finite")
    else:
        noise = gaussian_starts(rng.child(0), args.sample, pot.target.dim)
    t0 = time.perf_counter()
    indices = assign_batch(pot, noise, rng.child(1))
    time_per_pair = (time.perf_counter() - t0) / max(len(noise), 1)
    points = pot.target.points[indices]
    artifacts.save_pairs(args.out, noise, indices, points, {
        "seed": args.seed, "potential": args.potential, "provenance": "sd",
        "mean_time_per_pair_s": time_per_pair,
    })
    print(f"assign: pairs={len(indices)} "
          f"time_per_pair={time_per_pair * 1e6:.2f}us out={args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    rng = Rng(args.seed)
    target = _load_target(args.data)
    cost = None
    potential = {}  # the sd potential's state, echoed in the summary
    if args.coupling == "sd":
        if not args.potential:
            raise UsageError("--coupling sd requires --potential")
        pot = artifacts.load_potential(args.potential, target)
        pair = functools.partial(assign_batch, pot)
        potential = {f"potential_{key}": pot.provenance.get(key) for key in
                     ("stop_reason", "final_chi2", "empty_cell_fraction")}
    elif args.coupling == "independent":
        pair = functools.partial(couple_independent, target)
    elif args.coupling == "minibatch-hungarian":
        pair = functools.partial(couple_minibatch_ot, target, 0.0)
    else:
        if not args.ot_eps > 0.0:
            raise UsageError("--ot-eps must be > 0 for minibatch-sinkhorn")
        cost = _relative_eps(CostConfig(kind=SQ_EUCLIDEAN, eps_raw=args.ot_eps),
                             target.points, rng)
        pair = functools.partial(couple_minibatch_ot, target, cost.eps)
    model = FlowModel(dim=target.dim, hidden=tuple(args.hidden),
                      rng=rng.child(100))
    cfg = TrainConfig(steps=args.steps, batch=args.batch)
    paired = np.zeros(target.n, dtype=bool)

    def marking_pair(noise, rngs):
        idx = pair(noise, rngs)
        paired[idx] = True
        return idx

    # A failed run leaves no partial metrics: no summary could describe them.
    logs = (args.out + ".metrics.csv", args.out + ".metrics.json")
    try:
        with MetricsWriter(*logs) as metrics:
            t0 = time.perf_counter()
            model = train_flow(model, target, marking_pair, cfg,
                               rng.child(101), metrics)
            train_ms = (time.perf_counter() - t0) * 1e3
            pair_ms = metrics.totals.get("pair_batch_ms", 0.0)
            artifacts.save_model(args.out, model, {
                "coupling": args.coupling, "seed": args.seed,
                "steps": args.steps, "batch": args.batch, "data": args.data,
                **({"cost": cost.metadata()} if cost is not None else {}),
            })
            metrics.finalize({"command": "train", "coupling": args.coupling,
                              "seed": args.seed, "pair_ms": pair_ms,
                              "pair_share": pair_ms / train_ms,
                              "paired_fraction": float(paired.mean()),
                              **potential})
    except BaseException:
        for path in logs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    echo = "".join(f"{key}={value} " for key, value in potential.items())
    print(f"train: coupling={args.coupling} steps={args.steps} {echo}"
          f"out={args.out}")
    return EXIT_OK


def _run_model(args, keep: bool):
    """``(endpoints or None, curvature or None)`` of ``--count`` starts
    drawn from ``Rng(--seed)`` and integrated through ``--model`` by
    ``--solver`` in ``--steps`` steps, in row blocks
    (:func:`~sdfm.flow.run_flow`): the one model run of ``sample`` and
    ``eval``. Only ``sample`` keeps the endpoints."""
    model = artifacts.load_model(args.model)
    return run_flow(model, Rng(args.seed), args.count, method=args.solver,
                    steps=args.steps, keep=keep)


def cmd_sample(args) -> int:
    # One step has no curvature; JSON null keeps the sidecar strict JSON.
    x1, curv = _run_model(args, keep=True)
    bin_path, _ = artifacts.save_sample_dump(args.out, x1, {
        "seed": args.seed, "solver": args.solver, "steps": args.steps,
        "model": args.model, "curvature": curv,
    })
    shown = "n/a" if curv is None else f"{curv:.6f}"
    print(f"sample: count={args.count} solver={args.solver}-{args.steps} "
          f"curvature={shown} out={bin_path}")
    return EXIT_OK


def cmd_guide(args) -> int:
    model1 = artifacts.load_model(args.model1)
    model2 = artifacts.load_model(args.model2)
    if model1.dim != model2.dim:
        raise UsageError("guidance models must share the data dimension")
    cfg = GuidanceConfig(gamma=args.gamma, replicas=args.replicas,
                         steps=args.steps, t_clip=args.t_clip)
    out, _ = guided_sample(model1.snapshot(), model2.snapshot(), cfg,
                           Rng(args.seed), args.count)
    bin_path, _ = artifacts.save_sample_dump(args.out, out, {
        "seed": args.seed, "gamma": args.gamma, "replicas": args.replicas,
        "steps": args.steps, "t_clip": args.t_clip,
    })
    print(f"guide: count={args.count} gamma={args.gamma} r={args.replicas} "
          f"out={bin_path}")
    return EXIT_OK


def cmd_chisq(args) -> int:
    pot = artifacts.load_potential(args.potential, _load_target(args.data))
    scan = chi2_batches(pot, Rng(args.seed), args.samples, args.batch)
    vals = scan.values
    est = float(np.mean(vals))
    # The standard error is the spread of the batch estimates: one batch has none.
    se = (f"{np.std(vals, ddof=1) / np.sqrt(len(vals)):.6f}"
          if len(vals) > 1 else "n/a")
    cost = scan.soft_c_mean + float(np.dot(scan.marginal, pot.g))
    print(f"chisq: estimate={est:.6f} transport_cost={cost:.6f} stderr={se} "
          f"samples={args.samples}")
    return EXIT_OK


def _load_cloud(path: str) -> np.ndarray:
    """Points of a dataset container, else of the sample dump ``path``.

    A path ending in ``.bin`` or ``.json`` is one of its dump's two files.
    Any other path is a container if it starts with the container magic,
    so a container that the loader refuses reports why; else it names a
    dump (``X``).
    """
    if not path.endswith((".bin", ".json")) and is_container(path):
        return artifacts.load_dataset(path)[0]
    return artifacts.load_sample_dump(path)


def empirical_w2(a: np.ndarray, b: np.ndarray) -> float:
    """2-Wasserstein distance between empirical clouds of one shape.

    Clouds of unequal count or dimension raise a
    :class:`~sdfm.costs.ConfigurationError` that names both shapes. The
    Hungarian matching holds the ``(n, n)`` float64 cost matrix of
    ``8 n²`` bytes: 2.1 MiB at n = 520, 2 GiB at n = 16384.
    """
    from scipy.spatial.distance import cdist

    if a.shape != b.shape:
        raise ConfigurationError(
            f"W2 clouds must have one shape, got {a.shape} and {b.shape}")
    # cdist takes differences directly: identical clouds give exact zeros.
    _, total = hungarian(cdist(a, b, "sqeuclidean"))
    return float(np.sqrt(max(total / len(a), 0.0)))


def cmd_eval(args) -> int:
    report = {}
    if (args.samples is None) != (args.reference is None):
        raise UsageError("W2 needs both --samples and --reference")
    if args.samples is not None:
        report["w2"] = empirical_w2(_load_cloud(args.samples),
                                    _load_cloud(args.reference))
    if args.model:
        if args.steps < 2:
            raise UsageError("a curvature needs --steps >= 2")
        report["curvature"] = _run_model(args, keep=False)[1]
    if not report:
        raise UsageError("nothing to evaluate: pass --samples/--reference "
                         "and/or --model")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print("eval: " + " ".join(f"{k}={v:.9f}" for k, v in report.items()))
    return EXIT_OK


def _eight_gaussians(n, d, rng):
    if d != 2:
        raise UsageError("eight-gaussians is a 2-d dataset")
    gen = rng.generator()
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    centers = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    which = gen.integers(0, 8, size=n)
    return centers[which] + 0.3 * gen.standard_normal((n, 2))


def _gaussian_blob(n, d, rng):
    return rng.generator().standard_normal((n, d))


_DATASETS = {"eight-gaussians": _eight_gaussians,
             "gaussian-blob": _gaussian_blob}


def cmd_dataset(args) -> int:
    if args.n < 1 or args.d < 1:
        raise UsageError("--n and --d must be >= 1")
    points = _DATASETS[args.name](args.n, args.d, Rng(args.seed))
    artifacts.save_dataset(args.out, points, None,
                           {"name": args.name, "seed": args.seed})
    print(f"dataset: name={args.name} n={len(points)} d={points.shape[1]} "
          f"out={args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="sdfm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="fit the semidiscrete dual potential")
    s.add_argument("--data", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--tau", type=float, default=0.05)
    s.add_argument("--out", required=True)
    s.add_argument("--lr", type=float, default=SolverConfig.base_lr)
    s.add_argument("--iters", type=int, default=30_000)
    s.add_argument("--batch", type=int, default=256)
    s.add_argument("--pca", type=int)
    s.add_argument("--cost", choices=["negdot", "sqeuclid"], default="negdot")
    s.add_argument("--chi2-samples", type=int)
    s.add_argument("--checkpoint-every", type=int, default=0)
    s.set_defaults(fn=cmd_solve)

    s = sub.add_parser("assign", help="pair a noise file against a potential")
    s.add_argument("--potential", required=True)
    s.add_argument("--data", required=True)
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--noise")
    source.add_argument("--sample", type=int)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_assign)

    s = sub.add_parser("train", help="train a flow model with a chosen coupling")
    s.add_argument("--data", required=True)
    s.add_argument("--coupling", required=True,
                   choices=["independent", "sd", "minibatch-sinkhorn",
                            "minibatch-hungarian"])
    s.add_argument("--potential")
    s.add_argument("--ot-eps", type=float, default=0.1)
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--batch", type=int, default=256)
    s.add_argument("--hidden", type=int, nargs="+", default=[128, 128, 128])
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("sample", help="integrate the flow and dump endpoints")
    s.add_argument("--model", required=True)
    s.add_argument("--count", type=int, default=1024)
    s.add_argument("--solver", choices=["euler", "rk4"], default="euler")
    s.add_argument("--steps", type=int, default=8)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sample)

    s = sub.add_parser("guide", help="geometric-mixture guidance resampling")
    s.add_argument("--model1", required=True)
    s.add_argument("--model2", required=True)
    s.add_argument("--gamma", type=float, default=2.0)
    s.add_argument("--replicas", type=int, default=16)
    s.add_argument("--count", type=int, default=256)
    s.add_argument("--steps", type=int, default=64)
    s.add_argument("--t-clip", type=float, default=0.99)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_guide)

    s = sub.add_parser("chisq", help="chi-square statistic of a stored potential")
    s.add_argument("--potential", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--samples", type=int, default=2**16)
    s.add_argument("--batch", type=int, default=2**12)
    s.set_defaults(fn=cmd_chisq)

    s = sub.add_parser("eval", help="W2 between clouds and/or model curvature")
    s.add_argument("--samples")
    s.add_argument("--reference")
    s.add_argument("--model")
    s.add_argument("--count", type=int, default=1024)
    s.add_argument("--solver", choices=["euler", "rk4"], default="euler")
    s.add_argument("--steps", type=int, default=8)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("dataset", help="generate a bundled toy dataset")
    s.add_argument("--name", required=True, choices=sorted(_DATASETS))
    s.add_argument("--n", type=int, default=4096)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_dataset)
    for s in sub.choices.values():
        s.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, ContainerError, ConfigurationError,
            FileNotFoundError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (SolverDivergence, SinkhornError, FloatingPointError) as exc:
        return _fail(str(exc), EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())

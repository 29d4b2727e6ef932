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
import json
import sys
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
from .coupling import SinkhornError, assign_batch, hungarian
from .flow import (
    FlowModel,
    GuidanceConfig,
    IndependentCoupling,
    MinibatchOTCoupling,
    SDCoupling,
    TrainConfig,
    curvature,
    gaussian_starts,
    guided_sample,
    integrate,
    train_flow,
)
from .numerics import Rng
from .semidual import Potential, TargetMeasure, chi2_batches
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

def _load_potential_with_target(pot_path: str, data_path: str) -> Potential:
    points, weights, _ = artifacts.load_dataset(data_path)
    target = TargetMeasure.from_points(points, weights)
    return artifacts.load_potential(pot_path, target)


def _resolve_cost(args, points, rng: Rng):
    kind = NEG_DOT if args.cost == "negdot" else SQ_EUCLIDEAN
    if args.eps == 0.0 and kind != NEG_DOT:
        raise ConfigurationError(
            "eps=0 requires the neg-dot cost (distinct-point geometry)"
        )
    projection = None
    if args.pca:
        projection = fit_pca(points, int(args.pca), rng.child(11))
    cfg = CostConfig(kind=kind, eps_raw=float(args.eps), projection=projection)
    if args.eps > 0.0 and not args.no_eps_rescale:
        gen = rng.child(12).generator()
        n_ref = min(REFERENCE_BATCH_SIZE, len(points))
        noise_ref = gen.standard_normal((n_ref, points.shape[1]))
        data_idx = gen.choice(len(points), size=n_ref, replace=False) \
            if len(points) >= n_ref else gen.integers(0, len(points), n_ref)
        std = estimate_cost_std(cfg, noise_ref, points[data_idx])
        cfg = cfg.with_rescaled_eps(std)
    return cfg


# ---------------------------------------------------------------------------
# Subcommands

def cmd_solve(args) -> int:
    rng = Rng(args.seed)
    points, weights, _ = artifacts.load_dataset(args.data)
    cost = _resolve_cost(args, points, rng)
    target = TargetMeasure.from_points(points, weights)

    cfg = SolverConfig(tau=args.tau).scaled(args.iters)
    if args.optimizer:
        cfg = replace(cfg, optimizer=args.optimizer)
    if args.lr is not None:
        cfg = replace(cfg, base_lr=args.lr)
    if args.checkpoint_every < 0:
        raise UsageError("--checkpoint-every must be >= 0")
    cfg = replace(cfg, batch=args.batch)
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
            "cost": cost.metadata(), "checkpoints": checkpoint_paths,
        })
    print(f"solve: chi2={pot.provenance['final_chi2']:.6f} "
          f"iterations={pot.provenance['iterations']} "
          f"stop={pot.provenance['stop_reason']} out={args.out}")
    return EXIT_OK if pot.provenance["stop_reason"] == "tau" else EXIT_BUDGET


def cmd_assign(args) -> int:
    pot = _load_potential_with_target(args.potential, args.data)
    rng = Rng(args.seed)
    if args.noise:
        noise = artifacts.load_dataset(args.noise)[0]
        if noise.shape[1] != pot.target.dim:
            raise UsageError(f"noise rows have dimension {noise.shape[1]}, "
                             f"the dataset {pot.target.dim}")
    else:
        if args.sample is None or args.sample < 1:
            raise UsageError("pass --noise FILE or --sample COUNT >= 1")
        noise = rng.child(0).generator().standard_normal(
            (args.sample, pot.target.dim))
    batch = assign_batch(pot, noise, rng.child(1))
    artifacts.save_pairs(args.out, batch, {
        "seed": args.seed, "potential": args.potential,
        "mean_time_per_pair_s": batch.time_per_pair,
    })
    print(f"assign: pairs={len(batch)} "
          f"time_per_pair={batch.time_per_pair * 1e6:.2f}us out={args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    rng = Rng(args.seed)
    points, weights, _ = artifacts.load_dataset(args.data)
    if args.coupling == "sd":
        if not args.potential:
            raise UsageError("--coupling sd requires --potential")
        pot = _load_potential_with_target(args.potential, args.data)
        target = pot.target
        coupling = SDCoupling(pot)
    else:
        target = TargetMeasure.from_points(points, weights)
        if args.coupling == "independent":
            coupling = IndependentCoupling(target)
        elif args.coupling in ("minibatch-sinkhorn", "minibatch-hungarian"):
            method = args.coupling.split("-")[1]
            eps = args.ot_eps if method == "sinkhorn" else 0.0
            cost = CostConfig(kind=SQ_EUCLIDEAN, eps_raw=eps)
            coupling = MinibatchOTCoupling(target, cost, eps, method)
        else:
            raise UsageError(f"unknown coupling {args.coupling!r}")
    model = FlowModel(dim=points.shape[1], hidden=tuple(args.hidden),
                      rng=rng.child(100))
    cfg = TrainConfig(steps=args.steps, batch=args.batch)
    with MetricsWriter(args.out + ".metrics.csv",
                       args.out + ".metrics.json") as metrics:
        model = train_flow(model, target, coupling, cfg, rng.child(101),
                           metrics=metrics)
        artifacts.save_model(args.out, model, {
            "coupling": args.coupling, "seed": args.seed, "steps": args.steps,
            "batch": args.batch, "data": args.data,
        })
        metrics.finalize({"command": "train", "coupling": args.coupling,
                          "seed": args.seed})
    print(f"train: coupling={args.coupling} steps={args.steps} out={args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    model = artifacts.load_model(args.model)
    x0 = gaussian_starts(Rng(args.seed), args.count, model.dim)
    traj = integrate(model, x0, method=args.solver, steps=args.steps)
    # One step has no curvature; JSON null keeps the sidecar strict JSON.
    curv = curvature(traj) if args.steps >= 2 else None
    bin_path, _ = artifacts.save_sample_dump(args.out, traj.endpoints, {
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
    out, _ = guided_sample(model1, model2, cfg, Rng(args.seed), args.count)
    bin_path, _ = artifacts.save_sample_dump(args.out, out, {
        "seed": args.seed, "gamma": args.gamma, "replicas": args.replicas,
        "steps": args.steps, "t_clip": args.t_clip,
    })
    print(f"guide: count={args.count} gamma={args.gamma} r={args.replicas} "
          f"out={bin_path}")
    return EXIT_OK


def cmd_chisq(args) -> int:
    pot = _load_potential_with_target(args.potential, args.data)
    scan = chi2_batches(pot, Rng(args.seed), args.samples, args.batch)
    vals = scan.values
    if not vals:
        raise UsageError("chisq needs a first batch of at least 2 samples")
    est = float(np.mean(vals))
    # The standard error is the spread of the batch estimates: one batch has none.
    se = (f"{np.std(vals, ddof=1) / np.sqrt(len(vals)):.6f}"
          if len(vals) > 1 else "n/a")
    dropped = args.samples - scan.samples
    print(f"chisq: estimate={est:.6f} stderr={se} samples={scan.samples}"
          + (f" dropped={dropped}" if dropped else ""))
    return EXIT_OK


def _load_cloud(path: str) -> np.ndarray:
    """Points of a dataset container, else the sample dump at ``path``.

    Only a file without the container magic falls back to the dump, so a
    container that the loader refuses reports why.
    """
    if not path.endswith((".bin", ".json")) and is_container(path):
        return artifacts.load_dataset(path)[0]
    return artifacts.load_sample_dump(path)


def empirical_w2(a: np.ndarray, b: np.ndarray) -> float:
    """2-Wasserstein distance between equal-size empirical clouds."""
    from scipy.spatial.distance import cdist

    if a.shape != b.shape:
        raise ConfigurationError("clouds must have identical shapes")
    # cdist takes differences directly: identical clouds give exact zeros.
    _, total = hungarian(cdist(a, b, "sqeuclidean"))
    return float(np.sqrt(max(total / len(a), 0.0)))


def cmd_eval(args) -> int:
    report = {}
    if args.samples and args.reference:
        a = _load_cloud(args.samples)
        b = _load_cloud(args.reference)
        if a.shape[0] != b.shape[0]:
            raise UsageError(
                f"clouds must be equal size, got {a.shape[0]} vs {b.shape[0]}"
            )
        report["w2"] = empirical_w2(a, b)
    if args.model:
        model = artifacts.load_model(args.model)
        x0 = gaussian_starts(Rng(args.seed), args.count, model.dim)
        traj = integrate(model, x0, method=args.solver, steps=args.steps)
        report["curvature"] = curvature(traj)
    if not report:
        raise UsageError("nothing to evaluate: pass --samples/--reference "
                         "and/or --model")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print("eval: " + " ".join(f"{k}={v:.9f}" for k, v in report.items()))
    return EXIT_OK


_TOY_BUILDERS = {}


def _toy(name):
    def deco(fn):
        _TOY_BUILDERS[name] = fn
        return fn
    return deco


@_toy("two-atoms")
def _toy_two_atoms(n, d, rng):
    pts = np.zeros((2, d))
    pts[0, 0] = 1.0
    pts[1, 0] = -1.0
    return pts, None


@_toy("eight-gaussians")
def _toy_eight_gaussians(n, d, rng):
    if d != 2:
        raise UsageError("eight-gaussians is a 2-d dataset")
    gen = rng.generator()
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    centers = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    which = gen.integers(0, 8, size=n)
    pts = centers[which] + 0.3 * gen.standard_normal((n, 2))
    return pts, None


@_toy("gaussian-blob")
def _toy_gaussian_blob(n, d, rng):
    return rng.generator().standard_normal((n, d)), None


def cmd_dataset(args) -> int:
    if args.name not in _TOY_BUILDERS:
        raise UsageError(
            f"unknown dataset {args.name!r}; choose from {sorted(_TOY_BUILDERS)}"
        )
    if args.n < 1 or args.d < 1:
        raise UsageError("--n and --d must be >= 1")
    rng = Rng(args.seed)
    points, weights = _TOY_BUILDERS[args.name](args.n, args.d, rng)
    artifacts.save_dataset(args.out, points, weights,
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
    s.add_argument("--optimizer", choices=["sgd-constant", "sgd-decay", "adagrad"])
    s.add_argument("--lr", type=float)
    s.add_argument("--iters", type=int, default=30_000)
    s.add_argument("--batch", type=int, default=256)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pca", type=int)
    s.add_argument("--cost", choices=["negdot", "sqeuclid"], default="negdot")
    s.add_argument("--no-eps-rescale", action="store_true")
    s.add_argument("--chi2-samples", type=int)
    s.add_argument("--checkpoint-every", type=int, default=0)
    s.set_defaults(fn=cmd_solve)

    s = sub.add_parser("assign", help="pair a noise file against a potential")
    s.add_argument("--potential", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--noise")
    s.add_argument("--sample", type=int)
    s.add_argument("--seed", type=int, default=0)
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
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("sample", help="integrate the flow and dump endpoints")
    s.add_argument("--model", required=True)
    s.add_argument("--count", type=int, default=1024)
    s.add_argument("--solver", choices=["euler", "rk4"], default="euler")
    s.add_argument("--steps", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
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
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_guide)

    s = sub.add_parser("chisq", help="chi-square statistic of a stored potential")
    s.add_argument("--potential", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--samples", type=int, default=2**16)
    s.add_argument("--batch", type=int, default=2**12)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_chisq)

    s = sub.add_parser("eval", help="W2 between clouds and/or model curvature")
    s.add_argument("--samples")
    s.add_argument("--reference")
    s.add_argument("--model")
    s.add_argument("--count", type=int, default=1024)
    s.add_argument("--solver", choices=["euler", "rk4"], default="euler")
    s.add_argument("--steps", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("dataset", help="generate a bundled toy dataset")
    s.add_argument("--name", required=True)
    s.add_argument("--n", type=int, default=4096)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_dataset)
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

"""Train flow models with independent vs semidiscrete couplings.

The full toy experiment: fit the potential on an eight-Gaussians target,
train two identical MLPs whose only difference is the coupling feeding
the regression, and compare curvature and endpoint quality across Euler
step budgets. Saves a sample figure when matplotlib is available.

Run:  python demos/03_flow_matching_lab.py           (about a minute)
"""

from functools import partial

import numpy as np

from sdfm import (
    CostConfig,
    FlowModel,
    Rng,
    SolverConfig,
    TargetMeasure,
    TrainConfig,
    assign_batch,
    couple_independent,
    curvature,
    integrate,
    solve_sdot,
    train_flow,
)
from sdfm.cli import empirical_w2

rng = Rng(21)
gen = rng.generator()

angles = 2.0 * np.pi * np.arange(8) / 8.0
centers = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
data = centers[gen.integers(0, 8, 2048)] + 0.3 * gen.standard_normal((2048, 2))
target = TargetMeasure.from_points(data)

pot = solve_sdot(
    target,
    CostConfig(kind="neg-dot", eps_raw=0.0),
    SolverConfig(base_lr=1.0, constant_phase=8000, decay_phase=4000,
                 averaging_window=3000, batch=512, tau=0.05,
                 check_interval=1000, chi2_batch=2**12, chi2_total=2**14),
    rng.child(1),
)
print("potential chi-square:", f"{pot.provenance['final_chi2']:.4f}")

init = FlowModel(dim=2, hidden=(64, 64, 64), rng=rng.child(2))
cfg = TrainConfig(steps=1500, batch=256)
models = {
    "I-FM": train_flow(init, target, partial(couple_independent, target), cfg,
                       rng.child(3)),
    "SD-FM": train_flow(init, target, partial(assign_batch, pot), cfg,
                        rng.child(3)),
}

probe = rng.child(4).generator().standard_normal((1024, 2))
ref = data[rng.child(5).generator().choice(len(data), 1024, replace=False)]
print(f"\n{'model':<8} {'steps':>6} {'curvature':>11} {'W2 to data':>11}")
endpoints = {}
for name, model in models.items():
    for steps in (4, 8, 16):
        x1, vels = integrate(model, probe, method="euler", steps=steps)
        w2 = empirical_w2(x1, ref)
        print(f"{name:<8} {steps:>6} {curvature(probe, x1, vels):>11.4f} {w2:>11.4f}")
        if steps == 8:
            endpoints[name] = x1

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(12, 4))
    axes[0].scatter(data[:, 0], data[:, 1], s=3)
    axes[0].set_title("target")
    for ax, (name, pts) in zip(axes[1:], endpoints.items()):
        ax.scatter(pts[:, 0], pts[:, 1], s=3)
        ax.set_title(f"{name} (Euler 8)")
    for ax in axes:
        ax.set_aspect("equal")
        ax.set_xlim(-4.5, 4.5)
        ax.set_ylim(-4.5, 4.5)
    fig.tight_layout()
    fig.savefig("demos_flow_lab.png", dpi=120)
    print("\nwrote demos_flow_lab.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the figure")

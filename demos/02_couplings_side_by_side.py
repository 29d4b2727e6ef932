"""Compare the three pairing engines on the same noise batch.

Pairs one batch of Gaussian noise with a small 2-d dataset using the
independent coupling, minibatch OT (Hungarian and Sinkhorn), and the
semidiscrete assignment, then prints each coupling's mean transport cost
and pairing time. Saves a scatter figure when matplotlib is available.

Run:  python demos/02_couplings_side_by_side.py
"""

import time
from functools import partial

import numpy as np

from sdfm import (
    CostConfig,
    Rng,
    SolverConfig,
    TargetMeasure,
    assign_batch,
    couple_independent,
    couple_minibatch_ot,
    solve_sdot,
)

rng = Rng(7)
gen = rng.generator()

n_data, n_noise = 512, 512
angles = 2.0 * np.pi * np.arange(8) / 8.0
centers = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
data = centers[gen.integers(0, 8, n_data)] + 0.3 * gen.standard_normal((n_data, 2))
target = TargetMeasure.from_points(data)
noise = gen.standard_normal((n_noise, 2))

# Semidiscrete potential, fitted once up front.
pot = solve_sdot(
    target,
    CostConfig(kind="neg-dot", eps_raw=0.0),
    SolverConfig(base_lr=1.0, constant_phase=6000, decay_phase=3000,
                 averaging_window=2000, batch=256, tau=0.05,
                 check_interval=1000, chi2_batch=2**12, chi2_total=2**14),
    rng.child(1),
)

# Each engine maps (noise, rng) to the target index of every noise row.
engines = {
    "independent": (partial(couple_independent, target), rng.child(2)),
    "minibatch-hungarian": (partial(couple_minibatch_ot, target, 0.0),
                            rng.child(3)),
    "minibatch-sinkhorn": (partial(couple_minibatch_ot, target, 0.5),
                           rng.child(4)),
    "semidiscrete": (partial(assign_batch, pot), rng.child(5)),
}

print(f"{'coupling':<22} {'mean |x1-x0|^2':>15} {'us/pair':>10}")
partners = {}
for name, (pair, pair_rng) in engines.items():
    t0 = time.perf_counter()
    idx = pair(noise, pair_rng)
    tpp = (time.perf_counter() - t0) / n_noise * 1e6
    partners[name] = data[idx]
    sq = float(np.mean(np.sum((partners[name] - noise) ** 2, axis=1)))
    print(f"{name:<22} {sq:>15.4f} {tpp:>10.2f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, len(partners), figsize=(4 * len(partners), 4))
    for ax, (name, x1) in zip(axes, partners.items()):
        show = slice(0, 128)
        segs = np.stack([noise[show], x1[show]], axis=1)
        for seg in segs:
            ax.plot(seg[:, 0], seg[:, 1], lw=0.4, color="grey", zorder=1)
        ax.scatter(data[:, 0], data[:, 1], s=4, color="tab:orange", zorder=2)
        ax.scatter(noise[show, 0], noise[show, 1], s=4,
                   color="tab:blue", zorder=3)
        ax.set_title(name)
        ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig("demos_couplings.png", dpi=120)
    print("\nwrote demos_couplings.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the figure")

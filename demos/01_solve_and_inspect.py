"""Fit a semidiscrete dual potential on a toy target and inspect it.

Walks the basic pipeline on a 2-d two-cluster target: fit the potential
with the chi-square stopping rule, look at the convergence series, and
check the fitted marginal against the target weights.

Run:  python demos/01_solve_and_inspect.py
"""

import numpy as np

from sdfm import (
    CostConfig,
    Rng,
    SolverConfig,
    TargetMeasure,
    chi2_exact,
    solve_sdot,
)
from sdfm.semidual import chi2_batches

rng = Rng(0)
gen = rng.generator()

# A lopsided two-cluster target: 3/4 of the mass on the right cluster.
n = 256
right = gen.standard_normal((3 * n // 4, 2)) * 0.25 + np.array([2.0, 0.0])
left = gen.standard_normal((n // 4, 2)) * 0.25 + np.array([-2.0, 0.0])
target = TargetMeasure.from_points(np.vstack([right, left]))

cost = CostConfig(kind="neg-dot", eps_raw=0.0)
cfg = SolverConfig(
    optimizer="adagrad",
    base_lr=1.0,
    constant_phase=4000,
    decay_phase=2000,
    averaging_window=1500,
    batch=256,
    tau=0.02,
    check_interval=500,
    chi2_batch=2**12,
    chi2_total=2**14,
)
pot = solve_sdot(target, cost, cfg, rng.child(1))

print("stop reason:       ", pot.provenance["stop_reason"])
print("iterations:        ", pot.provenance["iterations"])
print("final chi-square:  ", f"{pot.provenance['final_chi2']:.5f}")
print("chi-square series:")
for k, value in pot.provenance["chi2_history"]:
    print(f"  step {k:>6d}   {value:.5f}")

# The fitted marginal should match the target weights (uniform here).
m = chi2_batches(pot, rng.child(2), 2**16, 2**13).marginal
print("\nmarginal check:")
print("  TV(m, b)       =", f"{0.5 * np.abs(m - target.weights).sum():.5f}")
print("  chi2(m, b)     =", f"{chi2_exact(m, target.weights):.5f}")
print("  potential range=", f"[{pot.g.min():.3f}, {pot.g.max():.3f}]")

"""Semidiscrete optimal-transport couplings for flow matching.

Fit one dual potential value per dataset point by stochastic ascent with
a chi-square stopping rule, then pair fresh noise to data in O(N) at
training time. Includes baseline couplings (independent, minibatch OT),
exact small-instance oracles, and a toy flow-matching laboratory with
score recovery and guidance resampling.
"""

from .numerics import Rng
from .costs import (
    CostConfig,
    ProjectionMatrix,
    cost_matrix,
    estimate_cost_std,
    fit_pca,
)
from .semidual import (
    DiscreteNoise,
    GaussianNoise,
    Potential,
    TargetMeasure,
    chi2_estimator,
    chi2_exact,
    semidual_value,
    stochastic_gradient,
)
from .solver import SolverConfig, lr_schedule, smoothness_bound, solve_sdot
from .coupling import (
    PairBatch,
    assign_batch,
    couple_independent,
    couple_minibatch_ot,
    hungarian,
    laguerre_contains,
    oracle_discrete_ot,
    sinkhorn_log,
)
from .flow import (
    FlowModel,
    GuidanceConfig,
    IndependentCoupling,
    MinibatchOTCoupling,
    SDCoupling,
    TrainConfig,
    Trajectory,
    curvature,
    delta_eps_toy,
    fm_loss_and_grad,
    guided_sample,
    integrate,
    interpolate,
    score_from_velocity,
    train_flow,
)
from .container import MetricsWriter, read_container, write_container

__version__ = "0.1.0"

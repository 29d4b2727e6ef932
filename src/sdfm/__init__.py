"""Semidiscrete optimal-transport couplings for flow matching.

Fit one dual potential value per dataset point by stochastic ascent with
a chi-square stopping rule, then pair fresh noise to data in O(N) at
training time. Includes baseline couplings (independent, minibatch OT)
and a toy flow-matching laboratory with score recovery and guidance
resampling.
"""

from .numerics import Rng
from .costs import CostConfig
from .semidual import TargetMeasure, chi2_exact
from .solver import SolverConfig, solve_sdot
from .coupling import assign_batch, couple_independent, couple_minibatch_ot
from .flow import (
    FlowModel,
    GuidanceConfig,
    TrainConfig,
    curvature,
    guided_sample,
    integrate,
    score_from_velocity,
    train_flow,
)

__version__ = "0.1.0"

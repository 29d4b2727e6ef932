"""Stochastic maximization of the semidual objective.

Plain averaged SGD with the theory-mode learning rates, or AdaGrad
(constant learning rate for a first phase, inverse-square-root decay
afterwards, iterate averaging over a trailing window). Convergence is
monitored through the unbiased chi-square estimator on a dedicated
evaluation stream, never the training stream, so the stopping decision
is independent of the optimization noise. Each check is one scan of that
stream: the tiles that give the chi-square statistic also give the
semidual estimate that the divergence guard watches and the marginal
behind the final convergence diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import pdist

from .costs import NEG_DOT, ConfigurationError, CostConfig
from .numerics import Rng
from .semidual import (
    GaussianNoise,
    Potential,
    TargetMeasure,
    _soft_c_and_marginal,
    chi2_batches,
    chi2_exact,
    gauge_fix,
    semidual_value,
    stochastic_gradient,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolverDivergence",
    "solve_sdot",
    "lr_schedule",
    "smoothness_bound",
    "estimate_delta",
]

SGD_CONSTANT = "sgd-constant"
SGD_DECAY = "sgd-decay"
ADAGRAD = "adagrad"

_ADAGRAD_FLOOR = 1e-10


class SolverDivergence(RuntimeError):
    """Semidual estimate collapsed; carries diagnostics in ``info``."""

    def __init__(self, msg: str, info: dict):
        super().__init__(msg)
        self.info = info


@dataclass(frozen=True)
class SolverConfig:
    """Optimization schedule and stopping rule.

    Defaults: AdaGrad, a constant phase of two thirds of the budget,
    inverse-square-root decay for the rest, and averaging over the final
    quarter. The base learning rate defaults to sqrt(N), a large-scale
    heuristic that is far too large at eps=0 on desk problems: on
    eight-gaussians (N=4096, batch 1024) a base rate of 0.05 reaches
    tau=0.05 where 0.5 does not (see README). Every ``check_interval``
    iterations one streamed scan of ``chi2_total`` evaluation rows, in
    batches of ``chi2_batch``, gives both the stopping statistic and the
    semidual estimate of the divergence guard.
    """

    optimizer: str = ADAGRAD
    base_lr: Optional[float] = None  # default sqrt(N), bound at solve time
    constant_phase: int = 20_000
    decay_phase: int = 10_000
    averaging_window: int = 7_500
    batch: int = 256
    tau: float = 0.05
    check_interval: int = 2_000
    theory_delta: Optional[float] = None
    theory_smoothness: Optional[float] = None
    chi2_batch: int = 2**12
    chi2_total: int = 2**16

    def __post_init__(self):
        if self.optimizer not in (SGD_CONSTANT, SGD_DECAY, ADAGRAD):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.tau <= 0.0:
            raise ConfigurationError("stopping threshold tau must be > 0")
        if self.base_lr is not None and not self.base_lr > 0.0:
            raise ConfigurationError("base learning rate must be > 0")
        if self.constant_phase < 0 or self.decay_phase < 0:
            raise ConfigurationError("phase lengths must be >= 0")
        if self.max_iterations < 1:
            raise ConfigurationError("need at least one iteration")
        if not (1 <= self.averaging_window <= self.max_iterations):
            raise ConfigurationError(
                "averaging_window must lie in [1, constant_phase + decay_phase]"
            )
        if self.batch < 1 or self.check_interval < 1:
            raise ConfigurationError("batch and check_interval must be >= 1")
        if self.chi2_batch < 2 or self.chi2_total < self.chi2_batch:
            raise ConfigurationError("need chi2_total >= chi2_batch >= 2")

    @property
    def max_iterations(self) -> int:
        return self.constant_phase + self.decay_phase

    def scaled(self, iterations: int) -> "SolverConfig":
        """Same recipe rescaled to a total budget of ``iterations``."""
        if iterations < 1:
            raise ConfigurationError("need at least one iteration")
        const = max(1, (2 * iterations) // 3)
        decay = max(0, iterations - const)
        window = max(1, iterations // 4)
        return replace(self, constant_phase=const, decay_phase=decay,
                       averaging_window=window)


@dataclass
class SolverState:
    """Mutable solver internals; single writer."""

    g: np.ndarray
    accumulator: np.ndarray
    iteration: int = 0
    chi2_history: list = field(default_factory=list)
    window: np.ndarray = None  # ring buffer of the last W iterates
    window_fill: int = 0
    window_pos: int = 0

    def push(self, g: np.ndarray) -> None:
        self.window[self.window_pos] = g
        self.window_pos = (self.window_pos + 1) % self.window.shape[0]
        self.window_fill = min(self.window_fill + 1, self.window.shape[0])

    def averaged(self) -> np.ndarray:
        """Exact arithmetic mean of the last min(k, W) iterates."""
        if self.window_fill == 0:
            return self.g.copy()
        return self.window[: self.window_fill].mean(axis=0)


def lr_schedule(cfg: SolverConfig, k: int) -> float:
    """Learning rate at iteration ``k`` (0-based).

    Theory modes need ``theory_delta`` and ``theory_smoothness``:
    ``sgd-constant`` uses sqrt(Delta / (L K)) for the whole run and
    ``sgd-decay`` uses sqrt(Delta / (L max(k, 1))). AdaGrad returns the
    base rate during the constant phase, then decays it by
    sqrt(constant_phase / k); the per-coordinate division by the root of
    the gradient accumulator happens in the update itself.
    """
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    if cfg.optimizer in (SGD_CONSTANT, SGD_DECAY):
        if cfg.theory_delta is None or cfg.theory_smoothness is None:
            raise ConfigurationError(
                "theory schedules need theory_delta and theory_smoothness"
            )
        delta, smooth = cfg.theory_delta, cfg.theory_smoothness
        if cfg.optimizer == SGD_CONSTANT:
            return float(np.sqrt(delta / (smooth * cfg.max_iterations)))
        return float(np.sqrt(delta / (smooth * max(k, 1))))
    base = cfg.base_lr if cfg.base_lr is not None else 1.0
    if k < cfg.constant_phase or cfg.constant_phase == 0:
        return float(base)
    return float(base * np.sqrt(cfg.constant_phase / k))


def smoothness_bound(support: np.ndarray, eps: float) -> float:
    """Gradient-smoothness constant of the semidual.

    ``eps > 0`` gives ``1/eps`` for any cost. ``eps = 0`` (negative dot
    product cost, standard normal noise) gives ``4 d^{1/4} / delta`` for
    the ``(N, d)`` coupling-space ``support`` (:attr:`Potential.support`),
    with ``delta`` the minimum pairwise distance among its points;
    duplicate points make the bound infinite and raise.
    """
    if eps > 0.0:
        return 1.0 / eps
    if support.shape[0] == 1:
        raise ConfigurationError(
            "eps=0 smoothness bound needs at least 2 distinct points")
    delta = float(pdist(support).min())  # O(N^2) scan, desk scale only
    if delta <= 0.0:
        raise ConfigurationError("duplicate target points: eps=0 bound undefined")
    return float(4.0 * support.shape[1]**0.25 / delta)


def estimate_delta(target: TargetMeasure, cost: CostConfig, rng: Rng,
                   samples: int = 10_000, noise=None) -> float:
    """Probe |F(0)| as a stand-in for the unknowable optimality gap."""
    pot = Potential(g=np.zeros(target.n), target=target, cost=cost)
    if noise is None:
        noise = GaussianNoise(target)
    return abs(_semidual_probe(pot, rng, noise, samples))


def _is_exact(noise) -> bool:
    return getattr(noise, "exact", False) and noise.enumerate() is not None


def _noise_batch(noise, rng: Rng, samples: int):
    """``(x, weights)``: the whole weighted atom list of exact noise,
    otherwise ``samples`` unweighted draws from ``rng``."""
    if _is_exact(noise):
        return noise.enumerate()
    return noise.sample(rng, samples), None


def _chi2_check(pot: Potential, rng: Rng, cfg: SolverConfig, noise):
    """One scan of the evaluation stream: ``(chi2, semidual, marginal)``.

    The stopping statistic, the estimate of ``F_eps(g)`` from the soft-c
    transform of the same rows, and the second-marginal estimate. Exact
    sums over enumerable noise, ``chi2_total`` streamed rows otherwise.
    """
    b = pot.target.weights
    if _is_exact(noise):
        ef, m = _soft_c_and_marginal(pot, *noise.enumerate())
        return chi2_exact(m, b), ef + float(np.dot(b, pot.g)), m
    scan = chi2_batches(pot, rng, cfg.chi2_total, cfg.chi2_batch, noise)
    value = scan.soft_c_mean + float(np.dot(b, pot.g))
    return float(np.mean(scan.values)), value, scan.marginal


def _require_finite(v: np.ndarray, what: str, k: int) -> None:
    if not np.all(np.isfinite(v)):
        raise SolverDivergence(f"non-finite {what} at iteration {k}",
                               {"iteration": k, "what": what})


def solve_sdot(
    target: TargetMeasure,
    cost: CostConfig,
    cfg: SolverConfig,
    rng: Rng,
    noise=None,
    metrics=None,
    checkpoint_cb: Optional[Callable[[int, Potential, float], None]] = None,
) -> Potential:
    """Fit the semidiscrete dual potential by stochastic ascent.

    Runs until the chi-square statistic of the gauge-fixed averaged
    iterate drops to ``cfg.tau`` at a check point, or the iteration
    budget is exhausted. Returns the averaged, gauge-fixed potential with
    provenance (iterations, final chi-square, averaging window, stop
    reason, wall time, and two diagnostics of the final check's marginal
    estimate: ``final_marginal_linf = N max_j |m_j - b_j|`` and the
    ``empty_cell_fraction`` of target points with ``m_j = 0``).
    Deterministic given ``(target, cost, cfg, rng)``.

    ``noise`` defaults to standard Gaussian noise in the target's raw
    space; pass a :class:`DiscreteNoise` for enumerated instances.
    ``checkpoint_cb(iteration, potential, chi2)`` fires at every check.
    The iteration starts from the zero vector.
    """
    if noise is None:
        noise = GaussianNoise(target)
    if cost.eps_raw == 0.0 and cost.kind != NEG_DOT:
        raise ConfigurationError("eps=0 requires the negative dot-product cost")
    b = target.weights
    n = target.n
    state = SolverState(
        g=np.zeros(n),
        accumulator=np.zeros(n),
        window=np.zeros((cfg.averaging_window, n)),
    )
    # The step potential aliases state.g, which every step updates in
    # place, so its support is embedded once for the whole run.
    pot_step = Potential(g=state.g, target=target, cost=cost)
    if cfg.optimizer in (SGD_CONSTANT, SGD_DECAY) and (
        cfg.theory_delta is None or cfg.theory_smoothness is None
    ):
        # Bind the theory constants once so the schedule is well defined.
        delta = cfg.theory_delta
        if delta is None:
            delta = estimate_delta(target, cost, rng.child(2), noise=noise)
        smooth = cfg.theory_smoothness
        if smooth is None:
            smooth = smoothness_bound(pot_step.support, cost.eps)
        cfg = replace(cfg, theory_delta=delta, theory_smoothness=smooth)
    if cfg.base_lr is None and cfg.optimizer == ADAGRAD:
        cfg = replace(cfg, base_lr=float(np.sqrt(target.n)))

    train = rng.child(0)
    evaluate = rng.child(1)
    t0 = time.perf_counter()

    def candidate() -> Potential:
        g = gauge_fix(state.averaged(), b)
        _require_finite(g, "averaged potential", state.iteration)
        return Potential(g=g, target=target, cost=cost,
                         provenance={"iterations": state.iteration})

    stop_reason = "max_iterations"
    final_chi2 = np.inf
    initial_value = None
    k = 0
    while True:
        if k % cfg.check_interval == 0 or k >= cfg.max_iterations:
            pot_k = candidate()
            chi2_k, value_k, m_k = _chi2_check(pot_k, evaluate.child(k), cfg,
                                               noise)
            state.chi2_history.append((k, chi2_k))
            lr_k = lr_schedule(cfg, min(k, cfg.max_iterations - 1))
            if metrics is not None:
                wall = (time.perf_counter() - t0) * 1e3
                metrics.log(k, "chi2", chi2_k, wall_ms=wall)
                metrics.log(k, "semidual", value_k, wall_ms=wall)
                metrics.log(k, "lr", lr_k, wall_ms=wall)
            if checkpoint_cb is not None:
                checkpoint_cb(k, pot_k, chi2_k)
            if initial_value is None:
                initial_value = value_k
            elif value_k < initial_value - 10.0 * max(abs(initial_value), 1e-9):
                raise SolverDivergence(
                    "semidual estimate collapsed",
                    {"iteration": k, "initial": initial_value, "current": value_k,
                     "lr": lr_k, "chi2": chi2_k},
                )
            final_chi2 = chi2_k
            if chi2_k <= cfg.tau:
                stop_reason = "tau"
                break
            if k >= cfg.max_iterations:
                stop_reason = "max_iterations"
                break
        # One stochastic ascent step.
        grad = stochastic_gradient(pot_step,
                                   *_noise_batch(noise, train.child(k), cfg.batch))
        _require_finite(grad, "gradient", k)
        lr = lr_schedule(cfg, k)
        if cfg.optimizer == ADAGRAD:
            state.accumulator += grad * grad
            denom = np.sqrt(np.maximum(state.accumulator, _ADAGRAD_FLOOR))
            state.g += lr * grad / denom
        else:
            state.g += lr * grad
        _require_finite(state.g, "potential", k)
        state.push(state.g)
        k += 1
        state.iteration = k

    pot = candidate()
    pot.provenance.update(
        iterations=state.iteration,
        final_chi2=final_chi2,
        averaging_window=min(cfg.averaging_window, max(state.iteration, 1)),
        stop_reason=stop_reason,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        optimizer=cfg.optimizer,
        base_lr=cfg.base_lr,
        tau=cfg.tau,
        chi2_history=list(state.chi2_history),
        final_marginal_linf=float(n * np.max(np.abs(m_k - b))),
        empty_cell_fraction=float(np.mean(m_k == 0.0)),
        cost=cost.metadata(),
    )
    return pot


def _semidual_probe(pot: Potential, rng: Rng, noise, samples: int = 4096) -> float:
    return semidual_value(pot, *_noise_batch(noise, rng, samples))

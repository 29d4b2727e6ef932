"""Stochastic maximization of the semidual objective.

AdaGrad (Duchi, Hazan & Singer 2011) with a constant phase and then
inverse-square-root decay, averaged over a trailing window. Convergence
is monitored through the unbiased chi-square estimator on a dedicated
evaluation stream, never the training stream. Each check is one scan of
that stream: it gives the stopping statistic, the semidual estimate of
the divergence guard and the marginal diagnostics. AdaGrad halves its
base rate at a constant-phase check that fails to halve the chi-square.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .costs import NEG_DOT, ConfigurationError, CostConfig
from .numerics import Rng
from .semidual import (
    GaussianNoise,
    Potential,
    TargetMeasure,
    chi2_batches,
    gauge_fix,
    semidual_value,
    stochastic_gradient,
)

__all__ = [
    "SolverConfig",
    "SolverDivergence",
    "solve_sdot",
    "lr_schedule",
]

_ADAGRAD_FLOOR = 1e-10
_HALF = 0.5  # the chi-square must halve per check, or AdaGrad's rate does


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
    quarter. ``base_lr`` is AdaGrad's starting rate: the solver halves
    it at every constant-phase check whose chi-square is not below half
    the previous check's. The constant phase holds at least one
    iteration. Every ``check_interval`` iterations one streamed scan of
    ``chi2_total`` evaluation rows, in batches of ``chi2_batch``, gives
    the stopping statistic, the semidual estimate of the divergence guard
    and the marginal diagnostics.
    """

    base_lr: float = 1.0
    constant_phase: int = 20_000
    decay_phase: int = 10_000
    averaging_window: int = 7_500
    batch: int = 256
    tau: float = 0.05
    check_interval: int = 2_000
    chi2_batch: int = 2**12
    chi2_total: int = 2**16

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ConfigurationError("stopping threshold tau must be > 0")
        if not 0.0 < self.base_lr < np.inf:
            raise ConfigurationError("base learning rate must be finite and > 0")
        if self.constant_phase < 1 or self.decay_phase < 0:
            raise ConfigurationError(
                "need constant_phase >= 1 and decay_phase >= 0")
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


def lr_schedule(cfg: SolverConfig, k: int) -> float:
    """AdaGrad's learning rate at iteration ``k`` (0-based).

    The base rate during the constant phase, then decayed by
    sqrt(constant_phase / k); the per-coordinate division by the root of
    the gradient accumulator happens in the update itself.
    """
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    if k < cfg.constant_phase:
        return float(cfg.base_lr)
    return float(cfg.base_lr * np.sqrt(cfg.constant_phase / k))


def _chi2_check(pot: Potential, rng: Rng, cfg: SolverConfig, noise):
    """One scan of the evaluation stream: ``(chi2, semidual, marginal)``.

    The stopping statistic, the estimate of ``F_eps(g)`` from the soft-c
    transform of the same rows, and the second-marginal estimate, over
    ``chi2_total`` streamed rows in batches of ``chi2_batch``
    (:func:`~sdfm.semidual.chi2_batches`).
    """
    scan = chi2_batches(pot, rng, cfg.chi2_total, cfg.chi2_batch, noise)
    value = scan.soft_c_mean + float(np.dot(pot.target.weights, pot.g))
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
    budget is exhausted. An estimate at its floor of -1 (no two
    evaluation rows share a cell at eps=0) never stops the run. Every
    check logs ``chi2``, ``semidual``, ``marginal_linf = N max_j |m_j -
    b_j|`` of its marginal estimate ``m``, the ``empty_cell_fraction`` of
    target points with ``m_j = 0``, and ``lr``, the rate after its
    halving decision, then flushes them.
    Returns the averaged, gauge-fixed potential with provenance
    (iterations, final chi-square, averaging window, stop reason, wall
    time, ``lr_halvings``, and the final check's ``final_marginal_linf``
    and ``empty_cell_fraction``). Deterministic given ``(target, cost,
    cfg, rng)``. The window is kept as one running sum from each check's
    window start: at most ``ceil(averaging_window / check_interval) + 2``
    vectors of length N, whatever the budget.

    ``noise`` defaults to standard Gaussian noise in the target's raw
    space; any ``sample(rng, n) -> rows`` source may stand in.
    ``checkpoint_cb(iteration, potential, chi2)`` fires at every check.
    The iteration starts from the zero vector.
    """
    if noise is None:
        noise = GaussianNoise(target)
    if cost.eps_raw == 0.0 and cost.kind != NEG_DOT:
        raise ConfigurationError("eps=0 requires the negative dot-product cost")
    b = target.weights
    n = target.n
    g = np.zeros(n)
    accumulator = np.zeros(n)
    window = cfg.averaging_window
    runs = {}  # window start -> sum of the iterates up to the next start
    # The step potential aliases g, which every step updates in place, so
    # its support is embedded once for the whole run.
    pot_step = Potential(g=g, target=target, cost=cost)
    train = rng.child(0)
    evaluate = rng.child(1)
    t0 = time.perf_counter()

    chi2_history = []
    halvings = 0
    initial_value = None
    k = 0
    while True:
        if k % cfg.check_interval == 0 or k >= cfg.max_iterations:
            runs = {s: v for s, v in runs.items() if s >= k - window}
            g_bar = sum(runs.values(), np.zeros(n)) / max(min(k, window), 1)
            _require_finite(g_bar, "averaged potential", k)
            pot_k = Potential(g=gauge_fix(g_bar, b), target=target, cost=cost,
                              provenance={"iterations": k})
            chi2_k, value_k, m_k = _chi2_check(pot_k, evaluate.child(k), cfg,
                                               noise)
            lr_k = _HALF**halvings * lr_schedule(cfg, min(k, cfg.max_iterations - 1))
            converged = -1.0 < chi2_k <= cfg.tau
            done = converged or k >= cfg.max_iterations
            if (chi2_history and not done and k < cfg.constant_phase
                    and not chi2_k < _HALF * chi2_history[-1][1]):
                halvings += 1
                lr_k *= _HALF
            chi2_history.append((k, chi2_k))
            diagnostics = {"chi2": chi2_k, "semidual": value_k,
                           "marginal_linf": float(n * np.max(np.abs(m_k - b))),
                           "empty_cell_fraction": float(np.mean(m_k == 0.0)),
                           "lr": lr_k}
            if metrics is not None:
                wall = (time.perf_counter() - t0) * 1e3
                for name, value in diagnostics.items():
                    metrics.log(k, name, value, wall_ms=wall)
                metrics.flush()  # on disk before the next iteration
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
            if done:
                break
        # One stochastic ascent step.
        grad = stochastic_gradient(pot_step, noise.sample(train.child(k), cfg.batch))
        _require_finite(grad, "gradient", k)
        lr = _HALF**halvings * lr_schedule(cfg, k)
        accumulator += grad * grad
        g += lr * grad / np.sqrt(np.maximum(accumulator, _ADAGRAD_FLOOR))
        _require_finite(g, "potential", k)
        end = k + window  # the check whose window starts here
        if k == 0 or end == cfg.max_iterations or (
                end < cfg.max_iterations and end % cfg.check_interval == 0):
            run = runs[k] = np.zeros(n)
        run += g
        k += 1

    pot_k.provenance.update(
        iterations=k,
        final_chi2=chi2_k,
        averaging_window=min(window, max(k, 1)),
        stop_reason="tau" if converged else "max_iterations",
        wall_ms=(time.perf_counter() - t0) * 1e3,
        base_lr=cfg.base_lr,
        lr_halvings=halvings,
        tau=cfg.tau,
        chi2_history=chi2_history,
        final_marginal_linf=diagnostics["marginal_linf"],
        empty_cell_fraction=diagnostics["empty_cell_fraction"],
        cost=cost.metadata(),
    )
    return pot_k


# Nothing calls this; perfbench/tracing.py's NAMED table resolves it by name.
def _semidual_probe(pot: Potential, rng: Rng, noise, samples: int) -> float:
    return semidual_value(pot, noise.sample(rng, samples))

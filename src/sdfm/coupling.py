"""Pairing engines: semidiscrete assignment and baselines.

The production path is :func:`assign_batch`: an O(N d) scan over the
target scores ``g_j - c(x, y_j)``. At ``eps = 0`` this is a maximum inner
product search with a ``b``-weighted draw over ties; for ``eps > 0`` it
is a categorical draw from the responsibilities. Baselines cover the
independent coupling and minibatch OT (log-domain Sinkhorn or Hungarian).
Every pairing engine returns one thing, the target index of each noise
row, so a training loop takes any of them as ``pair(noise, rng)``.
"""

from __future__ import annotations

import numpy as np

from .costs import SQ_EUCLIDEAN, CostConfig, cost_matrix
from .numerics import Rng, inverse_cdf, softmax_b_eps_rows
from .semidual import Potential, TargetMeasure, argmax_chunks, score_chunks

__all__ = [
    "SinkhornError",
    "assign_batch",
    "couple_independent",
    "couple_minibatch_ot",
    "sinkhorn_log",
    "hungarian",
]

class SinkhornError(RuntimeError):
    """Sinkhorn failed to reach the marginal tolerance; carries residual."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


def assign_batch(pot: Potential, noise: np.ndarray, rng: Rng) -> np.ndarray:
    """Target index of each raw noise row, by the O(N) scan.

    ``eps = 0``: argmax of ``g_k - c(x, y_k)``, with a ``b``-weighted draw
    over exact ties; ``eps > 0``: categorical draw from the exp rows of the
    scan's exponents. Row ``i`` draws with the ``i``-th uniform of
    ``rng.generator().random(n)``, so it depends only on ``(rng, i)`` and
    its noise row, never on the batch size. Maps over the slabs of the one
    scan loop, :func:`~sdfm.semidual.score_chunks` (at eps=0 through
    :func:`~sdfm.semidual.argmax_chunks`, whose float32 scores give the
    float64 argmax), so the scan holds at most the larger of 1 MiB and 4 d
    N scores whatever the batch size.
    """
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    u = rng.generator().random(len(noise))
    idx = np.empty(len(noise), dtype=np.int64)
    if pot.eps == 0.0:
        for lo, hi, (part, tie_rows, tie_weights), _ in argmax_chunks(pot, noise):
            if tie_rows.size:
                part[tie_rows] = inverse_cdf(tie_weights, u[lo + tie_rows])
            idx[lo:hi] = part
        return idx
    for lo, hi, scores in score_chunks(pot, noise):
        softmax_b_eps_rows(scores, pot.eps)
        idx[lo:hi] = inverse_cdf(scores, u[lo:hi])
    return idx


def couple_independent(target: TargetMeasure, noise: np.ndarray,
                       rng: Rng) -> np.ndarray:
    """One index per noise row, drawn i.i.d. from the target weights."""
    return rng.generator().choice(target.n, size=len(np.atleast_2d(noise)),
                                  p=target.weights)


# ---------------------------------------------------------------------------
# Log-domain Sinkhorn

def sinkhorn_log(costs: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float,
                 tol: float = 1e-6, max_sweeps: int = 10_000):
    """Dense log-domain Sinkhorn at the requested ``eps``, from zero potentials.

    Alternates the dual updates

        f_i = -eps * LSE_j((g_j - C_ij)/eps + log b_j)
        g_j = -eps * LSE_i((f_i - C_ij)/eps + log a_i)

    until the L1 marginal error falls below ``tol``. The column update
    zeroes the column residual by construction, and the row residual of
    the current plan falls out of the next f update for free:
    ``row_sum_i = a_i exp((f_i - f_new_i)/eps)``. Raises :class:`SinkhornError`
    if the sweep budget runs out, or if the plan's row error exceeds ``10 *
    tol`` (at a tiny eps that residual rounds to 0). Returns ``(plan, f, g,
    sweeps)``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if eps <= 0.0:
        raise ValueError("Sinkhorn requires eps > 0")
    log_a = np.log(a)[:, None]
    log_b = np.log(b)[None, :]
    m, n = costs.shape
    f = np.zeros(m)
    g = np.zeros(n)
    scaled = costs / eps
    buf = np.empty_like(costs)

    def transform(h, log_w, axis):
        # buf <- (h - C)/eps + log_w reduced over ``axis`` by a stable LSE,
        # h and log_w laid along that axis: g and log b as rows give the f
        # update, f and log a as columns the g update.
        np.subtract(h / eps, scaled, out=buf)
        np.add(buf, log_w, out=buf)
        mx = buf.max(axis=axis, keepdims=True)
        np.subtract(buf, mx, out=buf)
        np.exp(buf, out=buf)
        return -eps * (mx.ravel() + np.log(buf.sum(axis=axis)))

    row_err = np.inf
    for sweeps in range(max_sweeps):
        f_new = transform(g[None, :], log_b, 1)
        if sweeps:  # the zero start has no column update to measure
            with np.errstate(over="ignore"):
                row_err = float(np.abs(a * np.expm1((f - f_new) / eps)).sum())
            if row_err <= tol:
                log_plan = (f[:, None] + g[None, :]) / eps - scaled + log_a + log_b
                with np.errstate(over="ignore"):
                    plan = np.exp(log_plan)
                plan_err = float(np.abs(plan.sum(axis=1) - a).sum())
                if not plan_err <= 10 * tol:  # also a non-finite plan
                    raise SinkhornError(f"plan row error {plan_err:.3e} at "
                                        f"residual {row_err:.3e}", plan_err)
                return plan, f, g, sweeps
        f = f_new
        g = transform(f[:, None], log_a, 0)
    raise SinkhornError(
        f"no convergence within {max_sweeps} sweeps (residual {row_err:.3e})",
        residual=float(row_err),
    )


def hungarian(costs: np.ndarray):
    """Minimum-cost perfect matching on a square cost matrix.

    Returns ``(assignment, total)`` where ``assignment[i]`` is the column
    matched to row ``i``. A non-finite cost (a NaN or infinite row, say
    from a diverged model's dump) raises :class:`FloatingPointError`.
    """
    from scipy.optimize import linear_sum_assignment

    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError("hungarian expects a square cost matrix")
    if not np.isfinite(costs).all():
        raise FloatingPointError("matching costs hold a non-finite entry")
    rows, assignment = linear_sum_assignment(costs)
    return assignment, float(costs[rows, assignment].sum())


def couple_minibatch_ot(target: TargetMeasure, eps: float, noise: np.ndarray,
                        rng: Rng) -> np.ndarray:
    """Minibatch OT baseline: match ``n`` noise rows to ``n`` fresh data rows.

    Both solve the squared-Euclidean problem between the noise rows and
    ``n`` data rows drawn from the target weights. ``eps == 0`` uses the
    optimal permutation (Hungarian); ``eps > 0`` runs Sinkhorn at that
    absolute eps (the CLI passes ``CostConfig.eps``) and draws each row's
    partner from its row of the plan.
    """
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    n = len(noise)
    gen = rng.generator()
    data_idx = gen.choice(target.n, size=n, p=target.weights)
    c = cost_matrix(CostConfig(kind=SQ_EUCLIDEAN), noise,
                    target.points[data_idx])
    if eps == 0.0:
        local, _ = hungarian(c)
    else:
        marg = np.full(n, 1.0 / n)
        plan, _, _, _ = sinkhorn_log(c, marg, marg, eps)
        local = inverse_cdf(plan, gen.random(n))
    return data_idx[local]

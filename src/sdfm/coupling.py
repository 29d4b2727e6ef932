"""Pairing engines: semidiscrete assignment and baselines.

The production path is :func:`assign_batch`: an O(N d) scan over the
target scores ``g_j - c(x, y_j)``. At ``eps = 0`` this is a maximum inner
product search with a ``b``-weighted draw over ties; for ``eps > 0`` it
is a categorical draw from the responsibilities. Baselines cover the
independent coupling and minibatch OT: Hungarian, or Sinkhorn by matrix
scaling with log-domain anchoring. Every pairing engine returns the target
index of each noise row, so a training loop takes any as ``pair(noise, rngs)``.
"""

from __future__ import annotations

import numpy as np

from .costs import SQ_EUCLIDEAN, CostConfig, cost_matrix
from .numerics import inverse_cdf, rng_batches, softmax_b_eps_rows
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


def assign_batch(pot: Potential, noise: np.ndarray, rngs) -> np.ndarray:
    """Target index of each raw noise row, by the O(N) scan.

    ``eps = 0``: argmax of ``g_k - c(x, y_k)``, with a ``b``-weighted draw
    over exact ties; ``eps > 0``: categorical draw from the exp rows of the
    scan's exponents less each row's bound (or maximum): a row factor, which
    the draw's scaling by the row total cancels. Row ``i`` of a batch draws
    with the ``i``-th uniform of its ``rng``, so it depends only on ``(rng,
    i)`` and its noise row, never on the batch size or other batches. Maps
    over the slabs of the one scan loop, :func:`~sdfm.semidual.score_chunks`
    (at eps=0 through :func:`~sdfm.semidual.argmax_chunks`, whose float32
    scores give the float64 argmax), so the scan holds at most the larger of
    1 MiB and 4 d N scores whatever the batch size.
    """
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    u = np.empty(len(noise))
    for lo, hi, r in rng_batches(rngs, len(noise)):
        r.generator().random(out=u[lo:hi])
    idx = np.empty(len(noise), dtype=np.int64)
    if pot.eps == 0.0:
        for lo, hi, (part, tie_rows, tie_weights) in argmax_chunks(pot, noise):
            if tie_rows.size:
                part[tie_rows] = inverse_cdf(tie_weights, u[lo + tie_rows])
            idx[lo:hi] = part
        return idx
    for lo, hi, scores, shift in score_chunks(pot, noise):
        softmax_b_eps_rows(scores, shift)
        idx[lo:hi] = inverse_cdf(scores, u[lo:hi])
    return idx


def couple_independent(target: TargetMeasure, noise: np.ndarray,
                       rngs) -> np.ndarray:
    """One index per noise row, drawn i.i.d. from the target weights."""
    u = np.empty(len(np.atleast_2d(noise)))
    for lo, hi, r in rng_batches(rngs, len(u)):
        r.generator().random(out=u[lo:hi])
    return target.cdf.searchsorted(u, side="right")


# ---------------------------------------------------------------------------
# Sinkhorn; a new scaling outside this range, or not finite, re-anchors it
SCALING_RANGE = (1e-100, 1e100)


def sinkhorn_log(costs: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float,
                 tol: float = 1e-6, max_sweeps: int = 10_000):
    """Dense Sinkhorn at the requested ``eps``, from zero potentials.

    The dual updates ``f_i = -eps LSE_j((g_j - C_ij)/eps + log b_j)`` and
    ``g_j = -eps LSE_i((f_i - C_ij)/eps + log a_i)`` run as matrix scaling:
    the iterate is ``(f + eps log u, g + eps log v)`` on the kernel ``K_ij =
    a_i b_j exp((f_i + g_j - C_ij)/eps)`` anchored at ``(f, g)``, and a sweep
    is ``u = a / (K v)``, then ``v = b / (K^T u)``. So the columns sum to
    ``b``, the L1 marginal error is ``sum_i |u_i (K v)_i - a_i|``, and below
    ``tol`` the plan is ``u_i K_ij v_j``. An anchor step (both updates by a
    stable LSE from the current ``g``, then ``u = v = 1``) runs at sweep 0 and
    replaces any sweep whose new ``u`` or ``v`` leaves :data:`SCALING_RANGE`,
    ``[1e-100, 1e100]``, or is not finite. In exact arithmetic it gives the
    same iterate, so where a small ``eps`` underflows the kernel the sweep
    count stays. Raises :class:`SinkhornError` if the sweep budget runs out
    or the plan's row error exceeds ``10 * tol``. Returns ``(plan, f, g,
    sweeps)``.
    """
    costs, a, b = (np.asarray(x, dtype=np.float64) for x in (costs, a, b))
    if eps <= 0.0:
        raise ValueError("Sinkhorn requires eps > 0")
    log_a, log_b = np.log(a)[:, None], np.log(b)[None, :]
    lo, hi = SCALING_RANGE
    g = np.zeros(costs.shape[1])
    buf = np.empty_like(costs)  # the LSE workspace, then the kernel

    def transform(h, log_w, axis):
        # Stable LSE of (h - C)/eps + log_w over ``axis``, h and log_w laid
        # along it (rows: the f update, columns: g); exp terms stay in buf.
        np.divide(costs, -eps, out=buf)  # then h/eps - C/eps, bit for bit
        np.add(buf, h / eps, out=buf)
        np.add(buf, log_w, out=buf)
        mx = buf.max(axis=axis, keepdims=True)
        np.subtract(buf, mx, out=buf)
        np.exp(buf, out=buf)
        total = buf.sum(axis=axis)
        return -eps * (mx.ravel() + np.log(total)), total

    row_err = np.inf
    for sweeps in range(max_sweeps):
        if sweeps:  # the zero start has no column update to measure
            kv = buf @ v
            row_err = float(np.abs(u * kv - a).sum())
            if row_err <= tol:
                buf *= u[:, None]
                buf *= v
                plan_err = float(np.abs(buf.sum(axis=1) - a).sum())
                if not plan_err <= 10 * tol:  # also a non-finite plan
                    raise SinkhornError(f"plan row error {plan_err:.3e} at "
                                        f"residual {row_err:.3e}", plan_err)
                return buf, f + eps * np.log(u), g + eps * np.log(v), sweeps
            with np.errstate(divide="ignore"):
                u = a / kv
                if lo <= u.min() and u.max() <= hi:
                    v_new = b / (u @ buf)
                    if lo <= v_new.min() and v_new.max() <= hi:
                        v = v_new
                        continue
            g = g + eps * np.log(v)  # anchor at the current iterate
        f, _ = transform(g[None, :], log_b, 1)
        g, total = transform(f[:, None], log_a, 0)
        buf *= b / total  # the kernel, as exp(g_j/eps) = exp(-mx_j) / total_j
        u, v = np.ones(len(f)), np.ones(len(g))
    raise SinkhornError(f"no convergence within {max_sweeps} sweeps "
                        f"(residual {row_err:.3e})", float(row_err))


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
                        rngs) -> np.ndarray:
    """Minibatch OT baseline: match ``n`` noise rows to ``n`` fresh data rows.

    Each batch solves the squared-Euclidean problem between its noise rows
    and ``n`` data rows drawn from the target weights. ``eps == 0`` uses the
    optimal permutation (Hungarian); ``eps > 0`` runs Sinkhorn at that
    absolute eps (the CLI passes ``CostConfig.eps``) and draws each row's
    partner from its row of the plan.
    """
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    idx = np.empty(len(noise), dtype=np.int64)
    for lo, hi, rng in rng_batches(rngs, len(noise)):
        gen, n = rng.generator(), hi - lo
        data_idx = target.cdf.searchsorted(gen.random(n), side="right")
        c = cost_matrix(CostConfig(kind=SQ_EUCLIDEAN), noise[lo:hi],
                        target.points[data_idx])
        if eps == 0.0:
            local, _ = hungarian(c)
        else:
            marg = np.full(n, 1.0 / n)
            plan, _, _, _ = sinkhorn_log(c, marg, marg, eps)
            local = inverse_cdf(plan, gen.random(n))
        idx[lo:hi] = data_idx[local]
    return idx

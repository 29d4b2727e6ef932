"""Pairing engines: semidiscrete assignment, baselines, and exact oracles.

The production path is :func:`assign_batch`: an O(N d) scan over the
target scores ``g_j - c(x, y_j)``. At ``eps = 0`` this is a maximum inner
product search with a ``b``-weighted draw over ties; for ``eps > 0`` it
is a categorical draw from the responsibilities. Baselines cover the
independent coupling and minibatch OT (log-domain Sinkhorn or Hungarian).

:func:`oracle_discrete_ot` is the test oracle: dense log-domain Sinkhorn
for ``eps > 0``, the exact transport LP for ``eps = 0``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from .costs import NEG_DOT, ConfigurationError, CostConfig, cost_matrix
from .numerics import (
    ARGMAX_TIE_TOL,
    Rng,
    argmax_with_ties,
    inverse_cdf,
    softmax_b_eps_rows,
)
from .semidual import Potential, TargetMeasure, coupling_scores, score_chunks

__all__ = [
    "PairBatch",
    "SinkhornError",
    "assign_batch",
    "laguerre_contains",
    "couple_independent",
    "couple_minibatch_ot",
    "sinkhorn_log",
    "hungarian",
    "oracle_discrete_ot",
]

INDEPENDENT = "independent"
SD = "sd"
MINIBATCH_SINKHORN = "minibatch-sinkhorn"
MINIBATCH_HUNGARIAN = "minibatch-hungarian"


class SinkhornError(RuntimeError):
    """Sinkhorn failed to reach the marginal tolerance; carries residual."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


@dataclass
class PairBatch:
    """A batch of coupled (noise, data index) pairs ready for training."""

    noise: np.ndarray  # (B, d) raw noise
    indices: np.ndarray  # (B,) into the target support
    points: np.ndarray  # (B, d) raw dataset rows of the indices
    provenance: str = INDEPENDENT
    time_per_pair: Optional[float] = None  # seconds

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.shape[0] != self.noise.shape[0]:
            raise ValueError("one index per noise row required")

    def __len__(self) -> int:
        return self.indices.shape[0]


def _resolve(target: TargetMeasure, noise: np.ndarray, idx: np.ndarray,
             provenance: str, tpp: float | None = None) -> PairBatch:
    return PairBatch(noise=noise, indices=idx, points=target.points[idx],
                     provenance=provenance, time_per_pair=tpp)


def assign_batch(pot: Potential, noise: np.ndarray, rng: Rng) -> PairBatch:
    """Pair each raw noise row with a target index by the O(N) scan.

    ``eps = 0``: argmax of ``g_k - c(x, y_k)``, with a ``b``-weighted draw
    over exact ties; ``eps > 0``: categorical draw from the
    responsibilities. Row ``i`` draws with the ``i``-th uniform of
    ``rng.generator().random(n)``, so it depends only on ``(rng, i)`` and
    its noise row, never on the batch size. Streams the scan through
    :func:`~sdfm.semidual.score_chunks`: one matmul block per read of the
    support, reduced in L2-sized slabs, so the scan holds at most the
    larger of 1 MiB and 4 x the support's bytes whatever the batch size. It
    records the mean wall-clock time per pair so pairing overhead can be
    compared across coupling methods on the same harness.
    """
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    t0 = time.perf_counter()
    b = pot.target.weights
    log_b = pot.target.log_weights
    u = rng.generator().random(len(noise))
    idx = np.empty(len(noise), dtype=np.int64)
    for lo, hi, scores in score_chunks(pot, noise):
        if pot.eps == 0.0:
            part, tie_rows, tie_weights = argmax_with_ties(scores, b)
            part[tie_rows] = inverse_cdf(tie_weights, u[lo + tie_rows])
        else:
            s = softmax_b_eps_rows(scores, b, pot.eps, out=scores, log_b=log_b)
            part = inverse_cdf(s, u[lo:hi])
        idx[lo:hi] = part
    tpp = (time.perf_counter() - t0) / max(len(noise), 1)
    return _resolve(pot.target, noise, idx, SD, tpp)


def laguerre_contains(pot: Potential, j: int, x: np.ndarray) -> bool:
    """Whether raw point ``x`` lies in the cell of atom ``j``.

    Only defined for the unregularized negative dot-product geometry,
    where cell ``j`` is the half-space intersection
    ``{x : x^T (y_j - y_k) + g_j - g_k >= 0 for all k}``.
    """
    if pot.eps != 0.0 or pot.cost.kind != NEG_DOT:
        raise ConfigurationError(
            "Laguerre cells require eps=0 and the neg-dot cost"
        )
    if not 0 <= j < pot.target.n:
        raise ValueError(f"cell index {j} out of range")
    scores = coupling_scores(pot, np.reshape(x, (1, -1)))[0]
    return bool(np.all(scores[j] >= scores - ARGMAX_TIE_TOL))


def couple_independent(target: TargetMeasure, noise: np.ndarray,
                       rng: Rng) -> PairBatch:
    """Indices drawn i.i.d. from the target weights."""
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    t0 = time.perf_counter()
    idx = rng.generator().choice(target.n, size=len(noise), p=target.weights)
    tpp = (time.perf_counter() - t0) / max(len(noise), 1)
    return _resolve(target, noise, idx, INDEPENDENT, tpp)


# ---------------------------------------------------------------------------
# Log-domain Sinkhorn

def sinkhorn_log(costs: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float,
                 tol: float = 1e-6, max_sweeps: int = 10_000):
    """Dense log-domain Sinkhorn with an eps-scaling warm start.

    Alternates the dual updates

        f_i = -eps * LSE_j((g_j - C_ij)/eps + log b_j)
        g_j = -eps * LSE_i((f_i - C_ij)/eps + log a_i)

    until the L1 marginal error falls below ``tol``. The column update
    zeroes the column residual by construction, and the row residual of
    the current plan falls out of the next row transform for free:
    ``row_sum_i = a_i exp((f_i - f_new_i)/eps)``. Raises
    :class:`SinkhornError` with the residual if the sweep budget runs
    out. Returns ``(plan, f, g, sweeps)``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if eps <= 0.0:
        raise ValueError("Sinkhorn requires eps > 0")
    log_a = np.log(a)
    log_b = np.log(b)
    m, n = costs.shape
    f = np.zeros(m)
    g = np.zeros(n)

    spread = float(costs.max() - costs.min())
    if spread > 0 and eps < spread:
        # Geometric ladder from an easy scale down to the requested eps.
        levels = []
        cur = spread
        while cur > eps * 1.5:
            levels.append(cur)
            cur /= 3.0
        schedule = levels + [eps]
    else:
        schedule = [eps]

    buf = np.empty_like(costs)

    def row_transform(level, scaled_costs):
        # buf <- (g - C)/level + log_b, reduced by a stable row LSE.
        np.subtract(g[None, :] / level, scaled_costs, out=buf)
        np.add(buf, log_b[None, :], out=buf)
        mx = buf.max(axis=1)
        np.subtract(buf, mx[:, None], out=buf)
        np.exp(buf, out=buf)
        return -level * (mx + np.log(buf.sum(axis=1)))

    def col_transform(level, scaled_costs):
        np.subtract(f[:, None] / level, scaled_costs, out=buf)
        np.add(buf, log_a[:, None], out=buf)
        mx = buf.max(axis=0)
        np.subtract(buf, mx[None, :], out=buf)
        np.exp(buf, out=buf)
        return -level * (mx + np.log(buf.sum(axis=0)))

    sweeps = 0
    row_err = np.inf
    for level_idx, level in enumerate(schedule):
        final = level_idx == len(schedule) - 1
        budget = max_sweeps - sweeps if final else min(50, max_sweeps - sweeps)
        scaled = costs / level
        fresh_level = True
        for _ in range(max(budget, 0)):
            f_new = row_transform(level, scaled)
            if not fresh_level:
                with np.errstate(over="ignore"):
                    row_err = float(
                        np.abs(a * np.expm1((f - f_new) / level)).sum()
                    )
                if np.isfinite(row_err):
                    if row_err <= tol and final:
                        log_plan = (f[:, None] + g[None, :]) / level - scaled \
                            + log_a[:, None] + log_b[None, :]
                        return np.exp(log_plan), f, g, sweeps
                    if not final and row_err <= max(tol, 1e-3):
                        f = f_new
                        break
            f = f_new
            g = col_transform(level, scaled)
            sweeps += 1
            fresh_level = False
    raise SinkhornError(
        f"no convergence within {max_sweeps} sweeps (residual {row_err:.3e})",
        residual=float(row_err),
    )


def hungarian(costs: np.ndarray):
    """Minimum-cost perfect matching on a square cost matrix.

    Returns ``(assignment, total)`` where ``assignment[i]`` is the column
    matched to row ``i``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError("hungarian expects a square cost matrix")
    rows, assignment = optimize.linear_sum_assignment(costs)
    return assignment, float(costs[rows, assignment].sum())


def couple_minibatch_ot(target: TargetMeasure, noise: np.ndarray,
                        cost: CostConfig, eps: float, rng: Rng,
                        method: str = "sinkhorn") -> PairBatch:
    """Minibatch OT baseline: match ``n`` noise rows to ``n`` fresh data rows.

    ``sinkhorn`` samples a data index per noise row from the row of the
    (row-normalized) coupling matrix; ``hungarian`` uses the optimal
    permutation. The recorded time per pair amortizes the full solve over
    the batch.
    """
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    n = len(noise)
    t0 = time.perf_counter()
    gen = rng.generator()
    data_idx = gen.choice(target.n, size=n, p=target.weights)
    c = cost_matrix(cost, cost.embed(noise), cost.embed(target.points[data_idx]))
    if n == 1:
        local = np.zeros(1, dtype=np.int64)
    elif method == "hungarian":
        local, _ = hungarian(c)
    elif method == "sinkhorn":
        if eps <= 0.0:
            raise ConfigurationError("sinkhorn minibatch coupling needs eps > 0")
        marg = np.full(n, 1.0 / n)
        plan, _, _, _ = sinkhorn_log(c, marg, marg, eps)
        local = inverse_cdf(plan / plan.sum(axis=1, keepdims=True),
                            gen.random(n))
    else:
        raise ConfigurationError(f"unknown minibatch method {method!r}")
    idx = data_idx[local]
    tpp = (time.perf_counter() - t0) / max(n, 1)
    prov = MINIBATCH_HUNGARIAN if method == "hungarian" else MINIBATCH_SINKHORN
    return _resolve(target, noise, idx, prov, tpp)


# ---------------------------------------------------------------------------
# Exact small-instance oracle

def oracle_discrete_ot(costs: np.ndarray, a: np.ndarray, b: np.ndarray,
                       eps: float):
    """Exact discrete OT on a dense cost matrix, with dual potentials.

    ``eps > 0``: log-domain Sinkhorn to marginal tolerance 1e-9.
    ``eps = 0``: the transport LP via HiGHS. Returns ``(plan, f, g, value)`` with ``g``
    gauge-fixed to ``<b, g> = 0`` and ``value`` the primal objective
    (including the entropic term for ``eps > 0``).
    """
    costs = np.asarray(costs, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = costs.shape
    if m > 512 or n > 512:
        raise ValueError("oracle restricted to instances of size <= 512")
    if eps > 0.0:
        plan, f, g, _ = sinkhorn_log(costs, a, b, eps, tol=1e-9)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl_terms = plan * np.log(plan / (a[:, None] * b[None, :]))
        kl_terms[~np.isfinite(kl_terms)] = 0.0
        value = float((plan * costs).sum() + eps * kl_terms.sum())
    else:
        plan, f, g = _transport_lp(costs, a, b)
        value = float((plan * costs).sum())
    shift = float(np.dot(b, g))
    g = g - shift
    f = f + shift
    return plan, f, g, value


def _transport_lp(costs: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Transport LP via scipy HiGHS; returns plan and marginal duals."""
    import scipy.sparse as sp

    m, n = costs.shape
    # Equality rows: m row sums then n column sums (one redundant).
    row_idx = np.repeat(np.arange(m), n)
    col_idx = np.tile(np.arange(n), m)
    data = np.ones(m * n)
    rows = sp.coo_matrix((data, (row_idx, np.arange(m * n))), shape=(m, m * n))
    cols = sp.coo_matrix((data, (col_idx, np.arange(m * n))), shape=(n, m * n))
    a_eq = sp.vstack([rows, cols]).tocsc()
    b_eq = np.concatenate([a, b])
    res = optimize.linprog(costs.ravel(), A_eq=a_eq, b_eq=b_eq,
                           bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(m, n)
    duals = np.asarray(res.eqlin.marginals)
    value = float((plan * costs).sum())
    # Pick the dual sign convention under which strong duality holds:
    # value = a.f + b.g with f_i + g_j <= C_ij.
    f, g = duals[:m], duals[m:]
    if abs(np.dot(a, f) + np.dot(b, g) - value) > abs(
        -np.dot(a, f) - np.dot(b, g) - value
    ):
        f, g = -f, -g
    return plan, f, g

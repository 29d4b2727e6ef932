"""Reference implementations that only the tests use.

Finite noise laws with integer multiplicities and the solver's exact
check over them, exact discrete OT on small dense instances (the
transport LP at eps=0, tight Sinkhorn at eps>0), the log-domain Sinkhorn
loop that the library runs in scaling form, the two-pass
score kernel, Laguerre-cell membership, the exact
second marginal and primal transport cost, dense responsibility rows (the
eps=0 one-hot rows among them), the eps>0 score correction with its
kernel-weighted Monte-Carlo estimate, the closed-form cells, marginal
and optimum of Gaussian noise in one dimension at any N, the plain float32
layer loop of a velocity model, the float64 forward pass,
flow-matching loss and backprop of a velocity model, and the training
loop that pairs one step at a time: the library's
commands never call these, so they live beside the tests that check the
library against them.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy import optimize
from scipy.special import ndtr, ndtri

from sdfm.costs import NEG_DOT, ConfigurationError, cost_matrix
from sdfm.coupling import SinkhornError, sinkhorn_log
from sdfm.flow import T_MAX_TRAIN, _Adam, fm_loss_and_grad
from sdfm.numerics import (
    ARGMAX_TIE_TOL,
    Rng,
    argmax_with_ties,
    inverse_cdf,
)
from sdfm.semidual import (
    Potential,
    TargetMeasure,
    _column_sums,
    chi2_exact,
    coupling_scores,
)


class FiniteNoise:
    """Finite noise law: raw ``atoms``, each repeated by its integer entry
    of ``counts`` (default 1) in ``rows``, so every exact expectation is the
    plain mean over ``rows``.

    With ``exact=True`` every ``sample`` call returns all of ``rows``: each
    solver step takes the exact gradient and each check is exact (the
    :func:`exact_check` that ``conftest.py`` puts in place of the solver's
    check). Otherwise ``sample`` draws atoms i.i.d. with probabilities
    ``weights = counts / counts.sum()``.
    """

    def __init__(self, atoms, counts=None, exact: bool = False):
        self.atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
        m = self.atoms.shape[0]
        counts = np.ones(m, dtype=np.int64) if counts is None \
            else np.asarray(counts, dtype=np.int64)
        self.weights = counts / counts.sum()
        self.rows = np.repeat(self.atoms, counts, axis=0)
        self.exact = bool(exact)

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        if self.exact:
            return self.rows
        idx = rng.generator().choice(self.atoms.shape[0], size=n, p=self.weights)
        return self.atoms[idx]


def soft_c_and_marginal(pot: Potential, x: np.ndarray):
    """Mean soft-c transform and mean responsibilities of rows ``x``: one scan."""
    f = np.empty(np.atleast_2d(x).shape[0])
    m, _ = _column_sums(pot, x, soft_c=f)
    return float(np.mean(f)), m / len(f)


def exact_check(check):
    """The solver's check ``check(pot, rng, cfg, noise)``, made exact for a
    :class:`FiniteNoise` with ``exact = True``: ``(chi2, semidual,
    marginal)`` are :func:`~sdfm.semidual.chi2_exact` of the mean
    responsibilities of its rows, their mean soft-c transform plus ``<b,
    g>``, and those mean responsibilities. Any other noise goes to
    ``check``."""
    def checked(pot, rng, cfg, noise):
        if not getattr(noise, "exact", False):
            return check(pot, rng, cfg, noise)
        b = pot.target.weights
        ef, m = soft_c_and_marginal(pot, noise.rows)
        return chi2_exact(m, b), ef + float(np.dot(b, pot.g)), m
    return checked


def oracle_discrete_ot(costs: np.ndarray, a: np.ndarray, b: np.ndarray,
                       eps: float):
    """Exact discrete OT on a dense cost matrix, with dual potentials.

    ``eps > 0``: log-domain Sinkhorn to marginal tolerance 1e-9.
    ``eps = 0``: the transport LP via HiGHS. Returns ``(plan, f, g,
    value)`` with ``g`` gauge-fixed to ``<b, g> = 0`` and ``value`` the
    primal objective (including the entropic term for ``eps > 0``).
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


def sinkhorn_log_reference(costs: np.ndarray, a: np.ndarray, b: np.ndarray,
                           eps: float, tol: float = 1e-6,
                           max_sweeps: int = 10_000):
    """Dense log-domain Sinkhorn at the requested ``eps``, from zero potentials:
    the loop that :func:`~sdfm.coupling.sinkhorn_log` runs in scaling form,
    with the same sweeps and, up to rounding, the same results.

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


def scores_two_pass(pot: Potential, x: np.ndarray) -> np.ndarray:
    """Scores ``g_j - c(x_i, y_j)`` of raw rows ``x`` in two passes: the
    matmul plus ``g`` for the negative dot product, ``g - cost_matrix``
    for the squared Euclidean cost. The negative dot product reads the
    support in the fused kernel's C-contiguous ``(d, N)`` layout: BLAS's
    matrix-vector kernel (1-row blocks) rounds a row-major operand and its
    transposed view differently."""
    x = pot.cost.embed(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    support = np.ascontiguousarray(pot.cost.embed(pot.target.points))
    if pot.cost.kind == NEG_DOT:
        scores = x @ np.ascontiguousarray(support.T)
        scores += pot.g
        return scores
    return pot.g - cost_matrix(pot.cost, x, support)


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


def envelope_1d(pot: Potential):
    """Exact Laguerre cells of a d=1, eps=0 neg-dot potential.

    Cell ``j`` is the interval on which the line ``g_j + x y_j`` tops the
    upper envelope of all N lines. Returns ``(hull, breaks)``: the atoms
    on the envelope in order of slope, and the ``len(hull) - 1`` points
    at which it passes from each to the next. Atoms off the envelope have
    empty cells. The points must be distinct.
    """
    if pot.eps != 0.0 or pot.cost.kind != NEG_DOT or pot.target.dim != 1:
        raise ConfigurationError("1-d cells require d=1, eps=0, neg-dot")
    y = pot.target.points[:, 0].tolist()
    g = pot.g.tolist()
    hull, breaks = [], []
    for j in sorted(range(len(y)), key=y.__getitem__):
        while hull:
            k = hull[-1]
            if y[j] == y[k]:
                raise ValueError("1-d cells need distinct points")
            x = (g[k] - g[j]) / (y[j] - y[k])  # line j overtakes line k
            if not breaks or x > breaks[-1]:
                breaks.append(x)
                break
            hull.pop()  # line k never tops the envelope
            breaks.pop()
        hull.append(j)
    return np.array(hull), np.array(breaks)


def marginal_1d(pot: Potential) -> np.ndarray:
    """Exact ``m(g)`` under N(0, 1) noise: ``Phi(r_j) - Phi(l_j)`` for the
    cell ``[l_j, r_j]`` of each atom (upper tails from the survival
    function, which keeps their digits)."""
    hull, breaks = envelope_1d(pot)
    lo = np.concatenate([[-np.inf], breaks])
    hi = np.concatenate([breaks, [np.inf]])
    m = np.zeros(pot.target.n)
    m[hull] = np.where(lo > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    return m


def cells_1d(pot: Potential, x: np.ndarray) -> np.ndarray:
    """The exact cell of each row of ``x``, shape ``(B, 1)``."""
    hull, breaks = envelope_1d(pot)
    return hull[np.searchsorted(breaks, np.asarray(x)[:, 0])]


def optimal_g_1d(target: TargetMeasure) -> np.ndarray:
    """``g*`` of a d=1 target under N(0, 1) noise at eps=0 (neg-dot).

    Monotone rearrangement: with the points sorted, the cell of the j-th
    ends at ``t_j = Phi^-1(b_1 + ... + b_j)``, where its line meets the
    next: ``g*_{j+1} = g*_j - t_j (y_{j+1} - y_j)``.
    """
    y = target.points[:, 0]
    order = np.argsort(y)
    t = ndtri(np.cumsum(target.weights[order])[:-1])
    g = np.empty(target.n)
    g[order] = np.concatenate([[0.0], -np.cumsum(t * np.diff(y[order]))])
    return g


def marginal_exact(pot: Potential, noise: FiniteNoise) -> np.ndarray:
    """Second marginal ``m(g)`` of a finite law: the mean over its rows."""
    return _column_sums(pot, noise.rows)[0] / len(noise.rows)


def transport_cost(pot: Potential, noise_batch: np.ndarray) -> float:
    """Primal objective of the induced coupling on a batch.

    Returns ``E[c(X, Y)]`` under ``pi_{eps,g}`` plus, for ``eps > 0``, the
    ``eps * KL(s_i || b)`` regularization term of the responsibilities. At
    ``eps = 0`` the KL term is reported as 0. Row ``i`` contributes
    ``sum_j s_ij (g_j - scores_ij) + eps KL(s_i || b) = f_{g,eps}(x_i) +
    <s_i, g>``, and the rows' mean of ``<s_i, g>`` is ``<m, g>`` for their
    mean responsibilities ``m``: one scan gives both terms.
    """
    ef, m = soft_c_and_marginal(pot, noise_batch)
    return ef + float(np.dot(m, pot.g))


def softmax_rows(scores: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """Dense responsibility rows of ``(B, N)`` scores; each row sums to 1.

    At ``eps > 0`` the weighted softmax ``b_j exp(z_ij / eps)`` normalised
    by its row total; at ``eps = 0`` one-hot on the row argmax, with tie
    rows split by ``b`` (:func:`~sdfm.numerics.argmax_with_ties`).
    ``scores`` is not written.
    """
    scores = np.array(scores, dtype=np.float64)
    if eps == 0.0:
        idx, tie_rows, tie_weights = argmax_with_ties(scores, b)
        rows = np.zeros_like(scores)
        rows[np.arange(len(scores)), idx] = 1.0
        rows[tie_rows] = tie_weights
        return rows
    with np.errstate(divide="ignore"):
        exponents = scores / eps + np.log(b)
    rows = np.exp(exponents - exponents.max(axis=1, keepdims=True))
    return rows / rows.sum(axis=1, keepdims=True)


def float64_scores(pot: Potential, x: np.ndarray) -> np.ndarray:
    """The fused float64 scores ``g_j - c(x_i, y_j)`` of raw rows ``x``, up
    to the per-row constant of :func:`~sdfm.semidual.coupling_scores`: its
    product for the potential's eps=0 twin (at eps>0 it gives exponents)."""
    twin = Potential(g=pot.g, target=pot.target,
                     cost=replace(pot.cost, eps_raw=0.0))
    return coupling_scores(twin, x)


def responsibilities_rows(pot: Potential, x: np.ndarray) -> np.ndarray:
    """Dense row-wise responsibilities, ``(B, N)``; each row sums to 1."""
    return softmax_rows(float64_scores(pot, x), pot.target.weights, pot.eps)


def score_eps_positive(model, x: np.ndarray, t: float,
                       delta: np.ndarray) -> np.ndarray:
    """Score of an eps>0 semidiscrete flow: ``(t v(t, x) - x + delta) / (1 - t)``,
    with the correction ``delta`` inside the numerator."""
    if t >= 1.0:
        raise ValueError("score is defined for t < 1 only")
    x = np.asarray(x, dtype=np.float64)
    return (t * model(t, x) - x + delta) / (1.0 - t)


def _forward_float64(model, t, x, theta=None):
    """Float64 output rows of ``model`` at ``(t, x)``, the input of every
    layer and the float64 weights: those of the flat vector ``theta``, by
    default the model's float32 ``theta`` cast to float64."""
    weights, biases = model._views(
        model.theta.astype(np.float64) if theta is None else theta)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t_col = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1),
                            (len(x), 1))
    h = np.concatenate([x, t_col], axis=1)
    acts = []
    for k, (w, b) in enumerate(zip(weights, biases)):
        acts.append(h)
        h = h @ w + b
        if k < len(weights) - 1:
            h = np.tanh(h)
    return h, acts, weights


def velocity_float64(model, t, x) -> np.ndarray:
    """``v(t, x)`` of ``model`` computed in float64, ``(len(x), dim)``."""
    return _forward_float64(model, t, x)[0]


def velocity_float32(model, t, x) -> np.ndarray:
    """``v(t, x)`` of ``model`` by a plain float32 layer loop, ``(len(x),
    dim)`` in float64: ``h = tanh(h @ w + b)`` on new whole-batch arrays,
    the last layer linear. :meth:`~sdfm.flow.FlowModel.velocity` computes
    the same operations on the same operands in blocks, bit for bit."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t_col = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1),
                            (len(x), 1))
    h = np.concatenate([x, t_col], axis=1).astype(np.float32)
    layers = [(w.astype(np.float32), b.astype(np.float32))
              for w, b in zip(model.weights, model.biases)]
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
    return (h @ layers[-1][0] + layers[-1][1]).astype(np.float64)


def fm_loss_and_grad_float64(model, x0: np.ndarray, x1: np.ndarray,
                             t: np.ndarray, theta=None):
    """Float64 flow-matching loss and gradient: the reference for
    :func:`~sdfm.flow.fm_loss_and_grad`'s float32 pass.

    The batch mean of ``||(x1 - x0) - v(t, x_t)||^2`` along the linear
    interpolant, and its exact float64 gradient in ``theta`` order by
    backprop through the float64 layers of ``theta`` (by default the
    model's, cast to float64).
    """
    tc = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    out, acts, weights = _forward_float64(model, t, (1.0 - tc) * x0 + tc * x1,
                                          theta)
    residual = (x1 - x0) - out
    delta = -2.0 * residual / len(x0)  # d loss / d out
    grad = np.empty(model.theta.size)
    grads_w, grads_b = model._views(grad)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer][...] = acts[layer].T @ delta
        grads_b[layer][...] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - acts[layer] ** 2)
    return float(np.mean(np.sum(residual**2, axis=1))), grad


def train_flow_per_step(model, target: TargetMeasure, pair, cfg,
                        rng: Rng):
    """:func:`~sdfm.flow.train_flow` with one ``pair`` call per step, on
    that step's noise and ``rng.child(step).child(1)`` alone: the noise and
    then the times from one ``rng.child(step).generator()``, the same loss
    and Adam update, so the same ``theta`` bits."""
    model = model.copy()
    opt = _Adam()
    for step in range(cfg.steps):
        gen = rng.child(step).generator()
        noise = gen.standard_normal((cfg.batch, model.dim))
        idx = pair(noise, rng.child(step).child(1))
        t = gen.random(cfg.batch) * T_MAX_TRAIN
        _, grad = fm_loss_and_grad(model, noise, target.points[idx], t)
        opt.step(model.theta, grad)
    return model


@dataclass(frozen=True)
class DeltaEstimate:
    value: np.ndarray
    std_error: np.ndarray
    effective_samples: float


def delta_eps_toy(pot: Potential, x: np.ndarray, t: float, samples: int,
                  rng: Rng, bandwidth: Optional[float] = None) -> DeltaEstimate:
    """Kernel-weighted Monte-Carlo estimate of the score correction.

    Simulates ``(X0, X1)`` from the entropic coupling, forms
    ``X_t = (1-t) X0 + t X1``, and self-normalizes Gaussian kernel weights
    around ``x`` to approximate

        (1/eps) E[ X1 - E[X1 | X0]  |  X_t = x ]

    valid for the negative dot-product cost where the cost gradient in
    the noise argument is ``-X1``. Bandwidth defaults to 0.2x the median
    pairwise distance of the simulated ``X_t``.
    """
    if pot.eps <= 0.0:
        raise ValueError("delta_eps_toy requires eps > 0")
    if pot.cost.kind != NEG_DOT:
        raise ValueError("delta_eps_toy requires the neg-dot cost")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d = pot.target.dim
    gen = rng.generator()
    x0 = gen.standard_normal((samples, d))
    s = responsibilities_rows(pot, x0)
    y = pot.target.points
    mean_x1 = s @ y  # E[X1 | X0]
    x1 = y[inverse_cdf(s, gen.random(samples))]
    xt = (1.0 - t) * x0 + t * x1
    inner = x1 - mean_x1

    if bandwidth is None:
        sub = xt[: min(512, samples)]
        diff = sub[:, None, :] - sub[None, :, :]
        dists = np.sqrt(np.sum(diff**2, axis=-1))
        med = np.median(dists[np.triu_indices(len(sub), k=1)])
        bandwidth = max(0.2 * med, 1e-8)
    logw = -np.sum((xt - x[None, :]) ** 2, axis=1) / (2.0 * bandwidth**2)
    logw -= logw.max()
    w = np.exp(logw)
    w_sum = w.sum()
    ess = float(w_sum**2 / np.sum(w * w))
    if ess < 10.0:
        raise RuntimeError(
            f"effective sample size {ess:.1f} < 10; increase samples or bandwidth"
        )
    w_norm = w / w_sum
    value = (w_norm @ inner) / pot.eps
    spread = inner / pot.eps - value[None, :]
    var = (w_norm**2) @ (spread**2)
    return DeltaEstimate(value=value, std_error=np.sqrt(var),
                         effective_samples=ess)

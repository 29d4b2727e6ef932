"""Semidiscrete OT kernel: soft-c transform, responsibilities, chi-square.

The target is a finite measure ``sum_j b_j delta_{y_j}``. A potential
vector ``g`` in R^N induces, for every noise point ``x``, a probability
vector of responsibilities

    s_{eps,g}(x) = softmax_b_eps([g_j - c(x, y_j)]_j)

and through it a coupling whose first marginal is the noise law by
construction. The semidual objective

    F_eps(g) = E_x[ f_{g,eps}(x) ] + <b, g>

is concave in ``g``, with gradient ``b - m(g)`` where ``m(g)`` is the
second marginal of the induced coupling. Convergence is tracked through
the chi-square divergence ``chi2(m(g) || b)``, which admits an unbiased
O(NB) batch estimator; all of that machinery lives here.

Every expectation over the noise law has two routes: Monte-Carlo batches
(production) and exact summation over a finite weighted atom list
(:class:`DiscreteNoise`), the backbone of the oracle test suite.

Targets, noise and every function here take raw rows. Only the scores
live in the coupling space (the raw rows, or their PCA projection):
:func:`coupling_scores` embeds its noise rows through
:meth:`~sdfm.costs.CostConfig.embed` and scores them against
:attr:`Potential.support`, the target embedded once per potential.

The B x N score block ``g_j - c(x_i, y_j)`` is never materialised:
:func:`score_chunks` fills it one matmul block of rows at a time through
one reused buffer and yields each block as cache-sized row slabs. Here
one reducer, :func:`_column_sums`, reduces them in place; the semidual
value, gradient, second marginal, chi-square and transport cost are all
readouts of its column sums and soft-c transform. Pairing reads the same
stream. :func:`chi2_batches` is the one streamed-noise loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .costs import NEG_DOT, ConfigurationError, CostConfig, cost_matrix
from .numerics import (
    Rng,
    eps0_column_stats,
    softmax_b_eps_rows,
)

__all__ = [
    "TargetMeasure",
    "Potential",
    "GaussianNoise",
    "DiscreteNoise",
    "gauge_fix",
    "coupling_scores",
    "responsibilities_rows",
    "semidual_value",
    "stochastic_gradient",
    "marginal_exact",
    "chi2_exact",
    "chi2_estimator",
    "chi2_batches",
    "transport_cost",
]


def _fingerprint(points: np.ndarray, weights: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in (points, weights):
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    # Trailing marker of the empty per-point-condition slot that earlier
    # versions hashed: every stored potential still binds to its dataset.
    h.update(b"\x00none")
    return h.hexdigest()


@dataclass(frozen=True)
class TargetMeasure:
    """Discrete target: raw dataset points and their weights.

    Pairing resolves indices to these rows; the scores see them through
    :attr:`Potential.support`. The fingerprint hashes both arrays and
    binds stored potentials to their dataset.
    """

    points: np.ndarray  # (N, d)
    weights: np.ndarray  # (N,), strictly positive, sums to 1
    fingerprint: str = ""

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (points.shape[0],):
            raise ConfigurationError("weights must have one entry per point")
        if np.any(weights <= 0.0):
            raise ConfigurationError("all target weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("target weights must sum to 1")
        if not self.fingerprint:
            object.__setattr__(self, "fingerprint", _fingerprint(points, weights))

    @classmethod
    def from_points(cls, points, weights=None) -> "TargetMeasure":
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = points.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            weights = weights / weights.sum()
        return cls(points=points, weights=weights)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def log_weights(self) -> np.ndarray:
        """``log(weights)``, computed once: every score tile reads it."""
        log_w = np.log(self.weights)
        log_w.setflags(write=False)
        return log_w


@dataclass
class Potential:
    """Dual vector ``g`` bound to its target, cost, and solver provenance.

    Gauge convention: ``<b, g> = 0`` (the additive constant of the dual
    is unidentifiable), applied by :func:`gauge_fix`.
    """

    g: np.ndarray
    target: TargetMeasure
    cost: CostConfig
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=np.float64)
        if self.g.shape != (self.target.n,):
            raise ConfigurationError("potential length must match the target size")
        if not np.all(np.isfinite(self.g)):
            raise ConfigurationError("potential entries must be finite")

    @property
    def eps(self) -> float:
        return self.cost.eps

    @cached_property
    def support(self) -> np.ndarray:
        """Target points in coupling space, embedded once per potential."""
        return self.cost.embed(self.target.points)

    @property
    def target_fingerprint(self) -> str:
        return self.target.fingerprint


def gauge_fix(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shift ``g`` so that ``<b, g> = 0``."""
    g = np.asarray(g, dtype=np.float64)
    return g - float(np.dot(b, g))


# ---------------------------------------------------------------------------
# Noise sources

class GaussianNoise:
    """Standard normal noise in the target's raw space."""

    exact = False

    def __init__(self, target: TargetMeasure):
        self.target = target

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        return rng.generator().standard_normal((n, self.target.dim))

    def enumerate(self):
        return None


class DiscreteNoise:
    """Finite weighted list of raw noise atoms: exact expectations.

    ``exact=True`` makes solver batches the full weighted list (every
    gradient is the exact one); ``exact=False`` samples atoms i.i.d. by
    weight, preserving the stochastic behaviour on a finite instance.
    """

    def __init__(self, atoms, weights=None, exact: bool = False):
        self.atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
        m = self.atoms.shape[0]
        if weights is None:
            self.weights = np.full(m, 1.0 / m)
        else:
            self.weights = np.asarray(weights, dtype=np.float64)
            self.weights = self.weights / self.weights.sum()
        self.exact = bool(exact)

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        idx = rng.generator().choice(self.atoms.shape[0], size=n, p=self.weights)
        return self.atoms[idx]

    def enumerate(self):
        return self.atoms, self.weights


# ---------------------------------------------------------------------------
# Kernel evaluations (inputs are raw rows)

# Score tiles come in two levels, both of whole rows, so row reductions
# need no online merging. A reducer sees slabs of SCORE_CHUNK_ENTRIES // N
# rows (at least one): 2^17 float64 entries (1 MiB) stay resident in a
# 2 MiB per-core L2 cache while it makes its passes over the slab. One
# coupling_scores call fills a block of max(slab, 4 d) rows for a
# d-column support, so each read of the N x d support serves at least 4 d
# rows. The block buffer holds max(1 MiB, 4 x the support's bytes),
# whatever the batch size.
SCORE_CHUNK_ENTRIES = 2**17


def _tile_rows(n: int, d: int) -> tuple[int, int]:
    """``(block, slab)``: rows per matmul block and per reducer slab."""
    slab = max(1, SCORE_CHUNK_ENTRIES // n)
    return max(slab, 4 * d), slab


def coupling_scores(pot: Potential, x: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Score matrix ``g_j - c(x_i, y_j)`` for raw noise rows ``x``.

    The rows are embedded into coupling space and scored against
    :attr:`Potential.support`. Written to ``out`` (shape ``(len(x), N)``)
    when given, else to a fresh array.
    """
    x = pot.cost.embed(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    if pot.cost.kind == NEG_DOT:
        # Fused hot path: one matmul plus an in-place shift.
        scores = np.matmul(x, pot.support.T, out=out)
        scores += pot.g
        return scores
    c = cost_matrix(pot.cost, x, pot.support, out=out)
    return np.subtract(pot.g, c, out=c)


def score_chunks(pot: Potential, x: np.ndarray):
    """Yield ``(lo, hi, scores)``, the :func:`coupling_scores` of rows ``lo:hi``.

    Every reducer of the score block streams through here. One
    :func:`coupling_scores` call fills a block of rows, which is yielded
    as L2-sized slabs (see :data:`SCORE_CHUNK_ENTRIES`). All blocks share
    one buffer, allocated once per stream, of at most the larger of 1 MiB
    and 4 x the support's bytes, whatever ``len(x)``. A reducer may
    overwrite a slab in place but must be done with it before asking for
    the next one.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    block, slab = _tile_rows(pot.target.n, pot.support.shape[1])
    buf = np.empty((min(block, x.shape[0]), pot.target.n))
    for lo in range(0, x.shape[0], block):
        hi = min(lo + block, x.shape[0])
        scores = coupling_scores(pot, x[lo:hi], out=buf[:hi - lo])
        for s in range(0, hi - lo, slab):
            yield lo + s, min(lo + s + slab, hi), scores[s:s + slab]


def _add_rows(acc: np.ndarray, tile: np.ndarray) -> None:
    """``acc += tile.sum(axis=0)``, summed in row order (``acc`` first).

    The totals therefore do not depend on how the rows were cut into
    tiles. Overwrites ``tile[0]``.
    """
    tile[0] += acc
    np.sum(tile, axis=0, out=acc)


def _column_sums(pot: Potential, x: np.ndarray,
                 weights: Optional[np.ndarray] = None, squares: bool = False,
                 soft_c: Optional[np.ndarray] = None):
    """Column sums of the responsibilities of rows ``x`` (row-weighted by
    ``weights`` if given) and, with ``squares``, the column sums of their
    squares (unweighted rows only), else ``None``.

    With ``soft_c`` (one entry per row) each row's soft-c transform is
    written there from the same tiles: ``f_{g,eps}(x_i) = -eps log sum_j
    b_j exp(score_ij / eps)`` at eps>0 (the softmax's normaliser), ``-max_j
    score_ij`` at eps=0.
    """
    b = pot.target.weights
    n = pot.target.n
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    col_sum, col_sq = np.zeros(n), np.zeros(n)
    first = np.empty(n) if squares else None
    for lo, hi, scores in score_chunks(pot, x):
        w = None if weights is None else weights[lo:hi]
        f = None if soft_c is None else soft_c[lo:hi]
        if pot.eps == 0.0:
            eps0_column_stats(scores, b, w, out=(col_sum, col_sq), row_max=f)
            continue
        s = softmax_b_eps_rows(scores, b, pot.eps, out=scores,
                               log_b=pot.target.log_weights, smooth_max=f)
        if w is not None:
            s *= w[:, None]
        if squares:
            np.copyto(first, s[0])
        _add_rows(col_sum, s)
        if squares:
            s[0] = first
            np.square(s, out=s)
            _add_rows(col_sq, s)
    if soft_c is not None:
        np.negative(soft_c, out=soft_c)
    return col_sum, col_sq if squares else None


def responsibilities_rows(pot: Potential, x: np.ndarray) -> np.ndarray:
    """Dense row-wise responsibilities, ``(B, N)``; each row sums to 1."""
    scores = coupling_scores(pot, x)
    return softmax_b_eps_rows(scores, pot.target.weights, pot.eps, out=scores)


def _soft_c_and_marginal(pot: Potential, x: np.ndarray,
                         weights: Optional[np.ndarray] = None):
    """Mean soft-c transform and mean responsibilities of rows ``x`` (or
    their ``weights``-weighted sums: a finite noise law), from one scan."""
    f = np.empty(np.atleast_2d(x).shape[0])
    m, _ = _column_sums(pot, x, weights, soft_c=f)
    if weights is None:
        return float(np.mean(f)), m / len(f)
    return float(np.dot(np.asarray(weights, dtype=np.float64), f)), m


def semidual_value(pot: Potential, noise_batch: np.ndarray,
                   weights: Optional[np.ndarray] = None) -> float:
    """Estimate of ``F_eps(g) = E[f_{g,eps}(X)] + <b, g>``.

    With ``weights`` (a finite noise law) the expectation is an exact sum,
    otherwise the batch mean is a Monte-Carlo estimate.
    """
    ef, _ = _soft_c_and_marginal(pot, noise_batch, weights)
    return ef + float(np.dot(pot.target.weights, pot.g))


def stochastic_gradient(pot: Potential, noise_batch: np.ndarray,
                        weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient estimate ``b - mean_i s_{eps,g}(x_i)``; entries sum to 0.

    With ``weights`` the mean is the exact weighted sum over the rows.
    """
    m, _ = _column_sums(pot, noise_batch, weights)
    if weights is None:
        m /= np.atleast_2d(noise_batch).shape[0]
    return pot.target.weights - m


def marginal_exact(pot: Potential, noise: DiscreteNoise) -> np.ndarray:
    """Second marginal ``m(g)`` by exact summation over noise atoms."""
    atoms, w = noise.enumerate()
    return _column_sums(pot, atoms, w)[0]


def chi2_exact(m: np.ndarray, b: np.ndarray) -> float:
    """``chi2(m || b) = sum_j m_j^2 / b_j - 1``; zero iff ``m = b``."""
    m = np.asarray(m, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(b <= 0.0):
        raise ValueError("chi2 divergence requires strictly positive b")
    return float(np.sum(m * m / b) - 1.0)


def chi2_estimator(pot: Potential, noise_batch: np.ndarray,
                   soft_c: Optional[np.ndarray] = None,
                   mass: Optional[np.ndarray] = None) -> float:
    """Unbiased batch estimator of ``chi2(m(g) || b)`` in O(NB) time.

    For B batch rows with responsibilities ``s_ij``:

        (1 / (B(B-1))) sum_j (1/b_j) [ (sum_i s_ij)^2 - sum_i s_ij^2 ] - 1

    The estimator may be negative for finite B. The same scan also fills
    two optional outputs: ``soft_c`` (length B) receives each row's soft-c
    transform ``f_{g,eps}(x_i)``, and the column sums ``sum_i s_ij`` are
    added to ``mass`` (length N).
    """
    noise_batch = np.atleast_2d(np.asarray(noise_batch, dtype=np.float64))
    b_rows = noise_batch.shape[0]
    if b_rows < 2:
        raise ValueError("chi2_estimator needs a batch of at least 2")
    col_sum, col_sq = _column_sums(pot, noise_batch, squares=True,
                                   soft_c=soft_c)
    if mass is not None:
        mass += col_sum
    inv_b = 1.0 / pot.target.weights
    val = np.sum(inv_b * (col_sum**2 - col_sq)) / (b_rows * (b_rows - 1))
    return float(val - 1.0)


class Chi2Scan(NamedTuple):
    """What one streamed chi-square pass (:func:`chi2_batches`) yields."""

    values: list  # chi2_estimator of each batch
    samples: int  # rows those batches hold
    soft_c_mean: float  # mean soft-c transform f_{g,eps} over those rows
    marginal: np.ndarray  # their mean responsibilities: an estimate of m(g)


def chi2_batches(pot: Potential, rng: Rng, total: int, batch: int,
                 noise=None) -> Chi2Scan:
    """:func:`chi2_estimator` of each noise batch over ``total`` draws.

    Batch ``k`` draws from ``rng.child(k)`` (``noise`` defaults to
    Gaussian). A batch of fewer than 2 rows has no estimate and ends the
    stream, so ``samples`` can fall short of ``total``. From the same
    tiles, ``soft_c_mean + <b, g>`` estimates ``F_eps(g)``, and
    ``marginal`` estimates ``m(g)`` to about ``sqrt(m_j (1 - m_j) /
    samples)`` per entry.
    """
    if batch < 1:
        raise ConfigurationError("batch must be >= 1")
    if noise is None:
        noise = GaussianNoise(pot.target)
    values, samples, f_sum = [], 0, 0.0
    mass = np.zeros(pot.target.n)
    for k, lo in enumerate(range(0, total, batch)):
        x = noise.sample(rng.child(k), min(batch, total - lo))
        if len(x) < 2:
            break
        f = np.empty(len(x))
        values.append(chi2_estimator(pot, x, f, mass))
        f_sum += float(np.sum(f))
        samples += len(x)
    scale = 1.0 / max(samples, 1)
    return Chi2Scan(values, samples, f_sum * scale, mass * scale)


def transport_cost(pot: Potential, noise_batch: np.ndarray,
                   weights: Optional[np.ndarray] = None) -> float:
    """Primal objective of the induced coupling on a (weighted) batch.

    Returns ``E[c(X, Y)]`` under ``pi_{eps,g}`` plus, for ``eps > 0``, the
    ``eps * KL(s_i || b)`` regularization term of the responsibilities. At
    ``eps = 0`` the KL term is reported as 0. Row ``i`` contributes
    ``sum_j s_ij (g_j - scores_ij) + eps KL(s_i || b) = f_{g,eps}(x_i) +
    <s_i, g>``, and the rows' mean of ``<s_i, g>`` is ``<m, g>`` for their
    mean responsibilities ``m``: one scan gives both terms.
    """
    ef, m = _soft_c_and_marginal(pot, noise_batch, weights)
    return ef + float(np.dot(m, pot.g))

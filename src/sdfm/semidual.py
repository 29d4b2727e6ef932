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

Every noise source has one contract, ``sample(rng, n) -> rows``, and each
expectation is a plain mean over unweighted rows: exact over a finite law
whose rows repeat each atom by an integer count (the oracle tests).

Targets, noise and every function here take raw rows. Only the scores
live in the coupling space (the raw rows, or their PCA projection):
:func:`coupling_scores` embeds its noise rows through
:meth:`~sdfm.costs.CostConfig.embed` and scores them against
:attr:`Potential.support`, the points of the potential's coupling-space
measure: its target, or the target embedded once per potential.

Both costs score in one matmul, up to a per-row constant that cancels in
every responsibility, argmax and draw. Its right operand is the
coupling-space target's lifted support, one C-contiguous ``(d + 2, N)``
array of the support's d coordinate rows, a shift row and a ones row (at
eps=0 its first d + 1 rows, or their float32 copy). The target owns every
array derived from the support; each score call writes its potential's
shift row there just before a use that does not yield, so streams of
potentials may interleave. At eps>0 a certified bound of each row's
exponents ``(g_j - c(x, y_j)) / eps + log b_j``, folded into the matmul,
leaves a slab only the exp (a loose one, its row maximum).
:func:`score_chunks` holds the scan's one loop: matmul blocks in one
buffer, yielded as cache-sized row slabs, at eps=0 on a row stride padded
with ``-inf`` off whole pages. Every reducer maps over its slabs:
:func:`_column_sums` takes one unnormalised exp pass per slab of exponents
at eps>0 (:mod:`sdfm.numerics`), and at eps=0 the result of
:func:`argmax_chunks`, the float64 tie rule's: its float32 argmax stands
wherever a rounding bound proves it, and each slab's few other rows are
re-checked in float64. The semidual value, gradient, second marginal and
chi-square read its column sums and soft-c transform. Pairing reads the
same streams. :func:`chi2_batches` is the one streamed-noise loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .costs import NEG_DOT, ConfigurationError, CostConfig
from .numerics import (
    ARGMAX_TIE_TOL,
    Rng,
    argmax_with_ties,
    eps0_column_stats,
    softmax_b_eps_rows,
    top_two,
)

__all__ = [
    "TargetMeasure",
    "Potential",
    "GaussianNoise",
    "gauge_fix",
    "coupling_scores",
    "semidual_value",
    "stochastic_gradient",
    "chi2_exact",
    "chi2_estimator",
    "chi2_batches",
]


def _fingerprint(points: np.ndarray, weights: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in (points, weights):
        h.update(str(a.shape).encode())
        for lo in range(0, len(a), 1024):  # points is a transposed view
            h.update(np.ascontiguousarray(a[lo:lo + 1024]))
    # Trailing marker of the empty per-point-condition slot that earlier
    # versions hashed: every stored potential still binds to its dataset.
    h.update(b"\x00none")
    return h.hexdigest()


@dataclass(frozen=True)
class TargetMeasure:
    """Discrete target: raw dataset points and their weights.

    Pairing resolves indices to these rows; the scores see them through
    :attr:`Potential.support`. The points are stored once, as the first d
    rows of the ``(d + 2, N)`` lifted support, so ``points`` is their
    F-ordered ``(N, d)`` transposed view. It owns every array that the
    scores derive from them (the module docstring).
    """

    points: np.ndarray  # (N, d), finite
    weights: np.ndarray  # (N,), finite, strictly positive, sums to 1

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        if not np.isfinite(points).all():
            raise ConfigurationError("target points must be finite")
        if weights.shape != (points.shape[0],):
            raise ConfigurationError("weights must have one entry per point")
        if not np.all(np.isfinite(weights) & (weights > 0.0)):
            raise ConfigurationError(
                "all target weights must be finite and strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("target weights must sum to 1")
        # The C-contiguous (d + 2, N) lifted support: points.T over a NaN
        # shift row and a row of ones, transposed in blocks of 128 points,
        # which stay in cache: a one-shot transpose of a d=32 target is
        # several times slower, as its strided accesses miss the cache, and
        # every command loads its target.
        lifted = np.empty((points.shape[1] + 2, len(points)))
        for lo in range(0, len(points), 128):
            lifted[:-2, lo:lo + 128] = points[lo:lo + 128].T
        lifted[-2] = np.nan
        lifted[-1] = 1.0
        object.__setattr__(self, "points", lifted[:-2].T)
        object.__setattr__(self, "_lifted", lifted)

    @classmethod
    def from_points(cls, points, weights=None) -> "TargetMeasure":
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = points.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            # Invalid weights go to __post_init__ as they are, to be refused.
            if np.all(np.isfinite(weights) & (weights > 0.0)):
                weights = weights / weights.sum()
        return cls(points=points, weights=weights)

    @cached_property
    def fingerprint(self) -> str:  # binds stored potentials to the dataset
        return _fingerprint(self.points, self.weights)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def log_weights(self) -> np.ndarray:
        """``log(weights)``, computed once: every eps>0 score block reads it."""
        log_w = np.log(self.weights)
        log_w.setflags(write=False)
        return log_w

    @cached_property
    def cdf(self) -> np.ndarray:
        """The CDF that ``Generator.choice(n, p=weights)`` builds per call,
        built once: ``cdf.searchsorted(gen.random(n), side="right")``."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def _single(self) -> np.ndarray:
        """The lifted support's first d + 1 rows in float32 for eps=0 streams,
        on a cache line: off it, a 1024-row gradient took 15 % longer."""
        single = _aligned((self.dim + 1, self.n), np.float32)
        with np.errstate(over="ignore"):
            single[...] = self._lifted[:-1]
        return single

    @cached_property
    def _sq_norms(self) -> np.ndarray:
        # |y_j|^2 from C-ordered 1024-point blocks: einsum over the strided
        # points view rounds some norms differently.
        norms = np.empty(self.n)
        for lo in range(0, self.n, 1024):
            s = np.ascontiguousarray(self.points[lo:lo + 1024])
            norms[lo:lo + 1024] = np.einsum("ij,ij->i", s, s)
        return norms

    @cached_property
    def _coord_range(self) -> np.ndarray:
        """Each coordinate row's largest ``|entry|``, ``inf`` from ``2^127``
        up (:func:`argmax_chunks`)."""
        coords = self._lifted[:-2]
        return _f32_range(np.maximum(coords.max(axis=1), -coords.min(axis=1)))

    @cached_property
    def _max_norm(self) -> float:  # max_j |y_j|, for the eps>0 row bound
        coords = self._lifted[:-2]  # einsum: no (d, N) temporary
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.einsum("ij,ij->j", coords, coords).max()))


@dataclass
class Potential:
    """Dual vector ``g`` bound to its target, cost, and solver provenance.

    Gauge convention: ``<b, g> = 0`` (the additive constant of the dual
    is unidentifiable), applied by :func:`gauge_fix`. The scores read
    only the arrays of its coupling-space target, :attr:`_space`.
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

    @property
    def support(self) -> np.ndarray:
        """Target points in coupling space: the points of :attr:`_space`."""
        return self._space.points

    @cached_property
    def _space(self) -> TargetMeasure:
        """The target in coupling space, whose lifted support the scores read:
        the target itself, or its embedded points when the cost projects."""
        if self.cost.projection is None:
            return self.target
        return TargetMeasure(points=self.cost.embed(self.target.points),
                             weights=self.target.weights)


def gauge_fix(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shift ``g`` so that ``<b, g> = 0``."""
    g = np.asarray(g, dtype=np.float64)
    return g - float(np.dot(b, g))


# ---------------------------------------------------------------------------
# Noise sources

class GaussianNoise:
    """Standard normal noise in the target's raw space."""

    def __init__(self, target: TargetMeasure):
        self.target = target

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        return rng.generator().standard_normal((n, self.target.dim))


# ---------------------------------------------------------------------------
# Kernel evaluations (inputs are raw rows)

# Score tiles come in two levels, both of whole rows, so row reductions
# need no online merging. A reducer sees slabs of SCORE_CHUNK_BYTES of
# scores (at least one row): 1 MiB, 2^17 float64 or 2^18 float32 entries,
# stays resident in a 2 MiB per-core L2 cache while it makes its passes
# over the slab. One coupling_scores call, one matmul against the
# C-contiguous (d + 2, N) lifted support, fills a block of max(slab, 4 d)
# rows for a d-dimensional support, so each read of the support serves at
# least 4 d rows. The block buffer holds max(1 MiB, 4 d N scores) whatever
# the batch size.
SCORE_CHUNK_BYTES = 2**20

BOUND_MARGIN = 300.0  # an eps>0 row bound's slack: e^-300 squared is normal

_UNIT32 = 2.0**-24  # float32's unit roundoff
_TINY32 = 2.0**-124  # four times float32's smallest normal number
_PAD = 16  # float32 columns, one 64-byte cache line, of a padded eps=0 row


def _tile_rows(n: int, d: int, itemsize: int) -> tuple[int, int]:
    """``(block, slab)``: rows per matmul block and per reducer slab of
    scores of ``itemsize`` bytes."""
    slab = max(1, SCORE_CHUNK_BYTES // (itemsize * n))
    return max(slab, 4 * d), slab


def _aligned(shape, dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` starting on a 64-byte cache line: from
    numpy's 16-byte alignment a slab pass's 64-byte loads straddle two
    lines."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, np.uint8)
    lo = -raw.ctypes.data % 64
    return raw[lo:lo + size].view(dtype).reshape(shape)


def _f32_range(v):
    """Nonnegative ``v``, or ``inf`` from ``2^127`` up: there, a float32
    copy may overflow."""
    return np.where(v < 2.0**127, v, np.inf)


def _lifted_rows(pot: Potential, x: np.ndarray) -> np.ndarray:
    """The float64 rows ``[a x_i, 1]`` of raw noise rows ``x`` in coupling
    space (``[a x_i / eps, 1, unset]`` at eps>0)."""
    x = pot.cost.embed(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    d = x.shape[1]
    rows = np.empty((len(x), d + (1 if pot.eps == 0.0 else 2)))
    a = 1.0 if pot.cost.kind == NEG_DOT else 2.0
    np.multiply(x, a if pot.eps == 0.0 else a / pot.eps, out=rows[:, :d])
    rows[:, d] = 1.0
    return rows


def _shift(pot: Potential) -> np.ndarray:
    """The scores' shift row: ``g``, less ``|y_j|^2`` at the squared
    Euclidean cost."""
    return pot.g if pot.cost.kind == NEG_DOT else pot.g - pot._space._sq_norms


def coupling_scores(pot: Potential, x: np.ndarray,
                    out: Optional[np.ndarray] = None,
                    shift: Optional[np.ndarray] = None) -> np.ndarray:
    """Scores ``z_ij = g_j - c(x_i, y_j)`` of raw noise rows ``x`` at eps=0,
    and at eps>0 the softmax's exponents ``t_ij = z_ij / eps + log b_j``,
    up to a per-row constant: one matmul of the rows ``[a x_i, 1]`` (in
    coupling space, the coordinates over ``eps`` at eps>0) by the first d +
    1 rows of the target's lifted support (the module docstring), whose
    shift row this call first sets from its own potential: ``g`` (less
    ``|y_j|^2`` for the squared Euclidean cost), at eps>0 over ``eps``
    plus ``log b``. As ``g_j - |x - y_j|^2 = 2 <x, y_j> + (g_j - |y_j|^2)
    - |x|^2``, squared Euclidean scores (``a = 2``) carry ``+|x_i|^2``
    (over ``eps``); negative dot product ones are exact. Written to ``out`` (shape ``(len(x), N)``)
    when given, in its dtype. A float32 ``out`` (eps=0) makes it a block of
    a :func:`score_chunks` stream: ``x`` holds the block's float32 lifted
    rows, scored against the target's float32 lifted support with the
    stream's shift row, under its consumer's ``errstate``
    (:func:`argmax_chunks`). At eps>0 a ``-U_i`` column
    against the ones row subtracts row i's Cauchy-Schwarz bound ``U_i = |a
    x_i / eps| max_j |y_j| + max_j s_j`` (``s`` the shift row), also written
    to ``shift[i]``, where it exceeds the exponent at ``argmax s`` by at most
    :data:`BOUND_MARGIN`. Other rows keep their exponents and a ``NaN`` shift
    (:func:`~sdfm.numerics.softmax_b_eps_rows` subtracts their maximum).
    """
    lifted = pot._space._lifted
    if pot.eps == 0.0:
        if out is not None and out.dtype == np.float32:
            return np.matmul(x, pot._space._single, out=out)
        lifted[-2] = _shift(pot)
        return np.matmul(_lifted_rows(pot, x), lifted[:-1], out=out)
    lifted[-2] = _shift(pot) / pot.eps + pot._space.log_weights
    rows = _lifted_rows(pot, x)
    top = int(np.argmax(lifted[-2]))
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.linalg.norm(rows[:, :-2], axis=1) * pot._space._max_norm
        bound = reach + lifted[-2, top]
        safe = bound - rows[:, :-1] @ lifted[:-1, top] <= BOUND_MARGIN
    rows[:, -1] = np.where(safe, -bound, 0.0)
    if shift is not None:
        shift[:] = np.where(safe, bound, np.nan)
    return np.matmul(rows, lifted, out=out)


def score_chunks(pot: Potential, x: np.ndarray):
    """Yield ``(lo, hi, scores, shift)``: the :func:`coupling_scores` of
    rows ``lo:hi`` and their ``shift`` (empty at eps=0).

    The scan's one block loop: every reducer streams through here. One
    :func:`coupling_scores` call per block of rows (up to a per-row
    constant), yielded as L2-sized slabs (:data:`SCORE_CHUNK_BYTES`) of one
    cache-line aligned buffer per stream (:func:`_aligned`), at most max(1
    MiB, 4 d N scores) whatever ``len(x)``. A reducer may overwrite a slab
    and its shift until it asks for the next. Slabs hold float64 shifted
    exponents at eps>0 and float32 scores at eps=0, where
    :func:`argmax_chunks` reduces them. An eps=0 stream writes its shift
    row into the target's float32 support when it starts, so it runs to its
    end before another starts, and lifts each block's rows into one reused
    float32 array. Where ``4 N`` is a multiple of 4 KiB its rows are
    :data:`_PAD` ``-inf`` columns longer, so its slabs are ``(rows, N +
    16)``, a pad never a row's maximum: a row stride of whole pages aliases
    in cache, and the K = 3 matmul of a 64-row block at N = 4096 took 51
    µs, against 37 µs padded. :func:`coupling_scores` writes the ``(rows,
    N)`` view; the argmax passes read the padded rows whole, at a third of
    a strided view's cost.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = pot.target.n
    dtype = np.dtype(np.float32 if pot.eps == 0.0 else np.float64)
    block, slab = _tile_rows(n, pot.support.shape[1], dtype.itemsize)
    stride = n + _PAD if pot.eps == 0.0 and n % 1024 == 0 else n
    buf = _aligned((min(block, x.shape[0]), stride), dtype)
    buf[:, n:] = -np.inf
    shift = np.empty(x.shape[0] if pot.eps else 0)
    if pot.eps == 0.0:
        pot._space._single[-1] = _shift(pot)
        rows32 = np.ones((len(buf), pot.support.shape[1] + 1), np.float32)
        a = 1.0 if pot.cost.kind == NEG_DOT else 2.0
    for lo in range(0, x.shape[0], block):
        hi = min(lo + block, x.shape[0])
        rows = x[lo:hi]
        if pot.eps == 0.0:  # [a x_i, 1]: a x_i in float64, stored in float32
            rows = rows32[:hi - lo]
            np.multiply(pot.cost.embed(x[lo:hi]), a, out=rows[:, :-1])
        coupling_scores(pot, rows, buf[:hi - lo, :n], shift[lo:hi])
        for s in range(lo, hi, slab):
            e = min(s + slab, hi)
            yield s, e, buf[s - lo:e - lo], shift[s:e]


def argmax_chunks(pot: Potential, x: np.ndarray):
    """Yield ``(lo, hi, argmax)`` per slab of the eps=0
    :func:`score_chunks` stream: ``argmax`` is what
    :func:`~sdfm.numerics.argmax_with_ties` returns for the float64
    :func:`coupling_scores` of rows ``lo:hi``.

    The stream's float32 work runs first, under one ``errstate``, with no
    yield: per block its matmul, and per slab the two argmax passes of
    :func:`~sdfm.numerics.top_two`, which give each row's argmax and
    top-two gap. Then one test of every row's gap against the rounding
    bound below picks the rows it cannot settle. They are rescored in
    float64 through :func:`coupling_scores`, one call for the rows of
    each slab as it is yielded, and :func:`~sdfm.numerics.argmax_with_ties`
    resolves them, so there is one tie rule and the slabs' tie rows come
    in scan order. Each writes its shift row before its matmul, so streams
    of other potentials may interleave between slabs.

    **The rounding bound.** Let ``K = d + 1``, ``u = 2^-24``, ``γ_n = n u /
    (1 - n u)``, ``L`` the lifted support and ``S_i = sum_k |a x_ik| max_j
    |L_kj| + max_j |shift_j|``. Every float32 score of row ``i`` differs
    from its float64 score by at most

        β_i = γ_{K+2} S_i + 2^-124 (sum_k max_j |L_kj| + sum_k |a x_ik| + K + 1).

    Sketch: casting both factors of a product to float32 scales it by at
    most ``(1 + u)^2``, and a K-term float32 dot product errs by at most
    ``K u`` times the sum of its terms' magnitudes, in any summation order
    and with or without FMA (Jeannerod & Rump, SIMAX 2013). So the float32
    score lies within ``((1 + u)^2 (1 + K u) - 1) S_i`` of the exact one and
    the float64 score within ``K 2^-53 S_i``; both together stay below
    ``γ_{K+2} S_i``, whose ``(K + 2)^2 u^2`` term is the margin. Each cast,
    product and sum may also underflow, by less than 2^-126 flushed or
    2^-150 gradual; the second term bounds their sum. The bound needs every
    float32 value finite, so it is taken as ``inf`` when ``S_i`` reaches
    ``2^126`` or an operand ``2^127``. A row whose float32 top-two gap
    (taken in float64) exceeds ``2 β_i + ARGMAX_TIE_TOL`` then has float64
    scores with the same argmax and no other entry within ``ARGMAX_TIE_TOL``
    of it, which is the tie rule's one-hot row. Any other row, an infinite
    or NaN bound or gap included, is rescored in float64.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    coord_max = pot._space._coord_range
    k = len(coord_max) + 1
    gamma = (k + 2) * _UNIT32 / (1.0 - (k + 2) * _UNIT32)
    a = 1.0 if pot.cost.kind == NEG_DOT else 2.0
    idx, gap, slabs = np.empty(len(x), np.intp), np.empty(len(x)), []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, scores, _ in score_chunks(pot, x):
            if not slabs:  # the first slab is the widest
                starts = np.arange(0, scores.size, scores.shape[1])
            idx[lo:hi], first, second = top_two(scores, starts)
            np.subtract(first, second, out=gap[lo:hi], dtype=np.float64)
            slabs.append((lo, hi))
        scores = None  # frees the block buffer before β_i's temporaries
        bound = _f32_range(a * np.abs(pot.cost.embed(x))) @ \
            (gamma * coord_max + _TINY32)
        bound += gamma * _f32_range(np.abs(_shift(pot)).max()) + \
            _TINY32 * (coord_max.sum() + k + 1)
        bound[~(bound < gamma * 2.0**126)] = np.inf
        recheck = np.flatnonzero(~(gap > 2.0 * bound + ARGMAX_TIE_TOL))
    ends = np.searchsorted(recheck, [hi for _, hi in slabs]).tolist()
    no_weights = np.empty((0, pot.target.n))
    for (lo, hi), c, end in zip(slabs, [0] + ends, ends):
        part, rows = idx[lo:hi], recheck[c:end]
        tie_rows, tie_weights = rows, no_weights
        if rows.size:
            rows = rows - lo
            sub, ties, tie_weights = argmax_with_ties(
                coupling_scores(pot, x[lo + rows]), pot.target.weights)
            part[rows] = sub
            tie_rows = rows[ties]
        yield lo, hi, (part, tie_rows, tie_weights)


def _column_sums(pot: Potential, x: np.ndarray, squares: bool = False,
                 soft_c: Optional[np.ndarray] = None):
    """Column sums of the responsibilities of rows ``x`` and, with
    ``squares``, the column sums of their squares, else ``None``.

    At eps>0 one exp pass turns each slab of shifted exponents into
    unnormalised rows ``e``, and a matrix-vector product with ones gives
    their totals: with ``r = 1 / total`` the sums gain ``r @ e`` and the
    squares ``(r * r) @ (e * e)``. With ``soft_c`` (one entry per row) each
    row's soft-c transform is written there from the same tiles:
    ``f_{g,eps}(x_i) = -eps log sum_j b_j exp(score_ij / eps) = -eps (shift_i
    + log total_i)`` at eps>0, ``-max_j score_ij`` at eps=0, plus
    ``|x_i|^2`` for the squared Euclidean cost. The eps=0 maxima are
    gathered after the stream, in one ``vecdot`` with the chosen columns.
    """
    col_sum = np.zeros(pot.target.n)
    col_sq = np.zeros(pot.target.n) if squares else None
    if pot.eps == 0.0:
        chosen = []  # views of the stream's one index array
        for _, _, argmax in argmax_chunks(pot, x):
            eps0_column_stats(argmax, col_sum, col_sq)
            chosen.append(argmax[0])
        if soft_c is not None:  # each row's score at its chosen column
            lifted = pot._space._lifted
            lifted[-2] = _shift(pot)
            cols = lifted[:-1].T[np.concatenate(chosen)]
            np.vecdot(_lifted_rows(pot, x), cols, out=soft_c)
    else:
        ones = pot._space._lifted[-1]  # the lifted support's ones row
        for lo, hi, scores, shift in score_chunks(pot, x):
            softmax_b_eps_rows(scores, shift)
            total = scores @ ones
            if soft_c is not None:
                soft_c[lo:hi] = pot.eps * (shift + np.log(total))
            r = 1.0 / total
            col_sum += r @ scores
            if squares:
                np.square(scores, out=scores)
                col_sq += (r * r) @ scores
    if soft_c is not None:
        np.negative(soft_c, out=soft_c)
        if pot.cost.kind != NEG_DOT:
            x = pot.cost.embed(np.atleast_2d(np.asarray(x, dtype=np.float64)))
            soft_c += np.einsum("ij,ij->i", x, x)
    return col_sum, col_sq


def semidual_value(pot: Potential, noise_batch: np.ndarray) -> float:
    """Batch-mean estimate of ``F_eps(g) = E[f_{g,eps}(X)] + <b, g>``."""
    f = np.empty(np.atleast_2d(noise_batch).shape[0])
    _column_sums(pot, noise_batch, soft_c=f)
    return float(np.mean(f)) + float(np.dot(pot.target.weights, pot.g))


def stochastic_gradient(pot: Potential, noise_batch: np.ndarray) -> np.ndarray:
    """Gradient estimate ``b - mean_i s_{eps,g}(x_i)``; entries sum to 0."""
    m, _ = _column_sums(pot, noise_batch)
    m /= np.atleast_2d(noise_batch).shape[0]
    return pot.target.weights - m


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
    soft_c_mean: float  # mean soft-c transform f_{g,eps} over all the rows
    marginal: np.ndarray  # their mean responsibilities: an estimate of m(g)


def chi2_batches(pot: Potential, rng: Rng, total: int, batch: int,
                 noise=None) -> Chi2Scan:
    """:func:`chi2_estimator` of each noise batch over ``total`` draws.

    Batch ``k`` draws from ``rng.child(k)`` (``noise`` defaults to
    Gaussian). Batches hold ``batch`` rows and the last one the rest; a
    rest of one row joins the batch before it, so every row is used.
    From the same tiles, ``soft_c_mean + <b, g>`` estimates ``F_eps(g)``,
    and ``marginal`` estimates ``m(g)`` to about ``sqrt(m_j (1 - m_j) /
    total)`` per entry.
    """
    if total < 2 or batch < 2:
        raise ConfigurationError("need total >= 2 and batch >= 2 rows")
    if noise is None:
        noise = GaussianNoise(pot.target)
    values, f_sum = [], 0.0
    mass = np.zeros(pot.target.n)
    for k, lo in enumerate(range(0, total - 1, batch)):
        hi = total if total - lo <= batch + 1 else lo + batch
        x = noise.sample(rng.child(k), hi - lo)
        f = np.empty(len(x))
        values.append(chi2_estimator(pot, x, f, mass))
        f_sum += float(np.sum(f))
    scale = 1.0 / total
    return Chi2Scan(values, f_sum * scale, mass * scale)

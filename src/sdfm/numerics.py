"""Deterministic numerical substrate: splittable RNG and the row reductions.

The solver's reductions and updates run in float64. Only the eps=0 score
slabs are float32, and their argmax is re-checked in float64 wherever
float32 rounding could change it (:func:`sdfm.semidual.argmax_chunks`);
the flow model's parameters and training update are float32
(:class:`sdfm.flow.FlowModel`).
Randomness flows through :class:`Rng` values, which wrap a counter-based
(Philox) bit generator keyed on ``(seed, stream)``: the same value always
reproduces the same draws, and child streams derived with
:meth:`Rng.child` are independent of thread scheduling, so parallel
batches stay reproducible. Per-row randomness is
one prefix-stable draw of ``rng.generator().random(n)``: row ``i`` always
gets the ``i``-th uniform of its batch's stream (:func:`rng_batches`).
Gaussian starts follow the same rule: ``flow.gaussian_starts`` is one
``rng.generator().standard_normal((n, d))`` block, prefix-stable in ``n``.
A training step draws its noise block and then its times from one
generator, ``rng.child(step).generator()``, and pairs with
``rng.child(step).child(1)`` (``flow.train_flow``).

The score-slab reducers map over the slabs of the one scan loop, with one
mode each, on the caller's arrays: at eps>0 an in-place exp pass over the
bound-shifted exponents (:func:`softmax_b_eps_rows`); at eps=0 one top-two
pass (:func:`top_two`) for the float32 scan and the one tie rule
(:func:`argmax_with_ties`), whose column sums :func:`eps0_column_stats`
adds up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rng",
    "ARGMAX_TIE_TOL",
]

_MASK64 = (1 << 64) - 1

# Absolute tolerance for detecting score ties in the eps=0 argmax. Only
# exact float ties matter for correctness, so this is deliberately tight.
ARGMAX_TIE_TOL = 1e-12


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style finalizer combining two 64-bit words."""
    x = (a * 0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class Rng:
    """Immutable handle on a (seed, stream) pair of a counter-based generator.

    ``Rng`` values are cheap to copy and split. Every consumer derives a
    fresh :class:`numpy.random.Generator` via :meth:`generator`, so two
    calls with the same ``Rng`` value see bit-identical sequences.
    """

    seed: int
    stream: int = 0

    def _key(self) -> int:
        return ((self.seed & _MASK64) << 64) | (self.stream & _MASK64)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def child(self, index: int) -> "Rng":
        """Derive the ``index``-th child stream of this one."""
        return Rng(self.seed, _mix64(self.stream & _MASK64, index & _MASK64))


def rng_batches(rngs, n: int) -> list:
    """``(lo, hi, rng)`` of each equal batch; ``rngs``: one :class:`Rng` or a list.
    Row ``lo + i`` draws the ``i``-th uniform of its batch's stream."""
    rngs = [rngs] if isinstance(rngs, Rng) else rngs
    per, rest = divmod(n, len(rngs))
    if rest:
        raise ValueError(f"{n} rows do not split into {len(rngs)} batches")
    return [(k * per, (k + 1) * per, r) for k, r in enumerate(rngs)]


def top_two(scores: np.ndarray, starts: np.ndarray | None = None):
    """``(idx, first, second)``: each row's argmax, maximum, and maximum of
    its other entries, by two argmax passes and gathers, which cost less
    than a max pass. The maxima are set to ``-inf`` for the second pass and
    restored, through flat positions, so ``scores`` must be writable (a
    copy of it is written if it is not C-contiguous). ``starts``, each
    row's flat start ``i * scores.shape[1]`` for at least as many rows, lets
    a stream of equally wide slabs make it once."""
    flat = scores.reshape(-1)
    if starts is None:
        starts = np.arange(0, flat.size, scores.shape[1])
    starts = starts[:len(scores)]
    idx = scores.argmax(axis=1)
    pos = idx + starts
    first = flat[pos]
    flat[pos] = -np.inf
    second = flat[flat.reshape(scores.shape).argmax(axis=1) + starts]
    flat[pos] = first
    return idx, first, second


def argmax_with_ties(scores: np.ndarray, b: np.ndarray):
    """Row argmax plus the ``b``-weighted split of the (rare) tie rows.

    Returns ``(idx, tie_rows, tie_weights)``: ``tie_weights[k]`` is the
    distribution of row ``tie_rows[k]`` over its argmax set (entries within
    :data:`ARGMAX_TIE_TOL` of the row max), proportional to ``b``. This is
    the one tie rule of the package. Tie rows are found by the second-max
    pass of :func:`top_two`, so ``scores`` must be writable. A slab
    without ties, almost every one, returns right after that pass:
    ``tie_rows`` is empty and ``tie_weights`` has shape ``(0, N)``.
    """
    idx, best, second = top_two(scores)
    tie_rows = np.flatnonzero(second >= best - ARGMAX_TIE_TOL)
    if not tie_rows.size:
        return idx, tie_rows, np.empty((0, scores.shape[1]))
    close = scores[tie_rows] >= (best[tie_rows] - ARGMAX_TIE_TOL)[:, None]
    tie_weights = b * close
    tie_weights /= tie_weights.sum(axis=1, keepdims=True)
    return idx, tie_rows, tie_weights


def softmax_b_eps_rows(exponents: np.ndarray, shift: np.ndarray) -> None:
    """Unnormalised softmax of ``(B, N)`` shifted exponents, in place.

    Row ``i`` holds ``t_ij - shift_i`` for exponents ``t_ij = z_ij / eps +
    log b_j`` up to a per-row constant (:func:`sdfm.semidual.coupling_scores`
    at eps>0) and becomes ``exp(t_ij - shift_i)``; a row whose ``shift_i`` is
    ``NaN`` holds ``t_ij`` and first subtracts its maximum, its ``shift_i``.
    With the rows' totals ``s``, their responsibilities are ``exponents /
    s[:, None]`` and ``eps (shift + log s)`` is ``eps log sum_j b_j exp(z_ij
    / eps)`` plus ``eps`` times the constant.
    """
    for i in np.flatnonzero(np.isnan(shift)):  # rows whose bound is loose
        shift[i] = exponents[i].max()
        exponents[i] -= shift[i]
    np.exp(exponents, out=exponents)


def eps0_column_stats(argmax, col_sum: np.ndarray,
                      col_sq: np.ndarray | None = None) -> None:
    """Add the column sums (and squared sums) of eps=0 responsibility rows.

    ``argmax`` is ``(idx, tie_rows, tie_weights)`` as
    :func:`argmax_with_ties` returns it: the rows are one-hot on ``idx``,
    tie rows split by their ``tie_weights``; their sums are added to
    ``col_sum`` and, when given, their squared sums to ``col_sq``, without
    materializing the dense rows, in O(rows) work, so a stream of row tiles
    pays no O(N) step per tile and sums in the same order as one block.
    """
    idx, tie_rows, tie_weights = argmax
    if tie_rows.size:
        idx = np.delete(idx, tie_rows)
    np.add.at(col_sum, idx, 1.0)
    if col_sq is not None:
        np.add.at(col_sq, idx, 1.0)
    if tie_rows.size:
        col_sum += tie_weights.sum(axis=0)
        if col_sq is not None:
            col_sq += (tie_weights * tie_weights).sum(axis=0)


def _last_positive_column(w: np.ndarray) -> np.ndarray:
    return w.shape[1] - 1 - np.argmax(w[:, ::-1] > 0.0, axis=1)


def inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of nonnegative float ``weights``.

    Row ``i`` returns the first index whose running sum exceeds ``u[i]``
    times the row total, clamped to the last positive-weight index, so a
    zero weight is never drawn. Rows need a positive total, not a unit
    one; ``weights`` is not written. Blocks of ``k = ceil(sqrt(N))``
    columns make two levels: block sums (a matrix-vector product) and
    their running sums pick a block, a running sum inside it the index.
    """
    rows, n = weights.shape
    k = math.isqrt(n - 1) + 1
    full = n // k
    sums = weights[:, :full * k].reshape(rows, full, k) @ np.ones(k)
    if n % k:  # the ragged last block
        sums = np.column_stack([sums, weights[:, full * k:].sum(axis=1)])
    cum = np.cumsum(sums, axis=1)
    target = u * cum[:, -1]
    # The chosen block's running sum rises past the target inside it.
    blk = np.minimum((cum <= target[:, None]).sum(axis=1), _last_positive_column(sums))
    cols = blk[:, None] * k + np.arange(k)
    run = np.take_along_axis(weights, np.minimum(cols, n - 1), axis=1)
    run[cols >= n] = 0.0
    last = _last_positive_column(run)
    np.cumsum(run, axis=1, out=run)
    run += np.where(blk > 0, cum[np.arange(rows), blk - 1], 0.0)[:, None]
    # Rounding may leave the block's running sum at or below the target.
    return blk * k + np.minimum((run <= target[:, None]).sum(axis=1), last)

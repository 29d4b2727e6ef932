"""Deterministic numerical substrate: splittable RNG and the row reductions.

All solver math runs in float64. Randomness flows through :class:`Rng`
values, which wrap a counter-based (Philox) bit generator keyed on
``(seed, stream)``: the same value always reproduces the same draws, and
child streams derived with :meth:`Rng.child` are independent of thread
scheduling, so parallel batches stay reproducible. Per-row randomness is
one prefix-stable draw of ``rng.generator().random(n)``: row ``i`` always
gets the ``i``-th uniform of the stream, whatever the batch size.
Gaussian starts follow the same rule: ``flow.gaussian_starts`` is one
``rng.generator().standard_normal((n, d))`` block, prefix-stable in ``n``.
"""

from __future__ import annotations

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


def argmax_with_ties(scores: np.ndarray, b: np.ndarray,
                     tol: float = ARGMAX_TIE_TOL):
    """Row argmax plus the ``b``-weighted split of the (rare) tie rows.

    Returns ``(idx, tie_rows, tie_weights)``: ``tie_weights[k]`` is the
    distribution of row ``tie_rows[k]`` over its argmax set (entries within
    ``tol`` of the row max), proportional to ``b``. This is the one tie
    rule of the package. Tie rows are found by a second-max pass, which
    overwrites each row's maximum with ``-inf`` and restores it, so
    ``scores`` must be writable.
    """
    rows = np.arange(scores.shape[0])
    idx = scores.argmax(axis=1)
    best = scores[rows, idx]
    scores[rows, idx] = -np.inf
    second = scores.max(axis=1)
    scores[rows, idx] = best
    tie_rows = np.flatnonzero(second >= best - tol)
    close = scores[tie_rows] >= (best[tie_rows] - tol)[:, None]
    tie_weights = b * close
    tie_weights /= tie_weights.sum(axis=1, keepdims=True)
    return idx, tie_rows, tie_weights


def softmax_b_eps_rows(scores: np.ndarray, b: np.ndarray, eps: float,
                       out: np.ndarray | None = None,
                       log_b: np.ndarray | None = None,
                       smooth_max: np.ndarray | None = None) -> np.ndarray:
    """Weighted softmax over data indices, row by row, for ``(B, N)`` scores.

    For ``eps > 0`` row ``i`` is ``b_j exp(z_ij/eps)`` normalized (computed
    in the log domain). For ``eps = 0`` it is one-hot on the row argmax,
    with the ``b``-weighted split of :func:`argmax_with_ties` on tie rows.
    The rows go to ``out`` when given (``out=scores`` works in place),
    else to a fresh array; ``log_b`` spares the ``log(b)`` of a caller
    that streams many blocks against the same ``b``. With ``smooth_max``
    (one entry per row) each row's normaliser ``eps log sum_j b_j
    exp(z_ij/eps)`` is written there, taken from the row max and the row
    sum the softmax divides by; at ``eps = 0`` it is the row max.
    """
    scores = np.asarray(scores, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if eps == 0.0:
        idx, tie_rows, tie_weights = argmax_with_ties(scores, b)
        if smooth_max is not None:
            smooth_max[:] = scores[np.arange(scores.shape[0]), idx]
        if out is None:
            out = np.zeros_like(scores)
        else:
            out.fill(0.0)
        out[np.arange(scores.shape[0]), idx] = 1.0
        out[tie_rows] = tie_weights
        return out
    if log_b is None:
        with np.errstate(divide="ignore"):
            log_b = np.log(b)
    # exp(t - max_j t) row by row for t = scores / eps + log_b.
    e = np.divide(scores, eps, out=out)
    e += log_b
    m = e.max(axis=1)
    e -= m[:, None]
    np.exp(e, out=e)
    total = e.sum(axis=1, keepdims=True)
    if smooth_max is not None:
        smooth_max[:] = eps * (m + np.log(total[:, 0]))
    e /= total
    return e


def eps0_column_stats(scores: np.ndarray, b: np.ndarray,
                      row_weights: np.ndarray | None = None,
                      out: tuple | None = None,
                      row_max: np.ndarray | None = None):
    """Column sums and squared sums of eps=0 responsibility rows.

    Equivalent to summing ``softmax_b_eps_rows(scores, b, 0)`` and its
    square over rows (optionally row-weighted) without materializing the
    dense matrix. With ``out=(col_sum, col_sq)`` the sums are added to
    those arrays, row by row in O(rows) work, so a stream of row tiles
    pays no O(N) step per tile and sums in the same order as one block.
    With ``row_max`` (one entry per row) each row's maximum score is
    written there, gathered at the argmax the sums already need.
    """
    n = scores.shape[1]
    col_sum, col_sq = (np.zeros(n), np.zeros(n)) if out is None else out
    idx, tie_rows, tie_weights = argmax_with_ties(scores, b)
    if row_max is not None:
        row_max[:] = scores[np.arange(scores.shape[0]), idx]
    keep = np.ones(scores.shape[0], dtype=bool)
    keep[tie_rows] = False
    if row_weights is None:
        np.add.at(col_sum, idx[keep], 1.0)
        np.add.at(col_sq, idx[keep], 1.0)
    else:
        rw = np.asarray(row_weights, dtype=np.float64)
        np.add.at(col_sum, idx[keep], rw[keep])
        np.add.at(col_sq, idx[keep], rw[keep] ** 2)
        tie_weights = rw[tie_rows, None] * tie_weights
    if tie_rows.size:
        col_sum += tie_weights.sum(axis=0)
        col_sq += (tie_weights * tie_weights).sum(axis=0)
    return col_sum, col_sq


def inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of nonnegative float ``weights``.

    Row ``i`` returns the first index whose cumulative weight reaches
    ``u[i]`` times the row total; rows need not be normalized. The
    running sums are formed in place, so ``weights`` is overwritten. A
    cumulative sum of nonnegative terms never decreases, so that first
    index is the count of running sums below the threshold.
    """
    cdf = np.cumsum(weights, axis=1, out=weights)
    target = u * cdf[:, -1]
    return (cdf < target[:, None]).sum(axis=1, dtype=np.int64)

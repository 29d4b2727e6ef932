"""Cost functions between noise and data, and PCA.

The ground cost ``c(x, y)`` is either the negative dot product or the
squared Euclidean distance, evaluated in the coupling space: the raw
rows, or their PCA projection when the cost carries one.
:meth:`CostConfig.embed` is the one place that maps raw rows into that
space. The entropic regularization is a multiple of the cost scale:
:attr:`CostConfig.eps` is ``eps_raw`` times the standard deviation of a
reference cost matrix (:func:`estimate_cost_std`), so that one ``eps``
knob means the same thing across datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "CostConfig",
    "ProjectionMatrix",
    "ConfigurationError",
    "cost_matrix",
    "estimate_cost_std",
    "fit_pca",
    "NEG_DOT",
    "SQ_EUCLIDEAN",
    "REFERENCE_BATCH_SIZE",
]

NEG_DOT = "neg-dot"
SQ_EUCLIDEAN = "sq-euclidean"

# Size of the fixed reference batch used to rescale eps by the cost std,
# drawn once per run from a dedicated RNG stream.
REFERENCE_BATCH_SIZE = 1024

# Bytes of float64 costs per row block of estimate_cost_std: 128 rows of
# the 1024 x 1024 reference matrix.
STD_BLOCK_BYTES = 2**20


class ConfigurationError(ValueError):
    """Mismatched dimensions or inconsistent cost configuration."""


@dataclass(frozen=True)
class ProjectionMatrix:
    """Affine projection onto ``k`` orthonormal rows: ``x -> basis @ (x - mean)``."""

    basis: np.ndarray  # (k, d_in), orthonormal rows
    mean: np.ndarray  # (d_in,)
    explained_variance: np.ndarray = field(default_factory=lambda: np.zeros(0))
    padded: bool = False  # True when k exceeded the numerical rank

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        mean = np.asarray(self.mean, dtype=np.float64)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mean", mean)
        if basis.ndim != 2 or mean.shape != (basis.shape[1],):
            raise ConfigurationError("basis must be (k, d_in) with matching mean")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-8):
            raise ConfigurationError("projection rows are not orthonormal")

    @property
    def d_in(self) -> int:
        return self.basis.shape[1]

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.d_in:
            raise ConfigurationError(
                f"projection expects dimension {self.d_in}, got {x.shape[-1]}"
            )
        return (x - self.mean) @ self.basis.T


@dataclass(frozen=True)
class CostConfig:
    """Cost kind, projection, and regularization relative to the cost scale.

    ``eps_raw`` is a multiple of ``cost_std``, the reference cost std
    (see :func:`estimate_cost_std`) that :meth:`with_rescaled_eps` binds.
    The effective regularization :attr:`eps` is derived from the two.
    """

    kind: str = NEG_DOT
    eps_raw: float = 0.0
    projection: Optional[ProjectionMatrix] = None
    cost_std: float | None = None

    def __post_init__(self):
        if self.kind not in (NEG_DOT, SQ_EUCLIDEAN):
            raise ConfigurationError(f"unknown cost kind {self.kind!r}")
        if not 0.0 <= self.eps_raw < math.inf:
            raise ConfigurationError(
                f"eps_raw must be finite and >= 0, got {self.eps_raw}")
        if self.cost_std is not None and not 0.0 <= self.cost_std < math.inf:
            raise ConfigurationError(
                f"cost_std must be finite and >= 0, got {self.cost_std}")
        if math.isinf(self.eps):
            raise ConfigurationError(
                f"eps_raw {self.eps_raw} times cost_std {self.cost_std} overflows")

    @property
    def eps(self) -> float:
        """``eps_raw * cost_std``, or ``eps_raw`` while no std is bound."""
        if not self.cost_std:
            return float(self.eps_raw)
        return float(self.eps_raw * self.cost_std)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Raw rows ``x`` in coupling space: projected if a projection is set."""
        return x if self.projection is None else self.projection.apply(x)

    def with_rescaled_eps(self, cost_std: float) -> "CostConfig":
        """Bind the reference cost std (a std of 0 leaves ``eps == eps_raw``)."""
        return replace(self, cost_std=float(cost_std) if cost_std > 0.0 else 0.0)

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "eps_raw": self.eps_raw,
            "eps_effective": self.eps,
            "cost_std": self.cost_std,
            "projection_k": None if self.projection is None else self.projection.k,
        }


def cost_matrix(cfg: CostConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full ``(n, m)`` cost matrix between coupling-space rows ``x`` and ``y``,
    which are already embedded (see :meth:`CostConfig.embed`)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ConfigurationError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    out = np.matmul(x, y.T)
    if cfg.kind == NEG_DOT:
        return np.negative(out, out=out)
    # -2 x.y + (|x_i|^2 + |y_j|^2): the bits of (|x|^2 + |y|^2) - 2 x.y.
    # The norm sums are added in row groups of 2^15 entries (256 KiB), so
    # no second (n, m) array is made.
    out *= -2.0
    xx, yy = np.sum(x * x, axis=1), np.sum(y * y, axis=1)
    rows = max(1, 2**15 // max(1, len(yy)))
    for lo in range(0, len(xx), rows):
        out[lo:lo + rows] += xx[lo:lo + rows, None] + yy
    return np.maximum(out, 0.0, out=out)


def estimate_cost_std(cfg: CostConfig, noise_batch: np.ndarray,
                      data_batch: np.ndarray) -> float:
    """Sample std (ddof=1) of the cost matrix entries between raw batches.

    Taken over all ``n*m`` entries, evaluated in coupling space, in one
    pass over row blocks of at most ``STD_BLOCK_BYTES`` of costs: each
    block adds its sums of ``c - k`` and ``(c - k)**2`` around one shift
    ``k``, the first block's mean, so no ``(n, m)`` matrix is held (at
    most 1.4 MiB traced at 1024 x 1024, against 8.4 MiB for the whole
    matrix). It agrees with ``np.std(cost_matrix(...), ddof=1)`` to
    rounding (within 2.1e-16 relative over 60 random batches) but need not
    keep its bits. Returns 0 for a constant cost matrix, in which case the
    caller must disable rescaling.
    """
    noise_batch = np.atleast_2d(np.asarray(noise_batch, dtype=np.float64))
    data_batch = np.atleast_2d(np.asarray(data_batch, dtype=np.float64))
    n, m = noise_batch.shape[0], data_batch.shape[0]
    if n * m < 2:
        raise ConfigurationError("need at least 2 cost entries to estimate a std")
    noise, data = cfg.embed(noise_batch), cfg.embed(data_batch)
    rows = max(1, STD_BLOCK_BYTES // (8 * m))
    shift = total = squares = 0.0
    for lo in range(0, n, rows):
        c = cost_matrix(cfg, noise[lo:lo + rows], data)
        if not lo:
            shift = c.sum() / c.size
        c -= shift
        total += c.sum()
        squares += np.square(c, out=c).sum()
        del c  # the next block's matrix is made without this one
    var = (squares - total * total / (n * m)) / (n * m - 1)
    return float(np.sqrt(max(var, 0.0)))


def fit_pca(data: np.ndarray, k: int) -> ProjectionMatrix:
    """Top-``k`` principal basis from the eigenpairs of the scatter matrix.

    One ``eigh`` of the ``d x d`` matrix ``centered.T @ centered``. If
    ``k`` exceeds the numerical rank of the centered data, the trailing
    rows are eigenvectors of the null space (orthonormal all the same)
    with zero explained variance, and the result is flagged
    ``padded=True``.
    """
    # C-ordered: the mean and scatter matrix of a transposed view, such as
    # TargetMeasure.points, round differently.
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigurationError("data must be (N, d)")
    n, d = data.shape
    if not (1 <= k <= min(n, d)):
        raise ConfigurationError(f"need 1 <= k <= min(N, d) = {min(n, d)}, got {k}")
    mean = data.mean(axis=0)
    centered = data - mean
    evals, evecs = np.linalg.eigh(centered.T @ centered)  # ascending
    evals = evals[::-1][:k]
    basis = evecs[:, ::-1][:, :k].T  # (k, d) rows = principal directions
    # Eigenvalues within rounding of the largest are null-space directions.
    tol = max(n, d) * np.finfo(np.float64).eps * max(evals[0], 0.0)
    kept = evals > tol
    explained = np.where(kept, evals, 0.0) / max(n - 1, 1)
    return ProjectionMatrix(basis=basis, mean=mean, explained_variance=explained,
                            padded=not bool(kept.all()))

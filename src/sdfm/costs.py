"""Cost functions between noise and data, and PCA.

The ground cost ``c(x, y)`` is either the negative dot product or the
squared Euclidean distance, evaluated in the coupling space: the raw
rows, or their PCA projection when the cost carries one.
:meth:`CostConfig.embed` is the one place that maps raw rows into that
space. The effective entropic regularization is the raw value rescaled
by the standard deviation of a reference cost matrix, so that one
``eps`` knob means the same thing across datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .numerics import Rng

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

# cost_matrix adds the squared norms to at most this many entries of its
# output at a time (256 KiB of float64), so its one temporary stays small
# next to a caller's score block.
_NORM_CHUNK_ENTRIES = 2**15

# Randomized PCA: subspace-iteration passes and extra probe vectors.
_PCA_POWER_ITERS = 8
_PCA_OVERSAMPLE = 8


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
    """Cost kind, projection, and effective regularization.

    ``eps_effective`` is ``eps_raw`` times the reference cost std (see
    :func:`estimate_cost_std`); construction leaves it equal to
    ``eps_raw`` until :meth:`with_rescaled_eps` is applied.
    """

    kind: str = NEG_DOT
    eps_raw: float = 0.0
    eps_effective: float | None = None
    projection: Optional[ProjectionMatrix] = None
    cost_std: float | None = None  # std used for rescaling, for audit

    def __post_init__(self):
        if self.kind not in (NEG_DOT, SQ_EUCLIDEAN):
            raise ConfigurationError(f"unknown cost kind {self.kind!r}")
        if self.eps_raw < 0:
            raise ConfigurationError("eps_raw must be >= 0")
        if self.eps_effective is None:
            object.__setattr__(self, "eps_effective", float(self.eps_raw))

    @property
    def eps(self) -> float:
        return float(self.eps_effective)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Raw rows ``x`` in coupling space: projected if a projection is set."""
        return x if self.projection is None else self.projection.apply(x)

    def with_rescaled_eps(self, cost_std: float) -> "CostConfig":
        """Bind ``eps_effective = eps_raw * cost_std`` (no-op for std 0)."""
        if cost_std <= 0.0:
            return replace(self, eps_effective=float(self.eps_raw), cost_std=0.0)
        return replace(
            self,
            eps_effective=float(self.eps_raw * cost_std),
            cost_std=float(cost_std),
        )

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "eps_raw": self.eps_raw,
            "eps_effective": self.eps_effective,
            "cost_std": self.cost_std,
            "projection_k": None if self.projection is None else self.projection.k,
        }


def cost_matrix(cfg: CostConfig, x: np.ndarray, y: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Full ``(n, m)`` cost matrix between coupling-space rows ``x`` and ``y``.

    The rows are already embedded (see :meth:`CostConfig.embed`). Written
    to ``out`` (shape ``(n, m)``) when given, else to a fresh array; no
    other temporary is larger than the squares of ``x`` and ``y`` and
    :data:`_NORM_CHUNK_ENTRIES` entries.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}"
        )
    out = np.matmul(x, y.T, out=out)
    if cfg.kind == NEG_DOT:
        return np.negative(out, out=out)
    # -2 x.y + (|x_i|^2 + |y_j|^2) in row groups: the same bits as
    # (|x|^2 + |y|^2) - 2 x.y, without a second (n, m) array.
    out *= -2.0
    sq_x = np.sum(x * x, axis=1)[:, None]
    sq_y = np.sum(y * y, axis=1)
    step = max(1, _NORM_CHUNK_ENTRIES // len(sq_y))
    for lo in range(0, len(out), step):
        out[lo:lo + step] += sq_x[lo:lo + step] + sq_y
    np.maximum(out, 0.0, out=out)
    return out


def estimate_cost_std(cfg: CostConfig, noise_batch: np.ndarray,
                      data_batch: np.ndarray) -> float:
    """Sample std (ddof=1) of the cost matrix entries between raw batches.

    Exact over all ``n*m`` entries, evaluated in coupling space. Returns 0
    for a constant cost matrix, in which case the caller must disable
    rescaling.
    """
    noise_batch = np.atleast_2d(np.asarray(noise_batch, dtype=np.float64))
    data_batch = np.atleast_2d(np.asarray(data_batch, dtype=np.float64))
    if noise_batch.shape[0] * data_batch.shape[0] < 2:
        raise ConfigurationError("need at least 2 cost entries to estimate a std")
    c = cost_matrix(cfg, cfg.embed(noise_batch), cfg.embed(data_batch))
    return float(np.std(c, ddof=1))


def _orth(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(a)
    return q


def fit_pca(data: np.ndarray, k: int, rng: Rng) -> ProjectionMatrix:
    """Top-``k`` principal basis by randomized subspace (power) iteration.

    Runs :data:`_PCA_POWER_ITERS` passes with :data:`_PCA_OVERSAMPLE`
    extra probe vectors.
    If ``k`` exceeds the numerical rank of the centered data, the basis is
    completed with deterministic orthonormal directions and the result is
    flagged ``padded=True``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigurationError("data must be (N, d)")
    n, d = data.shape
    if not (1 <= k <= min(n, d)):
        raise ConfigurationError(f"need 1 <= k <= min(N, d) = {min(n, d)}, got {k}")
    mean = data.mean(axis=0)
    centered = data - mean

    width = min(d, k + _PCA_OVERSAMPLE)
    q = _orth(rng.generator().standard_normal((d, width)))
    for _ in range(_PCA_POWER_ITERS):
        q = _orth(centered.T @ (centered @ q))
    b = centered @ q
    _, s, vt = np.linalg.svd(b, full_matrices=False)
    basis = (q @ vt.T)[:, :k].T  # (k, d) rows = principal directions
    explained = (s[:k] ** 2) / max(n - 1, 1)

    # Rank deficiency: singular values below tol are noise directions.
    tol = max(n, d) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s[:k] > tol))
    padded = rank < k
    if padded:
        # Replace the junk directions with a deterministic orthonormal
        # completion from the null space of the kept rows.
        keep = basis[:rank]
        if rank:
            _, _, null_vt = np.linalg.svd(keep, full_matrices=True)
            comp = null_vt[rank: k]
        else:
            comp = np.eye(d)[:k]
        basis = np.vstack([keep, comp])
        explained = np.concatenate([explained[:rank], np.zeros(k - rank)])
    return ProjectionMatrix(basis=basis, mean=mean,
                            explained_variance=explained, padded=padded)

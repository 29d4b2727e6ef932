"""Cost functions between noise and data, conditional augmentation, and PCA.

The ground cost between augmented points ``(x, z)`` and ``(x', z')`` is

    c((x, z), (x', z')) = c_X(x, x') + beta * ||z - z'||^2

with ``c_X`` either the negative dot product or the squared Euclidean
distance, evaluated in the coupling space: the raw ``x`` rows, or their
PCA projection when the cost carries one. :meth:`CostConfig.embed` is the
one place that maps raw rows into that space; conditions are never
projected. The effective entropic regularization is
the raw value rescaled by the standard deviation of a reference cost
matrix, so that one ``eps`` knob means the same thing across datasets.
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
    """Cost kind, conditional temperature, and effective regularization.

    ``eps_effective`` is ``eps_raw`` times the reference cost std (see
    :func:`estimate_cost_std`); construction leaves it equal to
    ``eps_raw`` until :meth:`with_rescaled_eps` is applied.
    """

    kind: str = NEG_DOT
    beta: float = 0.0
    eps_raw: float = 0.0
    eps_effective: float | None = None
    projection: Optional[ProjectionMatrix] = None
    cost_std: float | None = None  # std used for rescaling, for audit

    def __post_init__(self):
        if self.kind not in (NEG_DOT, SQ_EUCLIDEAN):
            raise ConfigurationError(f"unknown cost kind {self.kind!r}")
        if self.beta < 0 or self.eps_raw < 0:
            raise ConfigurationError("beta and eps_raw must be >= 0")
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
            "beta": self.beta,
            "eps_raw": self.eps_raw,
            "eps_effective": self.eps_effective,
            "cost_std": self.cost_std,
            "projection_k": None if self.projection is None else self.projection.k,
        }


def _base_cost_matrix(kind: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape[1] != y.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}"
        )
    if kind == NEG_DOT:
        return -(x @ y.T)
    sq_x = np.sum(x * x, axis=1)[:, None]
    sq_y = np.sum(y * y, axis=1)[None, :]
    out = sq_x + sq_y - 2.0 * (x @ y.T)
    np.maximum(out, 0.0, out=out)
    return out


def cost_matrix(
    cfg: CostConfig,
    x: np.ndarray,
    y: np.ndarray,
    zx: Optional[np.ndarray] = None,
    zy: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Full ``(n, m)`` cost matrix between two batches of augmented points.

    ``x`` and ``y`` are coupling-space rows (see :meth:`CostConfig.embed`);
    conditions enter unprojected with weight ``beta``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    out = _base_cost_matrix(cfg.kind, x, y)
    if cfg.beta > 0.0:
        if zx is None or zy is None:
            raise ConfigurationError("beta > 0 requires conditions on both sides")
        zx = np.atleast_2d(np.asarray(zx, dtype=np.float64))
        zy = np.atleast_2d(np.asarray(zy, dtype=np.float64))
        out = out + cfg.beta * _base_cost_matrix(SQ_EUCLIDEAN, zx, zy)
    return out


def estimate_cost_std(
    cfg: CostConfig,
    noise_batch: np.ndarray,
    data_batch: np.ndarray,
    noise_conditions: Optional[np.ndarray] = None,
    data_conditions: Optional[np.ndarray] = None,
) -> float:
    """Sample std (ddof=1) of the cost matrix entries between raw batches.

    Exact over all ``n*m`` entries, evaluated in coupling space. Returns 0
    for a constant cost matrix, in which case the caller must disable
    rescaling.
    """
    noise_batch = np.atleast_2d(np.asarray(noise_batch, dtype=np.float64))
    data_batch = np.atleast_2d(np.asarray(data_batch, dtype=np.float64))
    if noise_batch.shape[0] * data_batch.shape[0] < 2:
        raise ConfigurationError("need at least 2 cost entries to estimate a std")
    c = cost_matrix(cfg, cfg.embed(noise_batch), cfg.embed(data_batch),
                    noise_conditions, data_conditions)
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

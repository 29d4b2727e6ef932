"""Reference implementations that only the tests use.

Dense responsibilities, the eps>0 score correction and its kernel-weighted
Monte-Carlo estimate: the library's commands never call these, so they
live beside the tests that check the library against them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from sdfm.costs import NEG_DOT
from sdfm.numerics import Rng, inverse_cdf, softmax_b_eps_rows
from sdfm.semidual import Potential, coupling_scores


def responsibilities_rows(pot: Potential, x: np.ndarray) -> np.ndarray:
    """Dense row-wise responsibilities, ``(B, N)``; each row sums to 1."""
    scores = coupling_scores(pot, x)
    e, total = softmax_b_eps_rows(scores, pot.target.weights, pot.eps, out=scores)
    return e / total[:, None]


def score_eps_positive(model, x: np.ndarray, t: float,
                       delta: np.ndarray) -> np.ndarray:
    """Score of an eps>0 semidiscrete flow: ``(t v(t, x) - x + delta) / (1 - t)``,
    with the correction ``delta`` inside the numerator."""
    if t >= 1.0:
        raise ValueError("score is defined for t < 1 only")
    x = np.asarray(x, dtype=np.float64)
    return (t * model(t, x) - x + delta) / (1.0 - t)


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

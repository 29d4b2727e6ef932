"""Toy flow-matching laboratory.

A small fully-connected velocity field ``v(t, x)`` with exact
reverse-mode gradients, the regression loss on pair displacements along
the linear interpolant, a coupling-parameterized training loop, fixed
step ODE samplers, the chord-deviation curvature metric, score recovery
from the velocity, and the replica-resampling scheme for sampling from a
geometric mixture of two flows.

The three coupling sources (independent, semidiscrete, minibatch OT) are
interchangeable: given identical pair batches, the parameter update is
identical code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coupling import (
    PairBatch,
    assign_batch,
    couple_independent,
    couple_minibatch_ot,
)
from .costs import NEG_DOT, ConfigurationError, CostConfig
from .numerics import Rng, inverse_cdf
from .semidual import Potential, TargetMeasure, responsibilities_rows

__all__ = [
    "FlowModel",
    "Trajectory",
    "GuidanceConfig",
    "TrainConfig",
    "IndependentCoupling",
    "SDCoupling",
    "MinibatchOTCoupling",
    "interpolate",
    "fm_loss_and_grad",
    "train_flow",
    "gaussian_starts",
    "integrate",
    "curvature",
    "score_from_velocity",
    "delta_eps_toy",
    "guided_sample",
    "DeltaEstimate",
]

# Training times avoid the 1/(1-t) singularity used only by score extraction.
T_MAX_TRAIN = 1.0 - 1e-3


def interpolate(x0: np.ndarray, x1: np.ndarray, t) -> np.ndarray:
    """Linear interpolant ``(1 - t) x0 + t x1``."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("interpolation time must lie in [0, 1]")
    if t_arr.ndim == 1 and x0.ndim == 2:
        t_arr = t_arr[:, None]
    return (1.0 - t_arr) * x0 + t_arr * x1


class FlowModel:
    """MLP velocity field with explicit parameters and exact backprop.

    Input is ``concat(x, t)``; hidden layers use tanh; the output
    layer is linear with dimension ``dim``. Parameters are exposed as one
    flat float64 vector (``theta``) to keep optimizers and tests simple.
    """

    def __init__(self, dim: int, hidden=(128, 128, 128),
                 rng: Optional[Rng] = None):
        self.dim = int(dim)
        if any(int(h) < 1 for h in hidden):
            raise ConfigurationError("hidden layer widths must be >= 1")
        self.sizes = [self.dim + 1, *hidden, self.dim]
        gen = (rng or Rng(0)).generator()
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(gen.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))

    # -- parameter vector ---------------------------------------------------

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_theta(self) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        pos = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = theta[pos: pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[i] = theta[pos: pos + b.size].copy()
            pos += b.size
        if pos != theta.size:
            raise ConfigurationError("parameter vector has the wrong length")

    def copy(self) -> "FlowModel":
        out = FlowModel.__new__(FlowModel)
        out.dim = self.dim
        out.sizes = list(self.sizes)
        out.weights = [w.copy() for w in self.weights]
        out.biases = [b.copy() for b in self.biases]
        return out

    # -- forward / backward -------------------------------------------------

    def _inputs(self, t, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        t_col = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1),
                                (x.shape[0], 1))
        return np.concatenate([x, t_col], axis=1)

    def _forward(self, inp: np.ndarray):
        acts = [inp]
        h = inp
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
            acts.append(h)
        out = h @ self.weights[-1] + self.biases[-1]
        return out, acts

    def velocity(self, t, x) -> np.ndarray:
        """Evaluate ``v(t, x)`` for a batch (or single point)."""
        single = np.asarray(x).ndim == 1
        out, _ = self._forward(self._inputs(t, x))
        return out[0] if single else out

    __call__ = velocity

    def backprop(self, acts: list, dout: np.ndarray) -> np.ndarray:
        """Flat gradient of ``sum(dout * forward(inp))`` in theta order.

        ``acts`` are the activations that ``_forward(inp)`` returned, so
        the forward pass is not run again.
        """
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = dout
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (1.0 - acts[layer] ** 2)
        return np.concatenate(
            [np.concatenate([gw.ravel(), gb]) for gw, gb in zip(grads_w, grads_b)]
        )


def fm_loss_and_grad(model: FlowModel, pairs: PairBatch, t=None,
                     rng: Optional[Rng] = None):
    """Flow-matching loss and exact parameter gradient on one batch.

    Loss is the batch mean of ``||(x1 - x0) - v(t, x_t)||^2`` along the
    linear interpolant. ``t`` may be supplied per pair; otherwise it is
    drawn uniformly on ``[0, 1 - 1e-3]`` from ``rng``.
    """
    x0 = pairs.noise
    x1 = pairs.points
    bsz = x0.shape[0]
    if t is None:
        if rng is None:
            raise ValueError("either t draws or an rng must be supplied")
        t = rng.generator().random(bsz) * T_MAX_TRAIN
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("training times must lie in [0, 1)")
    xt = interpolate(x0, x1, t)
    inp = model._inputs(t, xt)
    out, acts = model._forward(inp)
    residual = (x1 - x0) - out
    loss = float(np.mean(np.sum(residual**2, axis=1)))
    # d loss / d out = -2 residual / B
    grad = model.backprop(acts, -2.0 * residual / bsz)
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizer and coupling sources

class _Adam:
    """Adam with the standard constants."""

    LR, BETA1, BETA2, EPS = 1e-3, 0.9, 0.999, 1e-8

    def __init__(self, n: int):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.k = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.k += 1
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * grad * grad
        m_hat = self.m / (1 - self.BETA1**self.k)
        v_hat = self.v / (1 - self.BETA2**self.k)
        return theta - self.LR * m_hat / (np.sqrt(v_hat) + self.EPS)


class IndependentCoupling:
    """Pair provider drawing data indices i.i.d. from the target weights."""

    name = "independent"

    def __init__(self, target: TargetMeasure):
        self.target = target

    def pairs(self, rng: Rng, noise: np.ndarray) -> PairBatch:
        return couple_independent(self.target, noise, rng)


class SDCoupling:
    """Pair provider using a fitted semidiscrete potential."""

    name = "sd"

    def __init__(self, potential: Potential):
        self.potential = potential
        self.target = potential.target

    def pairs(self, rng: Rng, noise: np.ndarray) -> PairBatch:
        return assign_batch(self.potential, noise, rng)


class MinibatchOTCoupling:
    """Pair provider solving a fresh minibatch OT problem per request."""

    def __init__(self, target: TargetMeasure, cost: CostConfig, eps: float,
                 method: str = "sinkhorn"):
        self.target = target
        self.cost = cost
        self.eps = eps
        self.method = method
        self.name = f"minibatch-{method}"

    def pairs(self, rng: Rng, noise: np.ndarray) -> PairBatch:
        return couple_minibatch_ot(self.target, noise, self.cost, self.eps,
                                   rng, self.method)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch: int = 256

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigurationError("steps must be >= 0")
        if self.batch < 1:
            raise ConfigurationError("batch must be >= 1")


def train_flow(model: FlowModel, target: TargetMeasure, coupling,
               cfg: TrainConfig, rng: Rng, metrics=None) -> FlowModel:
    """Train the velocity field with pairs from ``coupling``.

    The coupling source is the only difference across runs: noise draws,
    time draws, and the parameter update are identical given identical
    pair batches. Aborts on a non-finite loss.
    """
    model = model.copy()
    theta = model.get_theta()
    opt = _Adam(theta.size)
    noise_dim = model.dim
    start = time.perf_counter()
    for step in range(cfg.steps):
        step_rng = rng.child(step)
        noise = step_rng.child(0).generator().standard_normal(
            (cfg.batch, noise_dim)
        )
        t0 = time.perf_counter()
        batch = coupling.pairs(step_rng.child(1), noise)
        pair_seconds = time.perf_counter() - t0
        loss, grad = fm_loss_and_grad(model, batch, rng=step_rng.child(2))
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite loss at step {step} (coupling={coupling.name})"
            )
        theta = opt.step(theta, grad)
        model.set_theta(theta)
        if metrics is not None:
            wall = (time.perf_counter() - start) * 1e3
            metrics.log(step, "fm_loss", loss, wall_ms=wall)
            metrics.log(step, "time_per_pair_ms",
                        (batch.time_per_pair or pair_seconds / cfg.batch) * 1e3,
                        wall_ms=wall)
            metrics.log(step, "pair_batch_ms", pair_seconds * 1e3, wall_ms=wall)
    return model


# ---------------------------------------------------------------------------
# Sampling, curvature, scores, guidance

@dataclass
class Trajectory:
    """Fixed-grid integration record: states and evaluated velocities."""

    times: np.ndarray  # (S+1,)
    states: np.ndarray  # (S+1, B, d)
    velocities: np.ndarray  # (S, B, d), field at the left grid points

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must start at 0 and strictly increase")

    @property
    def endpoints(self) -> np.ndarray:
        return self.states[-1]


def gaussian_starts(rng: Rng, count: int, dim: int) -> np.ndarray:
    """``count`` N(0, I) rows; row ``i`` is the ``i``-th of ``rng``'s stream."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    return rng.generator().standard_normal((count, dim))


def integrate(model, x0: np.ndarray, method: str = "euler",
              steps: int = 8, t_max: float = 1.0) -> Trajectory:
    """Integrate the flow ODE on a uniform grid with ``steps`` steps.

    ``model`` is any callable ``v(t, X) -> (B, d)``. Euler uses one
    evaluation per step; rk4 uses four. ``t_max < 1`` supports score-time
    evaluation.
    """
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    times = np.linspace(0.0, t_max, steps + 1)
    dt = t_max / steps
    states = np.empty((steps + 1, *x.shape))
    vels = np.empty((steps, *x.shape))
    states[0] = x
    for i in range(steps):
        t = times[i]
        k1 = model(t, x)
        vels[i] = k1
        if method == "euler":
            x = x + dt * k1
        elif method == "rk4":
            k2 = model(t + dt / 2, x + dt / 2 * k1)
            k3 = model(t + dt / 2, x + dt / 2 * k2)
            k4 = model(t + dt, x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            raise ConfigurationError(f"unknown solver {method!r}")
        states[i + 1] = x
    return Trajectory(times=times, states=states, velocities=vels)


def curvature(traj: Trajectory) -> float:
    """Chord-deviation energy of a trajectory batch.

    Mean over grid points (and batch) of ``||v(t, x_t) - (x_T - x_0)/T||^2``;
    zero exactly for straight constant-speed paths.
    """
    if traj.velocities.shape[0] < 2:
        raise ConfigurationError("curvature needs at least 2 grid velocities")
    t_final = traj.times[-1]
    chord = (traj.states[-1] - traj.states[0]) / t_final
    dev = traj.velocities - chord[None, :, :]
    return float(np.mean(np.sum(dev**2, axis=-1)))


def score_from_velocity(model, x: np.ndarray, t: float,
                        mode: str = "eps-zero-or-indep",
                        delta: Optional[np.ndarray] = None) -> np.ndarray:
    """Recover the marginal score from the velocity field at time ``t``.

    For independent or unregularized semidiscrete couplings the score is
    ``(t v(t, x) - x) / (1 - t)`` (checked against the closed-form
    Gaussian-mixture oracle). Mode ``eps-positive`` adds the correction
    ``delta`` inside the numerator: ``(t v - x + delta) / (1 - t)``.
    """
    if t >= 1.0:
        raise ValueError("score is defined for t < 1 only")
    x = np.asarray(x, dtype=np.float64)
    v = model(t, x)
    num = t * v - x
    if mode == "eps-positive":
        if delta is None:
            raise ValueError("eps-positive mode requires a delta correction")
        num = num + delta
    elif mode != "eps-zero-or-indep":
        raise ValueError(f"unknown score mode {mode!r}")
    return num / (1.0 - t)


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
    mean_x1 = s @ y  # E[X1 | X0], taken before the draw overwrites s
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


@dataclass(frozen=True)
class GuidanceConfig:
    """Geometric-mixture resampling parameters."""

    gamma: float = 1.0
    replicas: int = 16
    steps: int = 64
    t_clip: float = 0.99

    def __post_init__(self):
        if self.replicas < 1:
            raise ConfigurationError("need at least one replica")
        if not (0.0 < self.t_clip < 1.0):
            raise ConfigurationError("t_clip must lie in (0, 1)")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")


def guided_sample(model1, model2, cfg: GuidanceConfig, rng: Rng, count: int,
                  dim: Optional[int] = None):
    """``count`` draws from the geometric mixture of two flows via resampling.

    Draw ``i`` integrates ``R = cfg.replicas`` trajectories under the field
    ``gamma v1 + (1 - gamma) v2`` from rows ``i*R:(i+1)*R`` of
    :func:`gaussian_starts`, accumulates the weight functional

        w = gamma (gamma - 1) * integral_0^{t_clip} t/(1-t) ||v1 - v2||^2 dt

    by a left Riemann sum on the grid, and picks a replica index from
    ``softmax(w)`` with the ``i``-th uniform of ``rng.child(0)``. All
    ``count * R`` rows share one Euler loop, so a larger ``count`` extends
    a smaller one. Returns ``(endpoints (count, dim), weights (count, R))``.
    """
    dim = model1.dim if dim is None else dim
    gamma, reps = cfg.gamma, cfg.replicas
    x = gaussian_starts(rng, count * reps, dim)
    times = np.linspace(0.0, 1.0, cfg.steps + 1)
    dt = 1.0 / cfg.steps
    w = np.zeros(count * reps)
    for i in range(cfg.steps):
        t = times[i]
        v1 = np.atleast_2d(model1(t, x))
        v2 = np.atleast_2d(model2(t, x))
        if gamma != 0.0 and gamma != 1.0 and t < cfg.t_clip:
            diff = np.sum((v1 - v2) ** 2, axis=1)
            w += gamma * (gamma - 1.0) * (t / (1.0 - t)) * diff * dt
        x = x + dt * (gamma * v1 + (1.0 - gamma) * v2)
    w = w.reshape(count, reps)
    pick = inverse_cdf(np.exp(w - w.max(axis=1, keepdims=True)),
                       rng.child(0).generator().random(count))
    return x.reshape(count, reps, dim)[np.arange(count), pick], w

"""Toy flow-matching laboratory.

A small fully-connected velocity field ``v(t, x)`` with exact
reverse-mode gradients, the regression loss on pair displacements along
the linear interpolant, a coupling-parameterized training loop, fixed
step ODE samplers, the chord-deviation curvature metric, score recovery
from the velocity, and the replica-resampling scheme for sampling from a
geometric mixture of two flows.

The three coupling sources (independent, semidiscrete, minibatch OT) are
interchangeable: each is a function ``pair(noise, rngs)`` returning the
target index of every noise row of ``len(rngs)`` equal batches, and given
identical indices, the parameter update is identical code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .costs import ConfigurationError
from .numerics import Rng, inverse_cdf
from . import semidual
from .semidual import TargetMeasure

__all__ = [
    "FlowModel",
    "GuidanceConfig",
    "TrainConfig",
    "fm_loss_and_grad",
    "train_flow",
    "gaussian_starts",
    "integrate",
    "run_flow",
    "curvature",
    "score_from_velocity",
    "guided_sample",
]

# Training times avoid the 1/(1-t) singularity used only by score extraction.
T_MAX_TRAIN = 1.0 - 1e-3

PAIR_CHUNK_ROWS = 16384  # rows per pairing call of train_flow, in whole steps

# Rows per bias tile in FlowModel.velocity: 2048 rows of width 64 take the
# tiled add in 15.5 µs and the broadcast one in 33.4 µs (width 2: 1.5, 10.1).
BIAS_TILE_ROWS = 256


class FlowModel:
    """MLP velocity field with explicit parameters and exact backprop.

    Input is ``concat(x, t)``; hidden layers use tanh; the output
    layer is linear with dimension ``dim``. The parameters live in one
    flat float32 vector, ``theta``; ``weights`` and ``biases`` are
    per-layer views into it (:meth:`_views`), so whatever writes into
    ``theta`` (``set_theta``, the optimizer) updates the field. Sampling
    (:meth:`velocity`) and training (:func:`fm_loss_and_grad`) share one
    float32 forward pass, :meth:`_forward`, which reads the views with no
    cast; :meth:`backprop`, the gradient and Adam's update are float32
    too. Either pass has the bits of a plain float32 loop ``h = tanh(h @ w
    + b)``. Model files store ``theta`` as float64 (``save_model``).
    """

    def __init__(self, dim: int, hidden=(128, 128, 128),
                 rng: Optional[Rng] = None, theta: Optional[np.ndarray] = None):
        """Zero biases and scaled normal weights drawn from ``rng``, or with
        ``theta`` the parameters :meth:`set_theta` copies from it."""
        self.dim = int(dim)
        if any(int(h) < 1 for h in hidden):
            raise ConfigurationError("hidden layer widths must be >= 1")
        self.sizes = [self.dim + 1, *hidden, self.dim]
        self.theta = np.zeros(sum((a + 1) * b for a, b in
                                  zip(self.sizes, self.sizes[1:])), np.float32)
        self.weights, self.biases = self._views(self.theta)
        if theta is not None:
            self.set_theta(theta)
            return
        gen = (rng or Rng(0)).generator()
        for w in self.weights:
            w[...] = gen.standard_normal(w.shape) * np.sqrt(2.0 / sum(w.shape))

    # -- parameter vector ---------------------------------------------------

    def _views(self, flat: np.ndarray):
        """Per-layer ``(weights, biases)`` views into ``flat``: each layer's
        ``(fan_in, fan_out)`` weights row-major, then its biases."""
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            end = pos + fan_in * fan_out
            weights.append(flat[pos:end].reshape(fan_in, fan_out))
            biases.append(flat[end:end + fan_out])
            pos = end + fan_out
        return weights, biases

    def set_theta(self, theta: np.ndarray) -> None:
        """Copy the finite vector ``theta`` into the float32 parameters.
        Raises ``FloatingPointError``, without a cast warning, if an entry
        lies beyond float32's finite range."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.theta.shape or not np.all(np.isfinite(theta)):
            raise ConfigurationError(f"theta must be {self.theta.size} finite values")
        with np.errstate(over="ignore"):
            theta = theta.astype(np.float32)
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError("model parameters exceed the float32 range")
        self.theta[:] = theta

    def copy(self) -> "FlowModel":
        return FlowModel(self.dim, self.sizes[1:-1], theta=self.theta)

    @property
    def block(self) -> int:
        """Rows per block of :meth:`velocity`: ``SCORE_CHUNK_BYTES // (8
        max(sizes))``, 2048 at width 64 and 1024 at width 128."""
        return max(1, semidual.SCORE_CHUNK_BYTES // (8 * max(self.sizes)))

    def snapshot(self) -> Callable:
        """The field ``v(t, x)`` of the current ``theta``, with the model's
        ``dim``: :meth:`velocity` on one copy of ``theta`` and one set of
        block buffers and bias tiles that all its calls reuse, the same
        rows bit for bit. A later write to ``theta`` shows in the next
        snapshot only."""
        params = self._views(self.theta.copy())
        field = partial(self.velocity,
                        frozen=(params, self._buffers(params, self.block)))
        field.dim = self.dim
        return field

    def _buffers(self, params, rows: int):
        """:meth:`_forward`'s buffers for blocks of up to ``rows`` rows: the
        ``(rows, dim + 1)`` input, ``(2, rows · max(sizes))`` flat
        activations and the bias tiles, or ``None`` below
        ``BIAS_TILE_ROWS`` rows."""
        return (np.empty((rows, self.dim + 1), dtype=np.float32),
                np.empty((2, rows * max(self.sizes)), dtype=np.float32),
                _bias_tiles(params) if rows >= BIAS_TILE_ROWS else None)

    # -- forward / backward -------------------------------------------------

    def _forward(self, params, t, x: np.ndarray, buffers=None):
        """Float32 pass of the rows ``concat(x, t)``, one time per row.

        ``params`` is a :meth:`_views` pair. Returns ``(out, acts)``: the
        output rows and, for :meth:`backprop`, each layer's input.
        With :meth:`velocity`'s ``buffers`` (:meth:`_buffers`), layer ``k``
        writes a C-contiguous ``(rows, fan_out)`` view
        of ``buffers[1][k % 2]``, each whole tile of ``BIAS_TILE_ROWS`` rows
        adds its bias tile as one row, and ``acts`` is ``None``: same bits.
        """
        n = len(x)
        acts = [] if buffers is None else None
        inp, flat, tiles = buffers or (np.empty((n, self.dim + 1), np.float32),
                                       None, None)
        h = inp[:n]
        h[:, :-1] = x
        h[:, -1] = t
        whole = 0 if tiles is None else n - n % BIAS_TILE_ROWS
        for k, (w, b) in enumerate(zip(*params)):
            if acts is not None:
                acts.append(h)
            h = np.matmul(h, w, out=None if flat is None
                          else flat[k % 2, :n * w.shape[1]].reshape(n, -1))
            if whole:
                tiled = h[:whole].reshape(-1, tiles[k].size)
                np.add(tiled, tiles[k], out=tiled)
            if whole < n:
                h[whole:] += b
            if k < len(self.sizes) - 2:  # tanh on every hidden layer
                np.tanh(h, out=h)
        return h, acts

    def velocity(self, t, x, frozen=None) -> np.ndarray:
        """Evaluate ``v(t, x)`` for a batch (or single point), in float32.

        ``t`` is a scalar or one time per row. Each call reads ``weights``
        and ``biases`` unless given a :meth:`snapshot`'s ``frozen`` copy and
        buffers, every layer computes in float32 (:meth:`_forward`), and the
        rows are returned as float64 ``(len(x), dim)``.

        Rows are evaluated in blocks of :attr:`block` rows, through one
        input buffer and two flat activation buffers that every block reuses
        (:meth:`_buffers`, made once per call, or per snapshot), and copied
        into the result: beyond it, a call without a snapshot allocates at
        most 1.5 MiB plus ``BIAS_TILE_ROWS · Σ fan_out`` floats (194 KiB at
        d=2, width 64), whatever ``len(x)``, and a snapshot's call nothing
        but the result. Blocks start at multiples of the block size, so each
        row of a whole block has the same bits at any batch size.
        """
        params, buffers = frozen or ((self.weights, self.biases), None)
        single = np.asarray(x).ndim == 1
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = x.shape[0]
        t = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1), (n,))
        block = self.block
        if buffers is None:
            buffers = self._buffers(params, min(block, n))
        out = np.empty((n, self.dim))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            out[lo:hi] = self._forward(params, t[lo:hi], x[lo:hi], buffers)[0]
        return out[0] if single else out

    __call__ = velocity

    def backprop(self, params, acts: list, dout: np.ndarray) -> np.ndarray:
        """Flat float32 gradient of ``sum(dout * out)`` in theta order.

        ``params`` and ``acts`` are those of the :meth:`_forward` pass that
        gave ``out``, so that pass is not run again. Each layer's input,
        once its weight gradient is taken, is overwritten with ``1 - a**2``.
        """
        grad = np.empty(self.theta.size, dtype=np.float32)
        grads_w, grads_b = self._views(grad)
        delta = dout.astype(np.float32)
        ones = np.ones(len(delta), dtype=np.float32)  # column sums as a GEMV
        for layer in range(len(acts) - 1, -1, -1):
            np.matmul(acts[layer].T, delta, out=grads_w[layer])
            np.matmul(ones, delta, out=grads_b[layer])
            if layer > 0:  # delta @ w.T * (1 - a**2), in that order
                slope = np.subtract(1.0, np.square(acts[layer], out=acts[layer]),
                                    out=acts[layer])
                delta = np.multiply(delta @ params[0][layer].T, slope, out=slope)
        return grad


def _bias_tiles(params) -> list:
    """Each float32 bias repeated over ``BIAS_TILE_ROWS`` rows, flat."""
    return [np.full((BIAS_TILE_ROWS, b.size), b).ravel() for b in params[1]]


def fm_loss_and_grad(model: FlowModel, x0: np.ndarray, x1: np.ndarray, t):
    """Flow-matching loss and exact parameter gradient on one batch.

    Row ``i`` of the noise ``x0`` is paired with row ``i`` of the data
    ``x1`` at time ``t[i]`` in ``[0, 1)``. Loss is the batch mean of
    ``||(x1 - x0) - v(t, x_t)||^2`` along the linear interpolant; the
    gradient is a new flat float32 vector in ``theta`` order. The
    interpolant, residual and loss are float64; the forward pass reads the
    model's float32 views and backprop is float32. A non-finite loss comes
    with an all-NaN gradient, not backpropagated, and an overflow in
    backprop gives non-finite entries; neither warns.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("training times must lie in [0, 1)")
    params = model.weights, model.biases
    tc = t.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        out, acts = model._forward(params, t, (1.0 - tc) * x0 + tc * x1)
        residual = (x1 - x0) - out
        loss = float(np.mean(np.sum(residual**2, axis=1)))
        if not np.isfinite(loss):
            return loss, np.full(model.theta.size, np.nan, np.float32)
        # d loss / d out = -2 residual / B
        return loss, model.backprop(params, acts, -2.0 * residual / len(x0))


# ---------------------------------------------------------------------------
# Optimizer and training loop

class _Adam:
    """Adam with the standard constants; :meth:`step` updates in place, in
    the dtype of ``grad`` (float32 in training), bias corrections too."""

    LR, BETA1, BETA2, EPS = 1e-3, 0.9, 0.999, 1e-8
    k = 0  # steps taken

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        # theta -= LR * m_hat / (sqrt(v_hat) + EPS), in that order.
        if not self.k:  # the moments and two buffers, shaped like grad
            self.m, self.v, self._a, self._b = map(np.zeros_like, [grad] * 4)
        self.k += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= self.BETA1
        m += np.multiply(grad, 1 - self.BETA1, out=a)
        v *= self.BETA2
        v += np.multiply(np.multiply(grad, 1 - self.BETA2, out=a), grad, out=a)
        np.sqrt(np.divide(v, 1 - self.BETA2**self.k, out=b), out=b)
        b += self.EPS
        np.multiply(np.divide(m, 1 - self.BETA1**self.k, out=a), self.LR, out=a)
        theta -= np.divide(a, b, out=a)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch: int = 256

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigurationError("steps must be >= 0")
        if self.batch < 1:
            raise ConfigurationError("batch must be >= 1")


def train_flow(model: FlowModel, target: TargetMeasure,
               pair: Callable[[np.ndarray, list], np.ndarray],
               cfg: TrainConfig, rng: Rng, metrics=None) -> FlowModel:
    """Train the velocity field on pairs of noise rows and target points.

    ``pair(noise, rngs)`` returns the target index of each noise row
    (:mod:`sdfm.coupling`) and is the only difference across runs: noise
    draws, time draws, and the parameter update are identical given
    identical indices. Step ``s`` draws its noise and then its times,
    uniform on ``[0, T_MAX_TRAIN)``, from one ``rng.child(s).generator()``,
    and pairs with ``rng.child(s).child(1)``. A chunk of ``max(1,
    PAIR_CHUNK_ROWS // batch)`` steps draws into one noise array and pairs
    in one call, logged as ``pair_batch_ms`` and per-row
    ``time_per_pair_ms``; chunking changes no bit of the model. Adam updates
    a copy's float32 ``theta``. A non-finite loss or gradient raises
    ``FloatingPointError``.
    """
    model = model.copy()
    opt = _Adam()
    per_chunk = max(1, PAIR_CHUNK_ROWS // cfg.batch)
    noise = np.empty((min(per_chunk, cfg.steps) * cfg.batch, model.dim))
    times = np.empty((min(per_chunk, cfg.steps), cfg.batch))
    step_rngs = [rng.child(step) for step in range(cfg.steps)]
    start = time.perf_counter()
    for first in range(0, cfg.steps, per_chunk):
        rngs = step_rngs[first:first + per_chunk]
        for k, step_rng in enumerate(rngs):
            gen = step_rng.generator()
            gen.standard_normal(out=noise[k * cfg.batch:(k + 1) * cfg.batch])
            np.multiply(gen.random(out=times[k]), T_MAX_TRAIN, out=times[k])
        chunk = noise[:len(rngs) * cfg.batch]
        t0 = time.perf_counter()
        idx = pair(chunk, [step_rng.child(1) for step_rng in rngs])
        pair_ms = (time.perf_counter() - t0) * 1e3
        for k in range(len(rngs)):
            step, rows = first + k, slice(k * cfg.batch, (k + 1) * cfg.batch)
            loss, grad = fm_loss_and_grad(model, chunk[rows],
                                          target.points[idx[rows]], times[k])
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at step {step}")
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"non-finite gradient at step {step}")
            opt.step(model.theta, grad)
            if metrics is not None:
                wall = (time.perf_counter() - start) * 1e3
                metrics.log(step, "fm_loss", loss, wall_ms=wall)
                if not k:  # the chunk's pairing call
                    metrics.log(step, "time_per_pair_ms", pair_ms / len(chunk),
                                wall_ms=wall)
                    metrics.log(step, "pair_batch_ms", pair_ms, wall_ms=wall)
    return model


# ---------------------------------------------------------------------------
# Sampling, curvature, scores, guidance

def _start_stream(rng: Rng, count: int) -> np.random.Generator:
    """The generator whose stream gives the starts of ``count`` rows."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    return rng.generator()


def gaussian_starts(rng: Rng, count: int, dim: int) -> np.ndarray:
    """``count`` N(0, I) rows; row ``i`` is the ``i``-th of ``rng``'s stream."""
    return _start_stream(rng, count).standard_normal((count, dim))


def integrate(model, x0: np.ndarray, method: str = "euler", steps: int = 8):
    """Integrate the flow ODE over ``[0, 1]`` in ``steps`` uniform steps.

    ``model`` is any callable ``v(t, X) -> (B, d)``. Euler uses one
    evaluation per step; rk4 uses four. Returns ``(endpoints (B, d),
    velocities (steps, B, d))``, the field at the left grid points; the
    intermediate states are not kept. Every row is integrated on its own,
    so a row's endpoint has the same bits in any batch that the field
    gives it the same bits in (:func:`run_flow` relies on this). The
    velocity history grows with ``B``: a large batch is integrated by
    :func:`run_flow` in row blocks. Raises ``FloatingPointError`` if an
    endpoint is not finite (a non-finite velocity makes one).
    """
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    if method not in ("euler", "rk4"):
        raise ConfigurationError(f"unknown solver {method!r}")
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    times = np.linspace(0.0, 1.0, steps + 1)
    dt = 1.0 / steps
    vels = np.empty((steps, *x.shape))
    # A field that overflows is reported below as a numeric failure, not as
    # warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            t = times[i]
            k1 = vels[i] = model(t, x)
            if method == "euler":
                x = x + dt * k1
            else:
                k2 = model(t + dt / 2, x + dt / 2 * k1)
                k3 = model(t + dt / 2, x + dt / 2 * k2)
                k4 = model(t + dt, x + dt * k3)
                x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite flow endpoint")
    return x, vels


def run_flow(model: FlowModel, rng: Rng, count: int, method: str = "euler",
             steps: int = 8, keep: bool = True):
    """``count`` starts of ``rng`` integrated through ``model``, in row blocks.

    The starts are the rows of :func:`gaussian_starts` ``(rng, count,
    model.dim)``, drawn block by block from the same stream (sequential
    fills give the same bits as the one draw). Blocks are of
    ``model.block`` rows, the field's own block, and go through every
    step of :func:`integrate` on one :meth:`FlowModel.snapshot`, so every
    endpoint has the bits of one whole-batch :func:`integrate`. Each
    block's chord deviations are added into the :func:`curvature` sum
    before the next block starts, so the working memory beyond the
    ``(count, dim)`` endpoints does not grow with ``count``. The sum is
    taken in another order than the whole batch's, so the curvature may
    differ from :func:`curvature`'s in its last digits.

    Returns ``(endpoints, curvature)``: the ``(count, dim)`` endpoints if
    ``keep``, else ``None``, and the curvature, or ``None`` for one step,
    which has none. Raises ``FloatingPointError`` if an endpoint or the
    curvature is not finite.
    """
    gen = _start_stream(rng, count)
    field = model.snapshot()
    rows = min(model.block, count)
    starts = np.empty((rows, model.dim))
    x1 = np.empty((count, model.dim)) if keep else None
    total = 0.0
    for lo in range(0, count, rows):
        x0 = starts[:min(rows, count - lo)]
        gen.standard_normal(out=x0)
        end, vels = integrate(field, x0, method=method, steps=steps)
        if keep:
            x1[lo:lo + len(x0)] = end
        if steps >= 2:
            total += _deviation_sum(x0, end, vels)
        del end, vels  # the next block is integrated without these
    return x1, None if steps < 2 else _mean_deviation(total, steps * count)


def _deviation_sum(x0: np.ndarray, x1: np.ndarray, velocities) -> float:
    """Sum of ``||v - (x1 - x0)||^2`` over the grid and the rows, one grid
    step at a time through one ``(B, d)`` buffer."""
    chord = x1 - x0
    dev = np.empty(velocities.shape[1:])
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for v in velocities:
            np.subtract(v, chord, out=dev)
            np.square(dev, out=dev)
            total += float(np.sum(dev))
    return total


def _mean_deviation(total: float, terms: int) -> float:
    """``total / terms``, refused with ``FloatingPointError`` if not finite."""
    curv = total / terms
    if not np.isfinite(curv):
        raise FloatingPointError("non-finite curvature")
    return curv


def curvature(x0: np.ndarray, x1: np.ndarray, velocities: np.ndarray) -> float:
    """Chord-deviation energy of a trajectory batch over ``[0, 1]``.

    Mean over grid points (and batch) of ``||v(t, x_t) - (x_1 - x_0)||^2``
    for the velocities that :func:`integrate` returns with the endpoints
    ``x1`` of starts ``x0``; zero exactly for straight constant-speed paths.
    Reduces one grid step at a time through one ``(B, d)`` buffer, beside
    the ``(steps, B, d)`` velocities it is given; :func:`run_flow` takes the
    same sum block by block without them. Raises ``FloatingPointError`` if
    the result is not finite.
    """
    if velocities.shape[0] < 2:
        raise ConfigurationError("curvature needs at least 2 grid velocities")
    return _mean_deviation(_deviation_sum(x0, x1, velocities),
                           velocities[..., 0].size)


def score_from_velocity(model, x: np.ndarray, t: float) -> np.ndarray:
    """Recover the marginal score ``(t v(t, x) - x) / (1 - t)`` at time ``t``.

    Exact for independent or unregularized semidiscrete couplings
    (checked against the closed-form Gaussian-mixture oracle).
    """
    if t >= 1.0:
        raise ValueError("score is defined for t < 1 only")
    x = np.asarray(x, dtype=np.float64)
    return (t * model(t, x) - x) / (1.0 - t)


# The weight integral of guided_sample stops at T_CLIP. Its left Riemann
# sum never reaches t = 1, so t/(1 - t) stays finite without the clip,
# which drops only the grid times from 0.99 on: none below 100 Euler steps.
T_CLIP = 0.99


@dataclass(frozen=True)
class GuidanceConfig:
    """Geometric-mixture resampling parameters: the mixture exponent
    ``gamma`` (default 2.0, ``guide --gamma``'s), ``replicas`` per draw
    and Euler ``steps``. The weight integral's upper limit is the
    constant ``T_CLIP``."""

    gamma: float = 2.0
    replicas: int = 16
    steps: int = 64

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ConfigurationError("gamma must be finite")
        if self.replicas < 1:
            raise ConfigurationError("need at least one replica")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")


def guided_sample(model1, model2, cfg: GuidanceConfig, rng: Rng, count: int):
    """``count`` draws from the geometric mixture of two flows via resampling.

    Draw ``i`` integrates ``R = cfg.replicas`` trajectories under the field
    ``gamma v1 + (1 - gamma) v2`` from rows ``i*R:(i+1)*R`` of
    :func:`gaussian_starts`, accumulates the weight functional

        w = gamma (gamma - 1) * integral_0^{T_CLIP} t/(1-t) ||v1 - v2||^2 dt

    by a left Riemann sum on the grid, and picks a replica index from
    ``softmax(w)`` with the ``i``-th uniform of ``rng.child(0)``. All
    ``count * R`` rows share one Euler loop, so a larger ``count`` extends
    a smaller one. Both models map ``(t, x)`` with ``x`` of shape ``(rows,
    dim)``, ``dim = model1.dim``, to velocities of the same shape. Returns
    ``(endpoints (count, dim), weights (count, R))``;
    raises ``FloatingPointError`` if a weight or a draw is not finite.
    """
    dim = model1.dim
    gamma, reps = cfg.gamma, cfg.replicas
    x = gaussian_starts(rng, count * reps, dim)
    times = np.linspace(0.0, 1.0, cfg.steps + 1)
    dt = 1.0 / cfg.steps
    w = np.zeros(count * reps)
    # A large |gamma| can overflow the weights or the states; that is
    # reported below as a numeric failure, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.steps):
            t = times[i]
            v1 = model1(t, x)
            v2 = model2(t, x)
            if gamma != 0.0 and gamma != 1.0 and t < T_CLIP:
                diff = np.sum((v1 - v2) ** 2, axis=1)
                w += gamma * (gamma - 1.0) * (t / (1.0 - t)) * diff * dt
            x = x + dt * (gamma * v1 + (1.0 - gamma) * v2)
    if not np.all(np.isfinite(w)):
        raise FloatingPointError(f"non-finite guidance weight at gamma={gamma}")
    w = w.reshape(count, reps)
    pick = inverse_cdf(np.exp(w - w.max(axis=1, keepdims=True)),
                       rng.child(0).generator().random(count))
    draws = x.reshape(count, reps, dim)[np.arange(count), pick]
    if not np.all(np.isfinite(draws)):
        raise FloatingPointError(f"non-finite guided draw at gamma={gamma}")
    return draws, w

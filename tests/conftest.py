"""Shared fixtures: enumerated instances, closed-form 1-d oracles, and
exact solver checks of finite laws."""

import numpy as np
import pytest

from sdfm import solver
from sdfm.costs import NEG_DOT, CostConfig
from sdfm.numerics import Rng
from sdfm.semidual import TargetMeasure

from oracles import FiniteNoise, exact_check


@pytest.fixture(autouse=True)
def exact_solver_checks(monkeypatch):
    """Every solve checks an exact finite law exactly (:func:`exact_check`);
    the library streams every noise through one check."""
    monkeypatch.setattr(solver, "_chi2_check", exact_check(solver._chi2_check))


def make_enumerated_instance(seed, n_target=8, n_atoms=32, d=3, eps=0.5,
                             uniform=False, exact=True):
    """Random finite-noise instance where every expectation is a mean over
    the rows: each atom repeated 1 to 4 times. ``exact=False`` gives the
    law that the solver samples i.i.d."""
    gen = Rng(seed).generator()
    y = gen.standard_normal((n_target, d))
    if uniform:
        b = np.full(n_target, 1.0 / n_target)
    else:
        b = gen.random(n_target) + 0.5
        b /= b.sum()
    atoms = gen.standard_normal((n_atoms, d))
    counts = gen.integers(1, 5, n_atoms)
    target = TargetMeasure.from_points(y, b)
    cost = CostConfig(kind=NEG_DOT, eps_raw=eps)
    noise = FiniteNoise(atoms, counts, exact=exact)
    return target, cost, noise


class Mixture1D:
    """Independent coupling of N(0,1) with 1-d atoms: closed forms.

    The time-t law is the Gaussian mixture sum_j b_j N(t y_j, (1-t)^2),
    whose score and conditional-expectation velocity are exact.
    """

    def __init__(self, atoms, weights):
        self.y = np.asarray(atoms, dtype=np.float64)
        self.b = np.asarray(weights, dtype=np.float64)

    def _posterior(self, t, x):
        x = np.atleast_2d(x)
        s2 = (1.0 - t) ** 2
        logw = -((x - t * self.y[None, :]) ** 2) / (2.0 * s2) \
            + np.log(self.b)[None, :]
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        return w / w.sum(axis=1, keepdims=True)

    def velocity(self, t, x):
        x = np.atleast_2d(x)
        w = self._posterior(t, x)
        return (w * (self.y[None, :] - x)).sum(axis=1, keepdims=True) / (1.0 - t)

    def score(self, t, x):
        x = np.atleast_2d(x)
        s2 = (1.0 - t) ** 2
        w = self._posterior(t, x)
        return (w * (-(x - t * self.y[None, :]) / s2)).sum(axis=1, keepdims=True)


class GaussianFlow1D:
    """Exact velocity of the independent coupling N(0,1) -> N(mean, std^2).

    X_t is Gaussian with mean t*m and variance (1-t)^2 + t^2 std^2; the
    conditional-expectation velocity is affine in x.
    """

    dim = 1

    def __init__(self, mean, std=1.0):
        self.mean = float(mean)
        self.std = float(std)

    def path_moments(self, t):
        return t * self.mean, (1.0 - t) ** 2 + (t * self.std) ** 2

    def __call__(self, t, x):
        x = np.atleast_2d(x)
        m_t, var_t = self.path_moments(t)
        # d/dt of mean and std of the Gaussian path, transported affinely.
        dm = self.mean
        dvar = -2.0 * (1.0 - t) + 2.0 * t * self.std**2
        dstd_over_std = 0.5 * dvar / var_t
        return dm + dstd_over_std * (x - m_t)


@pytest.fixture
def rng():
    return Rng(1234)

"""Score recovery from velocities and geometric-mixture guidance in 1-d.

Uses closed-form velocity fields (no training) to show two identities:
the marginal score recovered from the velocity matches the analytic
Gaussian-mixture score, and resampled guidance trajectories land on the
geometric mixture of two Gaussian flows.

Run:  python demos/04_scores_and_guidance.py
"""

import numpy as np

from sdfm import GuidanceConfig, Rng, guided_sample, score_from_velocity


# ---- Part 1: Tweedie-style score recovery under the independent coupling
# Target: two atoms at +-1. The time-t law is a two-component Gaussian
# mixture with exact score and conditional-expectation velocity.
atoms = np.array([1.0, -1.0])
weights = np.array([0.5, 0.5])


def posterior(t, x):
    s2 = (1.0 - t) ** 2
    logw = -((x - t * atoms[None, :]) ** 2) / (2 * s2) + np.log(weights)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


def exact_velocity(t, x):
    w = posterior(t, np.atleast_2d(x))
    return (w * (atoms[None, :] - np.atleast_2d(x))).sum(axis=1, keepdims=True) / (1 - t)


def exact_score(t, x):
    x = np.atleast_2d(x)
    w = posterior(t, x)
    return (w * (-(x - t * atoms[None, :]) / (1 - t) ** 2)).sum(axis=1, keepdims=True)


grid = np.linspace(-2.5, 2.5, 41)[:, None]
print("max |recovered - analytic| score error:")
for t in (0.1, 0.5, 0.9):
    recovered = score_from_velocity(exact_velocity, grid, t)
    err = np.max(np.abs(recovered - exact_score(t, grid)))
    print(f"  t={t:.1f}: {err:.2e}")

# ---- Part 2: guidance between two Gaussian flows
# v1 transports N(0,1) to N(+1, 0.5^2), v2 to N(-1, 0.5^2). The gamma
# geometric mixture of the two equal-variance paths is the Gaussian with
# mean (2 gamma - 1): gamma = 2 targets mean 3.


class GaussianFlow:
    dim = 1

    def __init__(self, mean, std):
        self.mean, self.std = mean, std

    def __call__(self, t, x):
        var_t = (1 - t) ** 2 + (t * self.std) ** 2
        dvar = -2 * (1 - t) + 2 * t * self.std**2
        return self.mean + 0.5 * dvar / var_t * (np.atleast_2d(x) - t * self.mean)


flow_plus = GaussianFlow(1.0, 0.5)
flow_minus = GaussianFlow(-1.0, 0.5)
for gamma in (0.0, 1.0, 2.0):
    cfg = GuidanceConfig(gamma=gamma, replicas=64, steps=128)
    ends = guided_sample(flow_plus, flow_minus, cfg, Rng(5), 400)[0][:, 0]
    print(f"gamma={gamma}: endpoint mean {ends.mean():+.3f} "
          f"(geometric-mixture mean {2 * gamma - 1:+.1f}), std {ends.std():.3f}")

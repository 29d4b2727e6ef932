import numpy as np
import pytest

from sdfm.costs import NEG_DOT, CostConfig
from sdfm.coupling import PairBatch
from sdfm.flow import (
    FlowModel,
    GuidanceConfig,
    IndependentCoupling,
    SDCoupling,
    TrainConfig,
    Trajectory,
    curvature,
    delta_eps_toy,
    fm_loss_and_grad,
    guided_sample,
    integrate,
    interpolate,
    score_from_velocity,
    train_flow,
)
from sdfm.numerics import Rng
from sdfm.semidual import Potential, TargetMeasure

from conftest import GaussianFlow1D, Mixture1D


class TestInterpolate:
    def test_boundaries(self):
        x0 = np.array([1.0, 2.0])
        x1 = np.array([-3.0, 5.0])
        np.testing.assert_array_equal(interpolate(x0, x1, 0.0), x0)
        np.testing.assert_array_equal(interpolate(x0, x1, 1.0), x1)

    def test_quarter_point(self):
        out = interpolate(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.25)
        np.testing.assert_allclose(out, [0.5, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros(2), np.ones(2), 1.5)


def _make_batch(gen, b=6, d=2):
    x0 = gen.standard_normal((b, d))
    x1 = gen.standard_normal((b, d))
    return PairBatch(noise=x0, indices=np.zeros(b, dtype=int), points=x1)


class TestFmLoss:
    def test_perfect_regression_zero_loss(self):
        # Zero weights and the displacement in the output bias: v == x1 - x0.
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(0))
        model.set_theta(np.zeros(model.n_params))
        x0 = np.array([[1.0, 1.0]])
        x1 = np.array([[2.0, -1.0]])
        model.biases[-1] = (x1 - x0)[0]
        batch = PairBatch(noise=x0, indices=np.zeros(1, dtype=int), points=x1)
        loss, _ = fm_loss_and_grad(model, batch, t=np.array([0.3]))
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        gen = Rng(1).generator()
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(1))
        batch = _make_batch(gen)
        t = gen.random(6) * 0.9
        _, grad = fm_loss_and_grad(model, batch, t)
        theta = model.get_theta()
        h = 1e-6
        for i in gen.choice(theta.size, size=10, replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            mp, mm = model.copy(), model.copy()
            mp.set_theta(tp)
            mm.set_theta(tm)
            lp, _ = fm_loss_and_grad(mp, batch, t)
            lm, _ = fm_loss_and_grad(mm, batch, t)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-5 * max(abs(grad[i]), 1e-6)

    def test_quadratic_homogeneity(self):
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(2))
        model.set_theta(np.zeros(model.n_params))  # v == 0, residual = x1 - x0
        x0 = np.zeros((1, 2))
        x1 = np.array([[1.0, 2.0]])
        base = PairBatch(noise=x0, indices=np.zeros(1, dtype=int), points=x1)
        doubled = PairBatch(noise=x0, indices=np.zeros(1, dtype=int), points=2 * x1)
        t = np.array([0.4])
        l1, _ = fm_loss_and_grad(model, base, t)
        l2, _ = fm_loss_and_grad(model, doubled, t)
        assert l2 == pytest.approx(4.0 * l1)

    def test_rejects_t_at_one(self):
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(3))
        batch = _make_batch(Rng(3).generator(), b=2)
        with pytest.raises(ValueError):
            fm_loss_and_grad(model, batch, t=np.array([0.5, 1.0]))


class _FixedBatchCoupling:
    def __init__(self, batch, name):
        self.batch = batch
        self.name = name

    def pairs(self, rng, noise):
        return self.batch


class TestTrainFlow:
    def test_zero_steps_identity(self):
        target = TargetMeasure.from_points(Rng(4).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(4))
        out = train_flow(model, target, IndependentCoupling(target),
                         TrainConfig(steps=0, batch=4), Rng(5))
        np.testing.assert_array_equal(out.get_theta(), model.get_theta())

    def test_determinism(self):
        target = TargetMeasure.from_points(Rng(6).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(6))
        cfg = TrainConfig(steps=20, batch=8)
        a = train_flow(model, target, IndependentCoupling(target), cfg, Rng(7))
        b = train_flow(model, target, IndependentCoupling(target), cfg, Rng(7))
        np.testing.assert_array_equal(a.get_theta(), b.get_theta())

    def test_coupling_interchangeability(self):
        # Identical injected batches produce identical parameter updates,
        # whatever the provenance tag claims.
        gen = Rng(8).generator()
        target = TargetMeasure.from_points(gen.standard_normal((8, 2)))
        batch = _make_batch(gen, b=8)
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(8))
        cfg = TrainConfig(steps=5, batch=8)
        thetas = []
        for name in ("independent", "sd", "minibatch-sinkhorn"):
            out = train_flow(model, target, _FixedBatchCoupling(batch, name),
                             cfg, Rng(9))
            thetas.append(out.get_theta())
        np.testing.assert_array_equal(thetas[0], thetas[1])
        np.testing.assert_array_equal(thetas[0], thetas[2])

    def test_metrics_rows_carry_wall_time(self, tmp_path):
        from sdfm.container import MetricsWriter

        target = TargetMeasure.from_points(Rng(6).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(6))
        path = tmp_path / "m.csv"
        with MetricsWriter(str(path)) as metrics:
            train_flow(model, target, IndependentCoupling(target),
                       TrainConfig(steps=5, batch=8), Rng(7), metrics=metrics)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 15
        wall = [float(r[1]) for r in rows]
        assert wall == sorted(wall) and wall[-1] > 0.0

    def test_nan_loss_aborts(self):
        target = TargetMeasure.from_points(Rng(10).generator().standard_normal((4, 2)))
        bad = _make_batch(Rng(10).generator(), b=4)
        bad.points[0, 0] = np.nan
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(10))
        with pytest.raises(FloatingPointError):
            train_flow(model, target, _FixedBatchCoupling(bad, "independent"),
                       TrainConfig(steps=1, batch=4), Rng(11))

    def test_training_reduces_loss_on_sd_map(self):
        gen = Rng(12).generator()
        data = np.array([[2.0, 0.0], [-2.0, 0.0]])
        target = TargetMeasure.from_points(data)
        pot = Potential(g=np.zeros(2), target=target,
                        cost=CostConfig(kind=NEG_DOT, eps_raw=0.0))
        model = FlowModel(dim=2, hidden=(16, 16), rng=Rng(12))
        coupling = SDCoupling(pot)
        trained = train_flow(model, target, coupling,
                             TrainConfig(steps=300, batch=64), Rng(13))
        probe = gen.standard_normal((256, 2))
        batch = coupling.pairs(Rng(14), probe)
        t = np.full(256, 0.5)
        loss_before, _ = fm_loss_and_grad(model, batch, t)
        loss_after, _ = fm_loss_and_grad(trained, batch, t)
        assert loss_after < loss_before


class TestIntegrate:
    def test_constant_field_exact(self):
        c = np.array([0.5, -1.5])
        traj = integrate(lambda t, x: np.broadcast_to(c, x.shape), np.zeros(2),
                         method="euler", steps=7)
        np.testing.assert_allclose(traj.endpoints[0], c, atol=1e-15)

    def test_rk4_exponential(self):
        x0 = np.array([1.0, -2.0])
        traj = integrate(lambda t, x: x, x0, method="rk4", steps=16)
        np.testing.assert_allclose(traj.endpoints[0], np.e * x0, atol=1e-5)

    def test_euler_recurrence(self):
        traj = integrate(lambda t, x: x, np.array([1.0]), method="euler", steps=4)
        assert traj.endpoints[0][0] == pytest.approx((1 + 0.25) ** 4)

    def test_t_max_grid(self):
        traj = integrate(lambda t, x: x, np.array([1.0]), steps=5, t_max=0.5)
        assert traj.times[-1] == pytest.approx(0.5)
        assert len(traj.times) == 6


class TestCurvature:
    def test_straight_path_zero(self):
        c = np.array([1.0, 1.0])
        traj = integrate(lambda t, x: np.broadcast_to(c, x.shape), np.zeros(2),
                         method="euler", steps=8)
        assert curvature(traj) == pytest.approx(0.0, abs=1e-24)

    def test_quarter_circle_matches_quadrature(self):
        # Analytic path (cos, sin)(pi t / 2); compare the grid mean against
        # dense numerical quadrature of the same deviation integrand.
        from scipy.integrate import quad

        s = 512
        times = np.linspace(0.0, 1.0, s + 1)
        states = np.stack([np.cos(np.pi * times / 2), np.sin(np.pi * times / 2)],
                          axis=1)[:, None, :]
        vel_t = times[:-1]
        vels = (np.pi / 2) * np.stack(
            [-np.sin(np.pi * vel_t / 2), np.cos(np.pi * vel_t / 2)], axis=1
        )[:, None, :]
        traj = Trajectory(times=times, states=states, velocities=vels)
        chord = states[-1, 0] - states[0, 0]

        def integrand(t):
            v = (np.pi / 2) * np.array([-np.sin(np.pi * t / 2), np.cos(np.pi * t / 2)])
            return float(np.sum((v - chord) ** 2))

        oracle, _ = quad(integrand, 0.0, 1.0)
        assert curvature(traj) == pytest.approx(oracle, rel=0.01)
        assert curvature(traj) > 0

    def test_grid_refinement_stable(self):
        def field(t, x):
            return np.stack([-x[:, 1], x[:, 0]], axis=1)

        c1 = curvature(integrate(field, np.array([1.0, 0.0]), steps=64))
        c2 = curvature(integrate(field, np.array([1.0, 0.0]), steps=128))
        assert abs(c2 - c1) / c1 < 0.05


class TestScore:
    def test_t_zero_is_source_score(self):
        model = FlowModel(dim=3, hidden=(4,), rng=Rng(15))
        x = Rng(15).generator().standard_normal((5, 3))
        np.testing.assert_allclose(score_from_velocity(model, x, 0.0), -x,
                                   atol=1e-12)

    def test_rejects_t_one(self):
        model = FlowModel(dim=1, hidden=(4,), rng=Rng(16))
        with pytest.raises(ValueError):
            score_from_velocity(model, np.zeros((1, 1)), 1.0)

    def test_mixture_oracle_grid(self):
        mix = Mixture1D([1.0, -1.0], [0.5, 0.5])
        grid = np.linspace(-2.5, 2.5, 81)[:, None]
        for t in (0.1, 0.35, 0.6, 0.85):
            got = score_from_velocity(lambda tt, xx: mix.velocity(tt, xx), grid, t)
            want = mix.score(t, grid)
            assert np.max(np.abs(got - want)) <= 1e-3

    def test_eps_zero_piecewise_map(self):
        # Two atoms, threshold transport map; the exact map velocity
        # recovers -T_t^{-1}(x)/(1-t).
        ys = np.array([1.0, -1.0])
        g = np.array([0.3, 0.0])
        x_star = (g[1] - g[0]) / (ys[0] - ys[1])

        def t1(x0):
            return np.where(x0 >= x_star, ys[0], ys[1])

        def map_velocity(t, xt):
            xt = np.atleast_2d(xt)
            # invert T_t on each branch
            x0_plus = (xt - t * ys[0]) / (1 - t)
            x0_minus = (xt - t * ys[1]) / (1 - t)
            x0 = np.where(x0_plus >= x_star, x0_plus, x0_minus)
            return (xt - x0) / t

        t = 0.55
        gen = Rng(17).generator()
        x0 = gen.standard_normal((200, 1))
        xt = (1 - t) * x0 + t * t1(x0)
        got = score_from_velocity(lambda tt, xx: map_velocity(tt, xx), xt, t)
        want = -x0 / (1 - t)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_eps_positive_mode_adds_delta(self):
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(18))
        x = np.array([[0.5, -0.5]])
        t = 0.4
        delta = np.array([[0.2, 0.1]])
        base = score_from_velocity(model, x, t)
        corrected = score_from_velocity(model, x, t, mode="eps-positive",
                                        delta=delta)
        np.testing.assert_allclose(corrected, base + delta / (1 - t), atol=1e-14)


class TestDeltaEps:
    def _toy_potential(self, eps):
        target = TargetMeasure.from_points([[1.0], [-1.0]])
        return Potential(g=np.zeros(2), target=target,
                         cost=CostConfig(kind=NEG_DOT, eps_raw=eps))

    def test_independent_limit_vanishes(self):
        # The conditional-expectation gap is O(1) before the 1/eps factor,
        # so allow the analytic O(1/eps) remainder on top of 3 sigma.
        pot = self._toy_potential(1e6)
        est = delta_eps_toy(pot, np.array([0.8]), t=0.5, samples=20_000,
                            rng=Rng(19))
        assert np.all(np.abs(est.value) <= 3 * est.std_error + 4.0 / 1e6)

    def test_small_eps_vanishes(self):
        # Query inside the one-hot branch of the near-deterministic coupling;
        # the kernel must be narrow enough not to pool the O(1/eps) boundary
        # samples from the other mode of the bimodal X_t cloud.
        pot = self._toy_potential(1e-3)
        est = delta_eps_toy(pot, np.array([0.8]), t=0.5, samples=20_000,
                            rng=Rng(20), bandwidth=0.05)
        assert np.linalg.norm(est.value) <= 1e-2

    def test_single_atom_exactly_zero(self):
        target = TargetMeasure.from_points([[0.7]])
        pot = Potential(g=np.zeros(1), target=target,
                        cost=CostConfig(kind=NEG_DOT, eps_raw=0.5))
        est = delta_eps_toy(pot, np.array([0.1]), t=0.5, samples=2000,
                            rng=Rng(21))
        np.testing.assert_array_equal(est.value, [0.0])

    def test_low_ess_raises(self):
        pot = self._toy_potential(0.5)
        with pytest.raises(RuntimeError):
            delta_eps_toy(pot, np.array([50.0]), t=0.5, samples=200,
                          rng=Rng(22), bandwidth=1e-6)


class TestGuidance:
    def test_gamma_one_follows_model1(self):
        flow1 = GaussianFlow1D(1.0, 0.7)
        flow2 = GaussianFlow1D(-1.0, 0.7)
        cfg = GuidanceConfig(gamma=1.0, replicas=1, steps=32)
        (sample,), (weights,) = guided_sample(flow1, flow2, cfg, Rng(23), 1,
                                              dim=1)
        np.testing.assert_array_equal(weights, [0.0])
        x0 = Rng(23).generator().standard_normal((1, 1))
        traj = integrate(flow1, x0, method="euler", steps=32)
        np.testing.assert_allclose(sample, traj.endpoints[0], atol=1e-12)

    def test_gamma_zero_follows_model2(self):
        flow1 = GaussianFlow1D(1.0)
        flow2 = GaussianFlow1D(-1.0)
        cfg = GuidanceConfig(gamma=0.0, replicas=1, steps=32)
        (sample,), (weights,) = guided_sample(flow1, flow2, cfg, Rng(24), 1,
                                              dim=1)
        np.testing.assert_array_equal(weights, [0.0])
        x0 = Rng(24).generator().standard_normal((1, 1))
        traj = integrate(flow2, x0, method="euler", steps=32)
        np.testing.assert_allclose(sample, traj.endpoints[0], atol=1e-12)

    def test_weight_formula_equivalence(self):
        # The general inner-product weight integrand collapses to
        # t/(1-t) ||v1 - v2||^2 when both scores come from the velocity
        # formula: algebraic identity at random states.
        gen = Rng(25).generator()
        for _ in range(50):
            t = float(gen.random() * 0.95)
            x = gen.standard_normal((1, 3))
            v1 = gen.standard_normal((1, 3))
            v2 = gen.standard_normal((1, 3))
            s1 = (t * v1 - x) / (1 - t)
            s2 = (t * v2 - x) / (1 - t)
            general = float(np.sum((v1 - v2) * (s1 - s2)))
            simplified = t / (1 - t) * float(np.sum((v1 - v2) ** 2))
            assert general == pytest.approx(simplified, abs=1e-10)

    def test_equal_variance_weights_constant(self):
        flow1 = GaussianFlow1D(1.0, 0.5)
        flow2 = GaussianFlow1D(-1.0, 0.5)
        cfg = GuidanceConfig(gamma=2.0, replicas=8, steps=64)
        _, (weights,) = guided_sample(flow1, flow2, cfg, Rng(26), 1, dim=1)
        assert np.max(np.abs(weights - weights[0])) < 1e-9

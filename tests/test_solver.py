import numpy as np
import pytest

from sdfm.costs import NEG_DOT, SQ_EUCLIDEAN, ConfigurationError, CostConfig, cost_matrix
from sdfm.coupling import oracle_discrete_ot
from sdfm.numerics import Rng
from sdfm import semidual, solver
from sdfm.semidual import (
    DiscreteNoise,
    GaussianNoise,
    Potential,
    TargetMeasure,
    chi2_exact,
    marginal_exact,
    semidual_value,
)
from sdfm.solver import (
    SolverConfig,
    SolverDivergence,
    lr_schedule,
    smoothness_bound,
    solve_sdot,
)

from conftest import make_enumerated_instance


class TestLrSchedule:
    def test_constant_theorem_rate(self):
        cfg = SolverConfig(optimizer="sgd-constant", constant_phase=100,
                           decay_phase=0, averaging_window=25,
                           theory_delta=1.0, theory_smoothness=1.0)
        for k in (0, 13, 99):
            assert lr_schedule(cfg, k) == pytest.approx(0.1)

    def test_decay_rate(self):
        cfg = SolverConfig(optimizer="sgd-decay", constant_phase=100,
                           decay_phase=0, averaging_window=25,
                           theory_delta=1.0, theory_smoothness=1.0)
        assert lr_schedule(cfg, 4) == pytest.approx(0.5)
        assert lr_schedule(cfg, 0) == pytest.approx(1.0)  # max(k, 1)

    def test_decay_is_nonincreasing(self):
        cfg = SolverConfig(optimizer="sgd-decay", constant_phase=1000,
                           decay_phase=0, averaging_window=100,
                           theory_delta=2.0, theory_smoothness=0.5)
        rates = [lr_schedule(cfg, k) for k in range(1, 500)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        # 1/sqrt(k) scaling: quadrupling k halves the rate.
        assert lr_schedule(cfg, 400) == pytest.approx(lr_schedule(cfg, 100) / 2)

    def test_theory_mode_requires_constants(self):
        cfg = SolverConfig(optimizer="sgd-decay", constant_phase=10,
                           decay_phase=0, averaging_window=5)
        with pytest.raises(ConfigurationError):
            lr_schedule(cfg, 1)

    def test_adagrad_base_then_decay(self):
        cfg = SolverConfig(optimizer="adagrad", base_lr=2.0, constant_phase=100,
                           decay_phase=300, averaging_window=100)
        assert lr_schedule(cfg, 0) == 2.0
        assert lr_schedule(cfg, 99) == 2.0
        assert lr_schedule(cfg, 400) == pytest.approx(2.0 * np.sqrt(100 / 400))


class TestSmoothnessBound:
    def test_reciprocal_eps(self):
        assert smoothness_bound(np.array([[0.0], [1.0]]), 0.5) == pytest.approx(2.0)

    def test_eps_zero_formula(self):
        # Two points at distance 2 in d=16: 4 * 16^(1/4) / 2 = 4.
        support = np.zeros((2, 16))
        support[:, 0] = [1.0, -1.0]
        assert smoothness_bound(support, 0.0) == pytest.approx(4.0)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ConfigurationError):
            smoothness_bound(np.array([[1.0], [1.0]]), 0.0)


class TestSolveSdot:
    def test_single_atom_immediate(self):
        target = TargetMeasure.from_points([[0.3, -0.7]])
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.0)
        cfg = SolverConfig(constant_phase=100, decay_phase=0,
                           averaging_window=10, chi2_total=64, chi2_batch=32)
        pot = solve_sdot(target, cost, cfg, Rng(0))
        np.testing.assert_array_equal(pot.g, [0.0])
        assert pot.provenance["iterations"] == 0
        assert pot.provenance["final_chi2"] == pytest.approx(0.0, abs=1e-12)
        assert pot.provenance["stop_reason"] == "tau"

    def test_symmetric_two_atoms(self):
        target = TargetMeasure.from_points([[1.0, 0.0], [-1.0, 0.0]])
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.5)
        cfg = SolverConfig(constant_phase=2000, decay_phase=1000,
                           averaging_window=750, batch=64, tau=1e-4,
                           chi2_total=2**13, chi2_batch=2**10)
        pot = solve_sdot(target, cost, cfg, Rng(1))
        assert np.max(np.abs(pot.g)) <= 1e-2 * np.max(np.abs(pot.g)) + 1e-3 + 0.02

    def test_eps_zero_requires_negdot(self):
        target = TargetMeasure.from_points([[1.0], [-1.0]])
        cost = CostConfig(kind=SQ_EUCLIDEAN, eps_raw=0.0)
        cfg = SolverConfig(constant_phase=10, decay_phase=0, averaging_window=5)
        with pytest.raises(ConfigurationError):
            solve_sdot(target, cost, cfg, Rng(0))

    def test_oracle_dual_equivalence_quick(self):
        target, cost, noise = make_enumerated_instance(42, n_target=6,
                                                       n_atoms=24, eps=0.5)
        cfg = SolverConfig(optimizer="adagrad", base_lr=1.0,
                           constant_phase=4000, decay_phase=2000,
                           averaging_window=1500, tau=1e-10,
                           check_interval=1000)
        pot = solve_sdot(target, cost, cfg, Rng(2), noise=noise)
        atoms, w = noise.enumerate()
        costs = cost_matrix(cost, atoms, target.points)
        _, _, g_star, _ = oracle_discrete_ot(costs, w, target.weights, cost.eps)
        tol = 1e-2 * np.max(np.abs(g_star)) + 1e-3
        assert np.max(np.abs(pot.g - g_star)) <= tol
        m = marginal_exact(pot, noise)
        assert 0.5 * np.abs(m - target.weights).sum() <= 1e-3

    def test_gauge_of_returned_potential(self):
        target, cost, noise = make_enumerated_instance(43)
        cfg = SolverConfig(constant_phase=500, decay_phase=0,
                           averaging_window=100, tau=1e-12, check_interval=250)
        pot = solve_sdot(target, cost, cfg, Rng(3), noise=noise)
        assert abs(np.dot(target.weights, pot.g)) < 1e-12

    def test_uniform_weight_mean_drift(self):
        # Gradient entries sum to zero, so plain SGD keeps sum(g) fixed.
        target, cost, noise = make_enumerated_instance(44, uniform=True)
        cfg = SolverConfig(optimizer="sgd-decay", theory_delta=1.0,
                           theory_smoothness=2.0, constant_phase=1000,
                           decay_phase=0, averaging_window=10, batch=16,
                           tau=1e-12, check_interval=10**6)
        captured = []

        def grab(k, pot, chi2):
            captured.append(pot.g.sum())

        solve_sdot(target, cost, cfg, Rng(4), noise=DiscreteNoise(
            *noise.enumerate(), exact=False), checkpoint_cb=grab)
        # The averaged, gauge-fixed candidate sums to ~0; check via raw repeat:
        state_g = np.zeros(target.n)
        gen_rng = Rng(4).child(0)
        atoms, w = noise.enumerate()
        src = DiscreteNoise(atoms, w, exact=False)
        from sdfm.numerics import softmax_b_eps_rows

        for k in range(1000):
            x = src.sample(gen_rng.child(k), 16)
            c = cost_matrix(cost, x, target.points)
            s = softmax_b_eps_rows(state_g[None, :] - c, target.weights, cost.eps)
            grad = target.weights - s.mean(axis=0)
            state_g += lr_schedule(cfg, k) * grad
            assert abs(state_g.sum()) < 1e-8

    def test_determinism(self):
        target, cost, noise = make_enumerated_instance(45)
        cfg = SolverConfig(constant_phase=300, decay_phase=100,
                           averaging_window=100, batch=8, tau=1e-12,
                           check_interval=100)
        a = solve_sdot(target, cost, cfg, Rng(5),
                       noise=DiscreteNoise(*noise.enumerate()))
        b = solve_sdot(target, cost, cfg, Rng(5),
                       noise=DiscreteNoise(*noise.enumerate()))
        np.testing.assert_array_equal(a.g, b.g)

    def test_divergence_guard(self):
        target, cost, noise = make_enumerated_instance(46, eps=0.05)
        cfg = SolverConfig(optimizer="sgd-constant", theory_delta=1e14,
                           theory_smoothness=1.0, constant_phase=2000,
                           decay_phase=0, averaging_window=100, batch=4,
                           tau=1e-12, check_interval=100)
        with pytest.raises(SolverDivergence) as err:
            solve_sdot(target, cost, cfg, Rng(6), noise=DiscreteNoise(
                *noise.enumerate(), exact=False))
        assert "iteration" in err.value.info

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_non_finite_state_fails_closed(self, eps):
        target, cost, _ = make_enumerated_instance(49, eps=eps)
        cfg = SolverConfig(base_lr=1e308, constant_phase=50, decay_phase=0,
                           averaging_window=10, batch=16, tau=1e-12,
                           check_interval=10, chi2_batch=64, chi2_total=128)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergence) as err:
                solve_sdot(target, cost, cfg, Rng(9))
        assert err.value.info["iteration"] < 50
        assert "non-finite" in str(err.value)

    def test_metrics_rows_emitted(self, tmp_path):
        from sdfm.container import MetricsWriter

        target, cost, noise = make_enumerated_instance(47)
        cfg = SolverConfig(constant_phase=200, decay_phase=0,
                           averaging_window=50, tau=1e-12, check_interval=100)
        metrics = MetricsWriter(str(tmp_path / "m.csv"), str(tmp_path / "m.json"))
        solve_sdot(target, cost, cfg, Rng(7), noise=noise, metrics=metrics)
        metrics.finalize({})
        rows = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert rows[0] == "step,wall_ms,metric,value"
        names = {line.split(",")[2] for line in rows[1:]}
        assert {"chi2", "semidual", "lr"} <= names

    def test_averaging_window_is_exact_mean(self):
        target, cost, noise = make_enumerated_instance(48)
        window = 37
        cfg = SolverConfig(base_lr=1.5, constant_phase=150, decay_phase=0,
                           averaging_window=window, batch=4, tau=1e-12,
                           check_interval=10**6)
        iterates = []

        orig = DiscreteNoise(*noise.enumerate(), exact=True)
        pot = solve_sdot(target, cost, cfg, Rng(8), noise=orig)
        # Re-run the recurrence by hand and compare the trailing mean.
        from sdfm.numerics import softmax_b_eps_rows
        from sdfm.semidual import gauge_fix

        atoms, w = orig.enumerate()
        c = cost_matrix(cost, atoms, target.points)
        g = np.zeros(target.n)
        acc = np.zeros(target.n)
        for k in range(150):
            s = softmax_b_eps_rows(g[None, :] - c, target.weights, cost.eps)
            grad = target.weights - w @ s
            acc += grad * grad
            g = g + lr_schedule(cfg, k) * grad / np.sqrt(np.maximum(acc, 1e-10))
            iterates.append(g.copy())
        expected = gauge_fix(np.mean(iterates[-window:], axis=0), target.weights)
        np.testing.assert_allclose(pot.g, expected, atol=1e-12)


class _Rows:
    """Metrics sink that keeps every logged value by (step, metric)."""

    def __init__(self):
        self.rows = {}

    def log(self, step, metric, value, wall_ms=0.0):
        self.rows[(step, metric)] = value


class TestOneScanPerCheck:
    """A check scans the evaluation stream once: the chi-square pass also
    yields the semidual value and the final marginal diagnostics."""

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_exact_noise_logs_exact_semidual(self, eps):
        target, cost, noise = make_enumerated_instance(50, eps=eps)
        cfg = SolverConfig(base_lr=0.5, constant_phase=30, decay_phase=0,
                           averaging_window=5, batch=8, tau=1e-12,
                           check_interval=10)
        sink = _Rows()
        pot = solve_sdot(target, cost, cfg, Rng(10), noise=noise, metrics=sink)
        atoms, w = noise.enumerate()
        zero = Potential(g=np.zeros(target.n), target=target, cost=cost)
        assert sink.rows[(0, "semidual")] == semidual_value(zero, atoms, w)
        assert sink.rows[(30, "semidual")] == semidual_value(pot, atoms, w)
        m = marginal_exact(pot, noise)
        assert pot.provenance["final_marginal_linf"] == \
            target.n * np.max(np.abs(m - target.weights))
        assert pot.provenance["empty_cell_fraction"] == np.mean(m == 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_gaussian_semidual_is_mean_over_chi2_rows(self, eps):
        gen = Rng(51).generator()
        target = TargetMeasure.from_points(gen.standard_normal((12, 2)))
        cost = CostConfig(kind=NEG_DOT, eps_raw=eps)
        # 200 rows in batches of 64 end on a ragged batch of 8.
        cfg = SolverConfig(base_lr=0.5, constant_phase=20, decay_phase=0,
                           averaging_window=5, batch=16, tau=1e-12,
                           check_interval=20, chi2_batch=64, chi2_total=200)
        sink = _Rows()
        rng = Rng(11)
        pot = solve_sdot(target, cost, cfg, rng, metrics=sink)
        noise = GaussianNoise(target)
        zero = Potential(g=np.zeros(target.n), target=target, cost=cost)
        for k, p in ((0, zero), (20, pot)):
            # The evaluation stream is rng.child(1); check k draws batch i
            # from its child(k).child(i).
            stream = rng.child(1).child(k)
            x = np.vstack([noise.sample(stream.child(i), min(64, 200 - lo))
                           for i, lo in enumerate(range(0, 200, 64))])
            assert sink.rows[(k, "semidual")] == \
                pytest.approx(semidual_value(p, x), abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_one_check_scores_chi2_total_rows(self, eps, monkeypatch):
        gen = Rng(52).generator()
        target = TargetMeasure.from_points(gen.standard_normal((10, 2)))
        cost = CostConfig(kind=NEG_DOT, eps_raw=eps)
        scored, per_check = [], []
        scores, check = semidual.coupling_scores, solver._chi2_check

        def counting_scores(pot, x, *args, **kwargs):
            scored.append(np.atleast_2d(x).shape[0])
            return scores(pot, x, *args, **kwargs)

        def counting_check(*args):
            before = sum(scored)
            result = check(*args)
            per_check.append(sum(scored) - before)
            return result

        monkeypatch.setattr(semidual, "coupling_scores", counting_scores)
        monkeypatch.setattr(solver, "_chi2_check", counting_check)
        cfg = SolverConfig(base_lr=0.5, constant_phase=6, decay_phase=0,
                           averaging_window=2, batch=16, tau=1e-12,
                           check_interval=3, chi2_batch=64, chi2_total=256)
        solve_sdot(target, cost, cfg, Rng(12))
        assert per_check == [256, 256, 256]  # checks at k = 0, 3, 6
        assert sum(scored) == 3 * 256 + 6 * 16

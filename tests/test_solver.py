import numpy as np
import pytest

from sdfm.costs import NEG_DOT, SQ_EUCLIDEAN, ConfigurationError, CostConfig, cost_matrix
from sdfm.numerics import Rng
from sdfm import semidual, solver
from sdfm.semidual import (
    CHI2_BATCH,
    GaussianNoise,
    Potential,
    TargetMeasure,
    chi2_exact,
    semidual_value,
)
from sdfm.solver import (
    SolverConfig,
    SolverDivergence,
    lr_schedule,
    solve_sdot,
)

from conftest import make_enumerated_instance
from oracles import FiniteNoise, marginal_exact, oracle_discrete_ot, softmax_rows


class TestLrSchedule:
    def test_adagrad_base_then_decay(self):
        cfg = SolverConfig(base_lr=2.0, max_iterations=150)
        assert (cfg.constant_phase, cfg.decay_phase) == (100, 50)
        assert lr_schedule(cfg, 0) == 2.0
        assert lr_schedule(cfg, 99) == 2.0
        assert lr_schedule(cfg, 149) == pytest.approx(2.0 * np.sqrt(100 / 149))


class TestBudget:
    """One budget, ``max_iterations``, derives the phases and the window;
    the check's batches are the chi-square scan's."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 20, 80, 30_000, 40_000])
    def test_schedule_derives_from_budget(self, budget):
        # Two thirds constant (at least one iteration), the rest decay, and
        # a window of the last quarter (at least one iterate).
        cfg = SolverConfig(max_iterations=budget)
        const = max(1, (2 * budget) // 3)
        assert cfg.constant_phase == const
        assert cfg.decay_phase == max(0, budget - const)
        assert cfg.averaging_window == max(1, budget // 4)

    @pytest.mark.parametrize("total", [2, 1000, 4096, 4097, 2**16])
    def test_chi2_batch_is_capped_total(self, total):
        # Any total of at least 2 rows is accepted, below one batch too. A
        # check draws batches of min(total, CHI2_BATCH) rows, and a 1-row
        # tail joins the batch before it.
        drawn = []

        class Recording(GaussianNoise):
            def sample(self, rng, n):
                drawn.append(n)
                return super().sample(rng, n)

        target = TargetMeasure.from_points([[0.3, -0.7], [1.0, 0.5]])
        pot = Potential(g=np.zeros(2), target=target,
                        cost=CostConfig(kind=NEG_DOT, eps_raw=0.0))
        solver._chi2_check(pot, Rng(3), SolverConfig(chi2_total=total),
                           Recording(target))
        assert drawn == {2: [2], 1000: [1000], 4096: [4096], 4097: [4097],
                         2**16: [4096] * 16}[total]

    def test_default_budget_keeps_the_default_schedule(self):
        cfg = SolverConfig()
        assert (cfg.max_iterations, cfg.constant_phase, cfg.decay_phase,
                cfg.averaging_window, cfg.chi2_total, CHI2_BATCH) == (
                    30_000, 20_000, 10_000, 7_500, 2**16, 4096)


class TestSolveSdot:
    def test_single_atom_immediate(self):
        target = TargetMeasure.from_points([[0.3, -0.7]])
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.0)
        cfg = SolverConfig(max_iterations=100, chi2_total=64)
        pot = solve_sdot(target, cost, cfg, Rng(0))
        np.testing.assert_array_equal(pot.g, [0.0])
        assert pot.provenance["iterations"] == 0
        assert pot.provenance["final_chi2"] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_two_atoms(self):
        target = TargetMeasure.from_points([[1.0, 0.0], [-1.0, 0.0]])
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.5)
        cfg = SolverConfig(max_iterations=3000, batch=64, tau=1e-4,
                           chi2_total=2**13)
        pot = solve_sdot(target, cost, cfg, Rng(1))
        assert np.max(np.abs(pot.g)) <= 1e-2 * np.max(np.abs(pot.g)) + 1e-3 + 0.02

    def test_requires_negdot(self):
        # Potentials take the neg-dot cost only, at every eps.
        target = TargetMeasure.from_points([[1.0], [-1.0]])
        cfg = SolverConfig(max_iterations=10)
        for eps in (0.0, 0.5):
            cost = CostConfig(kind=SQ_EUCLIDEAN, eps_raw=eps)
            with pytest.raises(ConfigurationError, match="neg-dot"):
                solve_sdot(target, cost, cfg, Rng(0))

    def test_oracle_dual_equivalence_quick(self):
        target, cost, noise = make_enumerated_instance(42, n_target=6,
                                                       n_atoms=24, eps=0.5)
        cfg = SolverConfig(max_iterations=6000, tau=1e-10, check_interval=1000)
        pot = solve_sdot(target, cost, cfg, Rng(2), noise=noise)
        costs = cost_matrix(cost, noise.atoms, target.points)
        _, _, g_star, _ = oracle_discrete_ot(costs, noise.weights, target.weights,
                                             cost.eps)
        tol = 1e-2 * np.max(np.abs(g_star)) + 1e-3
        assert np.max(np.abs(pot.g - g_star)) <= tol
        m = marginal_exact(pot, noise)
        assert 0.5 * np.abs(m - target.weights).sum() <= 1e-3

    def test_gauge_of_returned_potential(self):
        target, cost, noise = make_enumerated_instance(43)
        cfg = SolverConfig(max_iterations=500, tau=1e-12, check_interval=250)
        pot = solve_sdot(target, cost, cfg, Rng(3), noise=noise)
        assert abs(np.dot(target.weights, pot.g)) < 1e-12

    def test_determinism(self):
        target, cost, noise = make_enumerated_instance(45, exact=False)
        cfg = SolverConfig(max_iterations=400, batch=8, tau=1e-12,
                           check_interval=100)
        a = solve_sdot(target, cost, cfg, Rng(5), noise=noise)
        b = solve_sdot(target, cost, cfg, Rng(5), noise=noise)
        np.testing.assert_array_equal(a.g, b.g)

    def test_divergence_guard(self):
        target, cost, noise = make_enumerated_instance(46, eps=0.05, exact=False)
        cfg = SolverConfig(base_lr=1e7, max_iterations=2000, batch=4,
                           tau=1e-12, check_interval=100)
        with pytest.raises(SolverDivergence) as err:
            solve_sdot(target, cost, cfg, Rng(6), noise=noise)
        assert "semidual estimate collapsed" in str(err.value)
        assert "iteration" in err.value.info

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_non_finite_state_fails_closed(self, eps):
        target, cost, _ = make_enumerated_instance(49, eps=eps)
        cfg = SolverConfig(base_lr=1e308, max_iterations=50, batch=16,
                           tau=1e-12, check_interval=10, chi2_total=128)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergence) as err:
                solve_sdot(target, cost, cfg, Rng(9))
        assert err.value.info["iteration"] < 50
        assert "non-finite" in str(err.value)

    def test_overflowing_noise_row_fails_closed(self):
        # A noise row whose coordinates over eps overflow has a non-finite
        # gradient whether or not its row bound is used: the solver raises.
        gen = Rng(50).generator()
        target = TargetMeasure.from_points(gen.standard_normal((64, 2)))
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.5)
        rows = gen.standard_normal((8, 2))
        rows[3] = 1e308
        cfg = SolverConfig(base_lr=0.5, max_iterations=6, batch=8, tau=1e-12,
                           check_interval=3, chi2_total=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergence, match="non-finite"):
                solve_sdot(target, cost, cfg, Rng(1), noise=FiniteNoise(rows))

    def test_metrics_rows_emitted(self, tmp_path):
        from sdfm.container import MetricsWriter

        target, cost, noise = make_enumerated_instance(47)
        cfg = SolverConfig(max_iterations=200, tau=1e-12, check_interval=100)
        metrics = MetricsWriter(str(tmp_path / "m.csv"), str(tmp_path / "m.json"))
        solve_sdot(target, cost, cfg, Rng(7), noise=noise, metrics=metrics)
        metrics.finalize({})
        rows = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert rows[0] == "step,wall_ms,metric,value"
        names = {line.split(",")[2] for line in rows[1:]}
        assert {"chi2", "semidual", "lr"} <= names

    def test_averaging_window_is_exact_mean(self):
        # No check within the budget of 150: sums from 0 and from the last
        # start, 37 iterates before the budget.
        self._assert_window_is_exact_mean(budget=150, interval=10**6,
                                          iterations=150, halvings=0)

    def test_averaging_window_is_exact_mean_over_blocks_and_halvings(self):
        # Window starts on checks (every 10 iterates); AdaGrad halves its
        # rate. Stops on tau at 90, inside the constant phase of 106.
        self._assert_window_is_exact_mean(budget=160, interval=10,
                                          iterations=90, halvings=1)
        # Stops on tau at 40, before the budget of 45, after one halving.
        # Its window of 11 starts at 29 (9 mod 10) and spans two running
        # sums, from 29 and 34; the last opens because its window would
        # end at the budget.
        self._assert_window_is_exact_mean(budget=45, interval=10,
                                          iterations=40, halvings=1,
                                          base_lr=2.5)

    @staticmethod
    def _assert_window_is_exact_mean(budget, interval, iterations, halvings,
                                     base_lr=1.5):
        target, cost, noise = make_enumerated_instance(48)
        cfg = SolverConfig(base_lr=base_lr, max_iterations=budget, batch=4,
                           tau=1e-12, check_interval=interval)
        window = cfg.averaging_window
        iterates = []

        pot = solve_sdot(target, cost, cfg, Rng(8), noise=noise)
        assert pot.provenance["iterations"] == iterations
        assert pot.provenance["averaging_window"] == window == budget // 4
        # Checks of the constant phase that fail to halve the chi-square.
        history = pot.provenance["chi2_history"]
        halved_at = [k for (_, before), (k, chi2) in zip(history, history[1:])
                     if chi2 > cfg.tau and k < cfg.constant_phase
                     and not chi2 < 0.5 * before]
        assert len(halved_at) == pot.provenance["lr_halvings"] == halvings
        # Re-run the recurrence by hand and compare the trailing mean.
        from sdfm.semidual import gauge_fix

        c = cost_matrix(cost, noise.atoms, target.points)
        g = np.zeros(target.n)
        acc = np.zeros(target.n)
        for k in range(iterations):
            s = softmax_rows(g[None, :] - c, target.weights, cost.eps)
            grad = target.weights - noise.weights @ s
            acc += grad * grad
            lr = lr_schedule(cfg, k) * 0.5**sum(j <= k for j in halved_at)
            g = g + lr * grad / np.sqrt(np.maximum(acc, 1e-10))
            iterates.append(g.copy())
        expected = gauge_fix(np.mean(iterates[-window:], axis=0), target.weights)
        np.testing.assert_allclose(pot.g, expected, atol=1e-12)

    @pytest.mark.parametrize("budget", [4000, 4001])
    def test_averaging_state_is_window_sums(self, budget):
        import tracemalloc

        # A 1000-iterate window over N=2048 is 16 MB as full iterates;
        # checks every 1000 iterations need a few running sums (16 kB
        # each), also for a budget that no check interval divides. At
        # eps=0 the 8 noise atoms leave most cells empty, so the solve
        # runs to the budget.
        gen = Rng(53).generator()
        target = TargetMeasure.from_points(gen.standard_normal((2048, 2)))
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.0)
        noise = FiniteNoise(gen.standard_normal((8, 2)), exact=True)
        cfg = SolverConfig(max_iterations=budget, tau=1e-12,
                           check_interval=1000)
        assert cfg.averaging_window == 1000
        tracemalloc.start()
        try:
            pot = solve_sdot(target, cost, cfg, Rng(13), noise=noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pot.provenance["iterations"] == budget
        assert peak < 8 * 2**20


class TestStepSize:
    """AdaGrad halves its base rate at every constant-phase check that
    fails to halve the chi-square."""

    def test_demo_instance_stops_on_tau(self):
        # The instance and schedule of demos/01_solve_and_inspect.py at
        # the default starting rate of 1.0, which overshoots at eps=0.
        rng = Rng(0)
        gen = rng.generator()
        right = gen.standard_normal((192, 2)) * 0.25 + np.array([2.0, 0.0])
        left = gen.standard_normal((64, 2)) * 0.25 + np.array([-2.0, 0.0])
        target = TargetMeasure.from_points(np.vstack([right, left]))
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.0)
        cfg = SolverConfig(max_iterations=6000, batch=256, tau=0.02,
                           check_interval=500, chi2_total=2**14)
        sink = _Rows()
        pot = solve_sdot(target, cost, cfg, rng.child(1), metrics=sink)
        prov = pot.provenance
        assert prov["stop_reason"] == "tau"
        assert prov["final_chi2"] <= 0.02
        assert prov["lr_halvings"] >= 1
        # Each logged rate is the schedule's, halved once per failed check.
        history = prov["chi2_history"]
        halvings = 0
        for (_, before), (k, chi2) in zip(history, history[1:]):
            if (chi2 > 0.02 and k < cfg.constant_phase
                    and not chi2 < 0.5 * before):
                halvings += 1
            assert sink.rows[(k, "lr")] == 0.5**halvings * lr_schedule(cfg, k)
        assert halvings == prov["lr_halvings"]

    def test_decay_phase_never_halves(self):
        # tau is out of reach, so every check after the first can fail;
        # only the nine after the first in the constant phase (100 of the
        # 150 iterations) may halve.
        target, cost, noise = make_enumerated_instance(55, exact=False)
        cfg = SolverConfig(max_iterations=150, batch=4, tau=1e-12,
                           check_interval=10)
        sink = _Rows()
        pot = solve_sdot(target, cost, cfg, Rng(15), metrics=sink, noise=noise)
        assert pot.provenance["stop_reason"] == "max_iterations"
        assert 1 <= pot.provenance["lr_halvings"] <= 9
        rates = [v for (k, name), v in sorted(sink.rows.items())
                 if name == "lr"]
        assert min(rates) >= 0.5**9 * lr_schedule(cfg, 149)
        for (k, name), v in sink.rows.items():
            if name == "lr" and k >= cfg.constant_phase:
                assert v == 0.5**pot.provenance["lr_halvings"] \
                    * lr_schedule(cfg, min(k, 149))


class _Rows:
    """Metrics sink that keeps every logged value by (step, metric)."""

    def __init__(self):
        self.rows = {}

    def log(self, step, metric, value, wall_ms=0.0):
        self.rows[(step, metric)] = value

    def flush(self):
        pass


class TestOneScanPerCheck:
    """A check scans the evaluation stream once: the chi-square pass also
    yields the semidual value and the final marginal diagnostics."""

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_exact_noise_logs_exact_semidual(self, eps):
        target, cost, noise = make_enumerated_instance(50, eps=eps)
        cfg = SolverConfig(base_lr=0.5, max_iterations=30, batch=8, tau=1e-12,
                           check_interval=10)
        sink = _Rows()
        pot = solve_sdot(target, cost, cfg, Rng(10), noise=noise, metrics=sink)
        zero = Potential(g=np.zeros(target.n), target=target, cost=cost)
        assert sink.rows[(0, "semidual")] == semidual_value(zero, noise.rows)
        assert sink.rows[(30, "semidual")] == semidual_value(pot, noise.rows)
        m = marginal_exact(pot, noise)
        assert pot.provenance["final_marginal_linf"] == \
            target.n * np.max(np.abs(m - target.weights))
        assert pot.provenance["empty_cell_fraction"] == np.mean(m == 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_gaussian_semidual_is_mean_over_chi2_rows(self, eps):
        gen = Rng(51).generator()
        target = TargetMeasure.from_points(gen.standard_normal((12, 2)))
        cost = CostConfig(kind=NEG_DOT, eps_raw=eps)
        # 8200 rows in batches of 4096 end on a ragged batch of 8.
        total = 2 * CHI2_BATCH + 8
        cfg = SolverConfig(base_lr=0.5, max_iterations=20, batch=16, tau=1e-12,
                           check_interval=20, chi2_total=total)
        sink = _Rows()
        rng = Rng(11)
        pot = solve_sdot(target, cost, cfg, rng, metrics=sink)
        noise = GaussianNoise(target)
        zero = Potential(g=np.zeros(target.n), target=target, cost=cost)
        for k, p in ((0, zero), (20, pot)):
            # The evaluation stream is rng.child(1); check k draws batch i
            # from its child(k).child(i).
            stream = rng.child(1).child(k)
            x = np.vstack([noise.sample(stream.child(i),
                                        min(CHI2_BATCH, total - lo))
                           for i, lo in enumerate(range(0, total, CHI2_BATCH))])
            assert len(x) == total
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
        cfg = SolverConfig(base_lr=0.5, max_iterations=6, batch=16, tau=1e-12,
                           check_interval=3, chi2_total=256)
        solve_sdot(target, cost, cfg, Rng(12))
        assert per_check == [256, 256, 256]  # checks at k = 0, 3, 6
        assert sum(scored) == 3 * 256 + 6 * 16
        # An exact finite law, through the tests' exact check (conftest.py):
        # each check scores its rows once, not chi2_total streamed ones,
        # and each step all of them, not batch.
        noise = FiniteNoise(gen.standard_normal((9, 2)), gen.integers(1, 5, 9),
                            exact=True)
        rows = len(noise.rows)
        assert rows not in (cfg.batch, CHI2_BATCH, cfg.chi2_total)
        scored.clear()
        per_check.clear()
        solve_sdot(target, cost, cfg, Rng(12), noise=noise)
        assert per_check == [rows, rows, rows]
        assert sum(scored) == 3 * rows + 6 * rows

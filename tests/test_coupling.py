import itertools

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare

from sdfm import artifacts
from sdfm.cli import main
from sdfm.container import read_container
from sdfm.costs import NEG_DOT, SQ_EUCLIDEAN, ConfigurationError, CostConfig, cost_matrix
from sdfm.coupling import (
    SCALING_RANGE,
    SinkhornError,
    assign_batch,
    couple_independent,
    couple_minibatch_ot,
    hungarian,
    sinkhorn_log,
)
from sdfm.flow import gaussian_starts
from sdfm.numerics import Rng, inverse_cdf
from sdfm.semidual import Potential, TargetMeasure, stochastic_gradient

from conftest import make_enumerated_instance
from oracles import (
    laguerre_contains,
    oracle_discrete_ot,
    responsibilities_rows,
    sinkhorn_log_reference,
    softmax_rows,
)


def _pot(g, ys, b=None, eps=0.0):
    target = TargetMeasure.from_points(ys, b)
    return Potential(g=np.asarray(g, dtype=np.float64), target=target,
                     cost=CostConfig(kind=NEG_DOT, eps_raw=eps))


def assign(pot, x, rng):
    """One-row form of :func:`assign_batch`."""
    return int(assign_batch(pot, np.atleast_2d(x), rng)[0])


class TestAssign:
    def test_nearest_inner_product(self):
        pot = _pot([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
        assert assign(pot, np.array([1.0, 0.0]), Rng(0)) == 0

    def test_potential_shifts_winner(self):
        pot = _pot([0.0, 2.5], [[1.0, 0.0], [-1.0, 0.0]])
        # Scores (1, 1.5): the tilted potential flips the argmax.
        assert assign(pot, np.array([1.0, 0.0]), Rng(0)) == 1

    def test_tie_break_uniform(self):
        pot = _pot([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
        x = np.array([0.0, 1.0])  # orthogonal to y1 - y2: exact tie
        draws = assign_batch(pot, np.tile(x, (10_000, 1)), Rng(1))
        freq = draws.mean()
        sigma = np.sqrt(0.25 / 10_000)
        assert abs(freq - 0.5) <= 3 * sigma

    def test_tie_break_follows_b(self):
        pot = _pot([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]], b=[0.25, 0.75])
        x = np.array([0.0, 1.0])
        draws = assign_batch(pot, np.tile(x, (10_000, 1)), Rng(2))
        freq = draws.mean()
        sigma = np.sqrt(0.25 * 0.75 / 10_000)
        assert abs(freq - 0.75) <= 3 * sigma

    def test_categorical_matches_responsibilities(self):
        gen = Rng(2).generator()
        ys = gen.standard_normal((4, 2))
        pot = _pot(gen.standard_normal(4), ys, eps=0.5)
        x = np.array([[0.3, -0.2]])
        draws = assign_batch(pot, np.repeat(x, 20_000, axis=0), Rng(3))
        probs = responsibilities_rows(pot, x)[0]
        counts = np.bincount(draws, minlength=4) / len(draws)
        assert np.max(np.abs(counts - probs)) < 0.02

    def test_exhaustive_scan_agreement(self):
        gen = Rng(4).generator()
        n = 100
        ys = gen.standard_normal((n, 8))
        g = gen.standard_normal(n) * 0.3
        pot = _pot(g, ys)
        xs = gen.standard_normal((500, 8))
        picked = assign_batch(pot, xs, Rng(5))
        for x, got in zip(xs, picked):
            # Independent scan: per-index python arithmetic on raw points.
            best, best_score = None, -np.inf
            for k in range(n):
                score = g[k] + float(np.dot(x, ys[k]))
                if score > best_score:
                    best, best_score = k, score
            assert got == best


class TestAssignBatch:
    @pytest.mark.parametrize("eps", [0.0, 0.4])
    def test_prefix_stable(self, eps):
        # Row i depends only on (rng, i) and its noise row: every prefix of
        # a batch pairs exactly as the full batch does, tie rows included.
        gen = Rng(8).generator()
        ys = np.vstack([[[1.0, 0.0], [-1.0, 0.0]], gen.standard_normal((4, 2))])
        pot = _pot(np.r_[0.0, 0.0, gen.standard_normal(4) - 5.0], ys, eps=eps)
        noise = gen.standard_normal((16, 2))
        noise[3::4] = [0.0, 1.0]  # exact ties at eps=0
        full = assign_batch(pot, noise, Rng(9))
        for k in (1, 5, 16):
            np.testing.assert_array_equal(
                assign_batch(pot, noise[:k], Rng(9)), full[:k])

    def test_permutation_equivariance_no_ties(self):
        gen = Rng(10).generator()
        ys = gen.standard_normal((8, 2))
        pot = _pot(gen.standard_normal(8), ys, eps=0.0)
        noise = gen.standard_normal((32, 2))
        perm = gen.permutation(32)
        a = assign_batch(pot, noise, Rng(11))
        b = assign_batch(pot, noise[perm], Rng(11))
        np.testing.assert_array_equal(a[perm], b)

    def test_resolved_points_match_target(self, tmp_path):
        # ``sdfm assign`` stores each noise row's index and the target row
        # it names, as pairing the same draws in-process gives.
        gen = Rng(12).generator()
        ys = gen.standard_normal((4, 2))
        pot = _pot(gen.standard_normal(4) * 0.3, ys)
        data, pot_path, out = (str(tmp_path / f) for f in
                               ("data.sdfm", "pot.sdfm", "pairs.sdfm"))
        artifacts.save_dataset(data, ys)
        artifacts.save_potential(pot_path, pot)
        assert main(["assign", "--potential", pot_path, "--data", data,
                     "--sample", "8", "--seed", "13", "--out", out]) == 0
        _, meta, arrays = read_container(out, expect_kind="pairs")
        noise = gaussian_starts(Rng(13).child(0), 8, 2)
        expected = assign_batch(pot, noise, Rng(13).child(1))
        assert arrays["indices"].dtype == np.int64
        np.testing.assert_array_equal(arrays["indices"], expected)
        np.testing.assert_array_equal(arrays["noise"], noise)
        np.testing.assert_array_equal(arrays["points"], ys[expected])
        assert meta["provenance"] == "sd"
        assert meta["mean_time_per_pair_s"] > 0
        assert "time_per_pair" not in meta


class TestLaguerre:
    def test_definitional_consistency(self):
        gen = Rng(14).generator()
        ys = gen.standard_normal((12, 3))
        pot = _pot(gen.standard_normal(12) * 0.2, ys)
        xs = gen.standard_normal((1000, 3))
        for x, j in zip(xs, assign_batch(pot, xs, Rng(15))):
            assert laguerre_contains(pot, j, x)

    def test_antipodal_half_spaces(self):
        pot = _pot([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
        assert laguerre_contains(pot, 0, np.array([0.5, 3.0]))
        assert laguerre_contains(pot, 1, np.array([-0.5, 3.0]))
        assert not laguerre_contains(pot, 0, np.array([-0.5, 3.0]))
        # The bisector itself belongs to both cells.
        assert laguerre_contains(pot, 0, np.array([0.0, 1.0]))
        assert laguerre_contains(pot, 1, np.array([0.0, 1.0]))

    def test_raising_potential_grows_cell(self):
        gen = Rng(16).generator()
        ys = gen.standard_normal((6, 2))
        g = gen.standard_normal(6) * 0.1
        pot = _pot(g, ys)
        g_up = g.copy()
        g_up[2] += 1.0
        pot_up = _pot(g_up, ys)
        for i in range(500):
            x = gen.standard_normal(2)
            if laguerre_contains(pot, 2, x):
                assert laguerre_contains(pot_up, 2, x)

    def test_eps_positive_unsupported(self):
        pot = _pot([0.0], [[1.0]], eps=0.5)
        with pytest.raises(ConfigurationError):
            laguerre_contains(pot, 0, np.array([1.0]))


class TestCoupleIndependent:
    def test_single_atom(self):
        target = TargetMeasure.from_points([[1.0, 1.0]])
        batch = couple_independent(target, Rng(17).generator().standard_normal((16, 2)), Rng(18))
        assert np.all(batch == 0)

    def test_uniform_goodness_of_fit(self):
        n = 10
        target = TargetMeasure.from_points(Rng(19).generator().standard_normal((n, 2)))
        noise = Rng(20).generator().standard_normal((100_000, 2))
        batch = couple_independent(target, noise, Rng(21))
        counts = np.bincount(batch, minlength=n)
        _, p = chisquare(counts)
        assert p > 0.001

    def test_weighted_frequencies(self):
        target = TargetMeasure.from_points([[1.0], [-1.0]], weights=[0.9, 0.1])
        noise = Rng(22).generator().standard_normal((50_000, 1))
        batch = couple_independent(target, noise, Rng(23))
        freq0 = np.mean(batch == 0)
        sigma = np.sqrt(0.9 * 0.1 / 50_000)
        assert abs(freq0 - 0.9) <= 3 * sigma


class TestDataDraws:
    """Data indices come from the target's cached CDF, drawn as
    ``Generator.choice(n, size, p=weights)`` draws them."""

    @pytest.mark.parametrize("n", [1, 7, 4096])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_cdf_draws_equal_generator_choice(self, n, uniform):
        gen = Rng(24).generator()
        weights = None if uniform else gen.random(n) + 0.01
        target = TargetMeasure.from_points(gen.standard_normal((n, 1)), weights)
        p = target.weights
        expected = Rng(25).generator().choice(n, size=300, p=p)
        np.testing.assert_array_equal(
            couple_independent(target, np.zeros((300, 1)), Rng(25)), expected)
        # The generator ends where choice leaves it: the next draws agree.
        ours, theirs = Rng(26).generator(), Rng(26).generator()
        np.testing.assert_array_equal(
            target.cdf.searchsorted(ours.random(300), side="right"),
            theirs.choice(n, size=300, p=p))
        np.testing.assert_array_equal(ours.random(5), theirs.random(5))
        # couple_minibatch_ot draws each row's partner from its plan row
        # with the same generator, after the data indices.
        noise = Rng(27).generator().standard_normal((8, 1))
        gen = Rng(28).generator()
        fresh = gen.choice(n, size=8, p=p)
        c = cost_matrix(CostConfig(kind=SQ_EUCLIDEAN), noise, target.points[fresh])
        plan = sinkhorn_log(c, np.full(8, 1 / 8), np.full(8, 1 / 8), 0.5)[0]
        np.testing.assert_array_equal(
            couple_minibatch_ot(target, 0.5, noise, Rng(28)),
            fresh[inverse_cdf(plan, gen.random(8))])


class TestHungarian:
    def test_diagonal_optimum(self):
        assignment, total = hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(assignment, [0, 1])
        assert total == 0.0

    def test_matches_scipy_on_random(self):
        # Brute force over all permutations certifies the optimum.
        gen = Rng(24).generator()
        for n in (3, 5, 7):
            c = gen.standard_normal((n, n))
            assignment, total = hungarian(c)
            assert total == pytest.approx(c[np.arange(n), assignment].sum(),
                                          abs=1e-12)
            best = min(c[np.arange(n), list(p)].sum()
                       for p in itertools.permutations(range(n)))
            assert total == pytest.approx(best, abs=1e-9)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_is_a_numeric_failure(self, bad):
        c = np.zeros((3, 3))
        c[1, 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            hungarian(c)


class TestSinkhorn:
    def test_marginals_at_tolerance(self):
        gen = Rng(25).generator()
        c = gen.standard_normal((8, 8))
        a = np.full(8, 1 / 8)
        b = gen.random(8) + 0.2
        b /= b.sum()
        plan, f, g, sweeps = sinkhorn_log(c, a, b, 0.05, tol=1e-9)
        assert np.abs(plan.sum(axis=1) - a).sum() <= 1e-9
        assert np.abs(plan.sum(axis=0) - b).sum() <= 1e-9 + 1e-12

    @staticmethod
    def _eight_gaussians_costs(seed):
        """Costs of a 256-row eight-gaussians batch against Gaussian noise."""
        gen = Rng(seed).generator()
        angles = 2.0 * np.pi * gen.integers(0, 8, size=256) / 8.0
        data = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1) \
            + 0.3 * gen.standard_normal((256, 2))
        noise = gen.standard_normal((256, 2))
        return cost_matrix(CostConfig(kind=SQ_EUCLIDEAN), noise, data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eight_gaussians_batch_at_relative_eps(self, seed):
        # A 256-row eight-gaussians batch at 0.1 x its cost std converges in
        # the log-domain loop's sweep counts at these seeds.
        c = self._eight_gaussians_costs(seed)
        marg = np.full(256, 1.0 / 256)
        _, _, _, sweeps = sinkhorn_log(c, marg, marg, 0.1 * np.std(c, ddof=1))
        assert sweeps == [87, 78, 85][seed]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("relative_eps", [0.3, 0.1])
    def test_scaling_matches_log_domain_reference(self, seed, relative_eps):
        c = self._eight_gaussians_costs(seed)
        marg = np.full(256, 1.0 / 256)
        eps = relative_eps * np.std(c, ddof=1)
        plan, f, g, sweeps = sinkhorn_log(c, marg, marg, eps)
        ref_plan, ref_f, ref_g, ref_sweeps = sinkhorn_log_reference(
            c, marg, marg, eps)
        assert sweeps == ref_sweeps
        np.testing.assert_allclose(plan, ref_plan, rtol=0,
                                   atol=1e-12 * ref_plan.max())
        np.testing.assert_allclose(f, ref_f, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g, ref_g, rtol=0, atol=1e-12)

    def test_tiny_eps_reanchors_and_matches_reference(self):
        # Two clusters a unit cost apart, with 90 % of the row mass beside
        # 10 % of the column mass, so most mass crosses. At eps = 1e-3 the
        # crossing entries of the sweep-0 kernel are about exp(-1000) and
        # underflow, and the row potentials travel further from that anchor
        # than any scaling in SCALING_RANGE reaches: the solve re-anchors.
        c = np.kron(1.0 - np.eye(2), np.ones((8, 8))) \
            + 0.01 * Rng(3).generator().random((16, 16))
        a = np.repeat([0.9 / 8, 0.1 / 8], 8)
        b = a[::-1].copy()
        eps = 1e-3
        plan, f, _, sweeps = sinkhorn_log(c, a, b, eps)
        ref_plan, _, _, ref_sweeps = sinkhorn_log_reference(c, a, b, eps)
        assert sweeps == ref_sweeps
        np.testing.assert_allclose(plan, ref_plan, rtol=0,
                                   atol=1e-12 * ref_plan.max())
        f_anchor = -eps * logsumexp(-c / eps, b=b, axis=1)  # sweep 0, g = 0
        assert np.abs(f - f_anchor).max() / eps > np.log(SCALING_RANGE[1])

    def test_nonconvergence_raises(self):
        gen = Rng(99).generator()
        c = gen.random((16, 16))
        a = gen.random(16) + 0.1
        a /= a.sum()
        b = gen.random(16) + 0.1
        b /= b.sum()
        with pytest.raises(SinkhornError) as err:
            sinkhorn_log(c, a, b, 1e-4, tol=1e-12, max_sweeps=2)
        assert err.value.residual > 0


class TestCoupleMinibatch:
    def test_single_pair_identity(self):
        target = TargetMeasure.from_points([[0.5, 0.5]])
        noise = np.array([[1.0, -1.0]])
        for eps in (0.0, 0.1):  # Hungarian and Sinkhorn
            assert couple_minibatch_ot(target, eps, noise, Rng(26))[0] == 0

    def test_small_eps_approaches_hungarian(self):
        # 2x2 symmetric instance with a unique optimal permutation.
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        marg = np.full(2, 0.5)
        plan, _, _, _ = sinkhorn_log(c, marg, marg, 0.01, tol=1e-10)
        perm, _ = hungarian(c)
        perm_plan = np.zeros_like(c)
        perm_plan[np.arange(2), perm] = 0.5
        assert 0.5 * np.abs(plan - perm_plan).sum() <= 1e-3

    def test_hungarian_method(self):
        gen = Rng(29).generator()
        target = TargetMeasure.from_points(gen.standard_normal((8, 2)))
        noise = gen.standard_normal((8, 2))
        batch = couple_minibatch_ot(target, 0.0, noise, Rng(30))
        assert len(np.unique(batch)) <= 8
        # eps=0 is the optimal permutation onto fresh squared-Euclidean draws.
        fresh = Rng(30).generator().choice(8, size=8, p=target.weights)
        perm, _ = hungarian(cost_matrix(CostConfig(kind=SQ_EUCLIDEAN), noise,
                                        target.points[fresh]))
        np.testing.assert_array_equal(batch, fresh[perm])

    def test_sinkhorn_requires_positive_eps(self):
        target = TargetMeasure.from_points([[1.0], [0.0]])
        with pytest.raises(ValueError):
            couple_minibatch_ot(target, -0.1, np.zeros((2, 1)), Rng(31))

    def test_minibatch_instability_vs_sd(self):
        # The same probe points get different partners across resampled
        # minibatches, while the eps=0 semidiscrete assignment is a fixed map.
        gen = Rng(32).generator()
        data = gen.standard_normal((256, 2))
        target = TargetMeasure.from_points(data)
        probes = gen.standard_normal((8, 2))
        partners = []
        for rep in range(12):
            companions = Rng(33).child(rep).generator().standard_normal((56, 2))
            noise = np.vstack([probes, companions])
            batch = couple_minibatch_ot(target, 0.0, noise, Rng(34).child(rep))
            partners.append(data[batch[:8]])
        partners = np.stack(partners)
        minibatch_var = float(np.mean(np.var(partners, axis=0)))

        pot = Potential(g=np.zeros(256), target=target,
                        cost=CostConfig(kind=NEG_DOT, eps_raw=0.0))
        sd_indices = np.stack([
            assign_batch(pot, probes, Rng(35).child(rep))
            for rep in range(12)
        ])
        # The eps=0 assignment is a fixed map: zero variance across reps.
        assert np.all(sd_indices == sd_indices[0])
        assert minibatch_var > 0.0


class TestOracle:
    def test_one_by_one(self):
        plan, f, g, value = oracle_discrete_ot(np.array([[3.7]]),
                                               np.array([1.0]), np.array([1.0]),
                                               0.0)
        np.testing.assert_array_equal(plan, [[1.0]])
        assert value == pytest.approx(3.7)

    def test_two_by_two_uniform(self):
        costs = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan, f, g, value = oracle_discrete_ot(costs, np.full(2, 0.5),
                                               np.full(2, 0.5), 0.0)
        assert value == pytest.approx(0.0)
        np.testing.assert_allclose(plan, np.eye(2) / 2)

    def test_entropic_self_consistency(self):
        gen = Rng(38).generator()
        costs = gen.standard_normal((8, 8))
        a = gen.random(8) + 0.3
        a /= a.sum()
        b = gen.random(8) + 0.3
        b /= b.sum()
        plan, f, g, value = oracle_discrete_ot(costs, a, b, 0.05)
        assert np.abs(plan.sum(axis=1) - a).sum() <= 1e-8
        assert np.abs(plan.sum(axis=0) - b).sum() <= 1e-8
        assert abs(np.dot(b, g)) < 1e-9
        # Duals are stationary for the semidual restricted to discrete mu.
        target = TargetMeasure.from_points(gen.standard_normal((8, 2)), b)
        pot = Potential(g=g, target=target, cost=CostConfig(kind=NEG_DOT, eps_raw=0.05))
        # Stationarity is checked against the stored cost matrix directly:
        s = softmax_rows(g[None, :] - costs, b, 0.05)
        grad = b - a @ s
        assert np.max(np.abs(grad)) <= 1e-8

    def test_lp_duals_certify_value(self):
        gen = Rng(39).generator()
        costs = gen.random((6, 9))
        a = gen.random(6) + 0.2
        a /= a.sum()
        b = gen.random(9) + 0.2
        b /= b.sum()
        plan, f, g, value = oracle_discrete_ot(costs, a, b, 0.0)
        np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-9)
        assert np.dot(a, f) + np.dot(b, g) == pytest.approx(value, abs=1e-8)
        assert np.all(f[:, None] + g[None, :] <= costs + 1e-8)

    def test_lp_duals_uniform_square(self):
        # The uniform square case is the assignment problem.
        gen = Rng(43).generator()
        n = 17
        costs = gen.random((n, n))
        a = np.full(n, 1.0 / n)
        plan, f, g, value = oracle_discrete_ot(costs, a, a, 0.0)
        assert value == pytest.approx(hungarian(costs)[1] / n, abs=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), a, atol=1e-9)
        assert np.dot(a, f) + np.dot(a, g) == pytest.approx(value, abs=1e-8)
        assert np.all(f[:, None] + g[None, :] <= costs + 1e-8)

    def test_eps_to_zero_cost_ordering(self):
        # Fixed instance with moderate cost spread so eps=0.01 is resolvable.
        gen = Rng(40).generator()
        costs = 2.0 + 0.3 * gen.random((12, 12))
        a = np.full(12, 1 / 12)
        b = np.full(12, 1 / 12)
        _, _, _, lp_value = oracle_discrete_ot(costs, a, b, 0.0)
        _, _, _, ent_value = oracle_discrete_ot(costs, a, b, 0.01)
        assert ent_value >= lp_value - 1e-10
        assert ent_value <= lp_value + 0.02 * max(abs(lp_value), 1.0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oracle_discrete_ot(np.zeros((600, 2)), np.full(600, 1 / 600),
                               np.full(2, 0.5), 0.0)

    def test_negdot_lp_duals(self):
        # Negative values exercise the dual sign convention.
        gen = Rng(41).generator()
        x = gen.standard_normal((5, 3))
        y = gen.standard_normal((7, 3))
        costs = -(x @ y.T)
        a = np.full(5, 1 / 5)
        b = gen.random(7) + 0.5
        b /= b.sum()
        plan, f, g, value = oracle_discrete_ot(costs, a, b, 0.0)
        assert value < 0  # sanity: matched value should exploit alignment
        assert np.dot(a, f) + np.dot(b, g) == pytest.approx(value, abs=1e-8)

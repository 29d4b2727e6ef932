import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from sdfm import semidual
from sdfm.costs import (
    NEG_DOT,
    SQ_EUCLIDEAN,
    CostConfig,
    cost_matrix,
    estimate_cost_std,
    fit_pca,
)
from sdfm.coupling import assign_batch
from sdfm.numerics import ARGMAX_TIE_TOL, Rng, argmax_with_ties, inverse_cdf
from sdfm.semidual import (
    GaussianNoise,
    Potential,
    TargetMeasure,
    chi2_estimator,
    chi2_exact,
    gauge_fix,
    semidual_value,
    stochastic_gradient,
)

from conftest import make_enumerated_instance
from oracles import (
    FiniteNoise,
    marginal_exact,
    oracle_discrete_ot,
    responsibilities_rows,
    scores_two_pass,
    softmax_rows,
    transport_cost,
)


def _simple_potential(g, ys, b=None, eps=0.0, kind=NEG_DOT):
    target = TargetMeasure.from_points(ys, b)
    cost = CostConfig(kind=kind, eps_raw=eps)
    return Potential(g=np.asarray(g, dtype=np.float64), target=target, cost=cost)


def soft_c_transform_rows(pot, x):
    """Soft-c transform of each row, as the column-sum scan writes it."""
    x = np.atleast_2d(x)
    f = np.empty(x.shape[0])
    semidual._column_sums(pot, x, soft_c=f)
    return f


def soft_c_transform(pot, x):
    """One-row form of :func:`soft_c_transform_rows`."""
    return soft_c_transform_rows(pot, np.atleast_2d(x))[0]


def responsibilities(pot, x):
    """One-row form of :func:`responsibilities_rows`."""
    return responsibilities_rows(pot, np.atleast_2d(x))[0]


class TestTargetMeasure:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            TargetMeasure(points=np.zeros((2, 1)), weights=np.array([1.0, 0.0]))

    def test_fingerprint_tracks_content(self):
        a = TargetMeasure.from_points([[0.0], [1.0]])
        b = TargetMeasure.from_points([[0.0], [1.0]])
        c = TargetMeasure.from_points([[0.0], [2.0]])
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_fingerprint_is_stable_across_versions(self):
        # Stored potentials bind to their dataset by these digests.
        pts = [[0.0, 1.0], [2.0, 3.0], [-1.0, 0.5]]
        assert TargetMeasure.from_points(pts).fingerprint == (
            "a06dda70f85f7bca1de3665bd402f5d5efbb31acfaa8870a4a17fc6cd6aac648")
        assert TargetMeasure.from_points(pts, weights=[1, 2, 1]).fingerprint == (
            "7c30f31aeb77646e5f41d46d5a8e951aab0cea719416ed0be240fe9876f1ea9a")

    @pytest.mark.parametrize("pca", [None, 3])
    def test_points_view_keeps_pca_and_shift_bits(self, pca):
        # ``points`` is the transposed view of the lifted support's first d
        # rows. The PCA fitted to it, and the squared-Euclidean shift row,
        # keep the bits they have on C-ordered points.
        gen = Rng(47).generator()
        points = 3.0 * gen.standard_normal((2048, 8)) + 1.0
        target = TargetMeasure.from_points(points)
        assert target.points.flags.f_contiguous
        np.testing.assert_array_equal(target.points, points)
        ref, got = fit_pca(points, 3), fit_pca(target.points, 3)
        for key in ("basis", "mean", "explained_variance"):
            np.testing.assert_array_equal(getattr(got, key), getattr(ref, key))
        cost = CostConfig(kind=SQ_EUCLIDEAN, eps_raw=0.5,
                          projection=None if pca is None else ref)
        pot = Potential(g=gen.standard_normal(2048), target=target, cost=cost)
        semidual.coupling_scores(pot, points[:4])
        support = cost.embed(points)
        np.testing.assert_array_equal(pot.support, support)
        # At eps>0 the shift row is folded: shift / eps + log b. The ones
        # row under it carries the rows' bound column.
        np.testing.assert_array_equal(
            pot._space._lifted[-2],
            (pot.g - np.einsum("ij,ij->i", support, support)) / pot.eps
            + np.log(target.weights))
        np.testing.assert_array_equal(pot._space._lifted[-1], 1.0)


class TestSoftCTransform:
    def test_zero_potential_is_min_cost(self):
        pot = _simple_potential([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert soft_c_transform(pot, np.array([1.0, 0.0])) == pytest.approx(-1.0)

    def test_large_eps_first_order(self):
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
        b = np.array([0.2, 0.5, 0.3])
        pot = _simple_potential(np.zeros(3), ys, b, eps=1e6)
        x = np.array([0.7, -0.3])
        expected = float(b @ cost_matrix(pot.cost, x[None, :], ys)[0])
        assert soft_c_transform(pot, x) == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("eps", [0.0, 0.7])
    def test_shift_equivariance(self, eps):
        gen = Rng(2).generator()
        ys = gen.standard_normal((4, 2))
        g = gen.standard_normal(4)
        kappa = 1.37
        x = gen.standard_normal(2)
        base = soft_c_transform(_simple_potential(g, ys, eps=eps), x)
        shifted = soft_c_transform(_simple_potential(g + kappa, ys, eps=eps), x)
        assert shifted == pytest.approx(base - kappa, abs=1e-12)

    @pytest.mark.parametrize("eps, kind", [(0.0, NEG_DOT), (0.6, NEG_DOT),
                                           (0.6, SQ_EUCLIDEAN)])
    def test_scan_matches_dense_formula(self, eps, kind, monkeypatch):
        gen = Rng(35).generator()
        ys = gen.standard_normal((30, 3))
        b = gen.random(30) + 0.1
        pot = _simple_potential(gen.standard_normal(30), ys, b, eps=eps,
                                kind=kind)
        x = gen.standard_normal((41, 3))
        # 6-row float64 tiles (12-row float32 ones at eps=0) with a ragged
        # last one: f is written tile by tile.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * 6 * 30)
        scores = pot.g - cost_matrix(pot.cost, x, ys)
        if eps == 0.0:
            expected = -scores.max(axis=1)
        else:
            expected = -eps * logsumexp(scores / eps, axis=1,
                                        b=pot.target.weights)
        np.testing.assert_allclose(soft_c_transform_rows(pot, x), expected,
                                   rtol=1e-12, atol=1e-12)


class TestResponsibilities:
    def test_unique_argmax(self):
        pot = _simple_potential([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
        out = responsibilities(pot, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_potential_tilts_argmax(self):
        pot = _simple_potential([0.0, 2.5], [[1.0, 0.0], [-1.0, 0.0]])
        out = responsibilities(pot, np.array([1.0, 0.0]))
        # Scores are (1, 1.5): index 1 wins.
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_infinite_eps_is_independent(self):
        gen = Rng(3).generator()
        ys = gen.standard_normal((5, 2))
        b = gen.random(5) + 0.1
        b /= b.sum()
        pot = _simple_potential(np.zeros(5), ys, b, eps=1e6)
        out = responsibilities(pot, gen.standard_normal(2))
        assert np.max(np.abs(out - b)) < 1e-4

    @given(seed=st.integers(0, 500), eps=st.sampled_from([0.0, 0.05, 1.0, 1e6]))
    @settings(max_examples=80, deadline=None)
    def test_first_marginal_law(self, seed, eps):
        gen = Rng(seed).generator()
        n = int(gen.integers(1, 7))
        ys = gen.standard_normal((n, 2))
        b = gen.random(n) + 0.05
        b /= b.sum()
        pot = _simple_potential(gen.standard_normal(n), ys, b, eps=eps)
        s = responsibilities_rows(pot, gen.standard_normal((4, 2)))
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


class TestSemidualValue:
    def test_point_mass(self):
        pot = _simple_potential([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        val = semidual_value(pot, np.array([[1.0, 0.0]]))
        assert val == pytest.approx(-1.0)

    def test_gauge_invariance(self):
        target, cost, noise = make_enumerated_instance(11)
        gen = Rng(4).generator()
        g = gen.standard_normal(target.n)
        base = semidual_value(Potential(g=g, target=target, cost=cost), noise.rows)
        shifted = semidual_value(
            Potential(g=g + 3.21, target=target, cost=cost), noise.rows
        )
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_matches_bruteforce_enumeration(self):
        target, cost, noise = make_enumerated_instance(12, n_target=2, n_atoms=6)
        g = Rng(5).generator().standard_normal(2)
        pot = Potential(g=g, target=target, cost=cost)
        # Brute force: sum the soft-min over atoms directly.
        acc = 0.0
        for x, wi in zip(noise.atoms, noise.weights):
            scores = g - cost_matrix(cost, x[None, :], target.points)[0]
            t = scores / cost.eps + np.log(target.weights)
            m = t.max()
            f = -cost.eps * (m + np.log(np.exp(t - m).sum()))
            acc += wi * f
        acc += float(target.weights @ g)
        assert semidual_value(pot, noise.rows) == pytest.approx(acc, abs=1e-12)


class TestStochasticGradient:
    def test_large_eps_vanishes(self):
        target, cost, noise = make_enumerated_instance(13, eps=1e6)
        pot = Potential(g=np.zeros(target.n), target=target, cost=cost)
        grad = stochastic_gradient(pot, noise.rows)
        assert np.max(np.abs(grad)) < 1e-4

    def test_sums_to_zero(self):
        target, cost, noise = make_enumerated_instance(14)
        g = Rng(6).generator().standard_normal(target.n)
        grad = stochastic_gradient(Potential(g=g, target=target, cost=cost),
                                   noise.rows)
        assert abs(grad.sum()) < 1e-10

    def test_finite_difference_oracle(self):
        target, cost, noise = make_enumerated_instance(
            15, n_target=2, n_atoms=2, d=2, eps=0.5
        )
        rows = noise.rows
        g0 = Rng(7).generator().standard_normal(2) * 0.5
        grad = stochastic_gradient(Potential(g=g0, target=target, cost=cost), rows)
        h = 1e-5
        for j in range(2):
            gp, gm = g0.copy(), g0.copy()
            gp[j] += h
            gm[j] -= h
            fd = (
                semidual_value(Potential(g=gp, target=target, cost=cost), rows)
                - semidual_value(Potential(g=gm, target=target, cost=cost), rows)
            ) / (2 * h)
            assert abs(fd - grad[j]) <= 1e-5 * max(abs(grad[j]), 1e-3)

    def test_oracle_stationarity(self):
        target, cost, noise = make_enumerated_instance(16, eps=0.5)
        costs = cost_matrix(cost, noise.atoms, target.points)
        _, _, g_star, _ = oracle_discrete_ot(costs, noise.weights, target.weights,
                                             cost.eps)
        grad = stochastic_gradient(
            Potential(g=g_star, target=target, cost=cost), noise.rows
        )
        assert np.max(np.abs(grad)) <= 1e-8

    def test_gradient_identity_with_marginal(self):
        target, cost, noise = make_enumerated_instance(17)
        g = Rng(8).generator().standard_normal(target.n)
        pot = Potential(g=g, target=target, cost=cost)
        grad = stochastic_gradient(pot, noise.rows)
        m = marginal_exact(pot, noise)
        np.testing.assert_allclose(grad, target.weights - m, atol=1e-14)

    def test_eps_zero_tie_atom_weighted_split(self):
        # The first atom is orthogonal to y_0 - y_1: an exact tie, whose
        # mass splits in proportion to b, not uniformly.
        b = np.array([0.25, 0.75])
        pot = _simple_potential([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]], b)
        noise = FiniteNoise([[0.0, 1.0], [2.0, 0.0], [-1.0, 3.0]], [5, 3, 2])
        grad = stochastic_gradient(pot, noise.rows)
        m = 0.5 * b + np.array([0.3, 0.2])
        np.testing.assert_allclose(grad, b - m, atol=1e-15)
        np.testing.assert_allclose(marginal_exact(pot, noise), m, atol=1e-15)


class TestMarginal:
    def test_symmetric_two_point(self):
        pot = _simple_potential([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
        m = semidual.chi2_batches(pot, Rng(9), 20000, 5000).marginal
        std_error = np.sqrt(np.max(m * (1.0 - m)) / 20000)
        assert m.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(m - 0.5)) < 4 * std_error + 0.02

    def test_independent_limit(self):
        gen = Rng(10).generator()
        ys = gen.standard_normal((4, 2))
        b = np.array([0.4, 0.3, 0.2, 0.1])
        pot = _simple_potential(np.zeros(4), ys, b, eps=1e6)
        m = semidual.chi2_batches(pot, Rng(11), 10000, 2500).marginal
        assert np.max(np.abs(m - b)) < 1e-3

    def test_enumeration_exact(self):
        # A finite law's rows repeat each atom by its count: their plain
        # means are the dense weighted oracle's sums over the distinct atoms.
        for eps in (0.0, 0.5):
            target, cost, noise = make_enumerated_instance(18, eps=eps)
            g = Rng(12).generator().standard_normal(target.n)
            pot = Potential(g=g, target=target, cost=cost)
            w = noise.weights  # counts / counts.sum()
            scores = g - cost_matrix(cost, noise.atoms, target.points)
            m = w @ softmax_rows(scores, target.weights, eps)
            f = -scores.max(axis=1) if eps == 0.0 else \
                -eps * logsumexp(scores / eps, b=target.weights, axis=1)
            np.testing.assert_allclose(marginal_exact(pot, noise), m, atol=1e-12)
            np.testing.assert_allclose(stochastic_gradient(pot, noise.rows),
                                       target.weights - m, atol=1e-12)
            assert semidual_value(pot, noise.rows) == \
                pytest.approx(w @ f + target.weights @ g, abs=1e-12)


class TestChi2:
    def test_identity_case(self):
        b = np.array([0.25, 0.75])
        assert chi2_exact(b, b) == pytest.approx(0.0, abs=1e-15)

    def test_direct_values(self):
        assert chi2_exact(np.array([0.5, 0.5]), np.array([0.25, 0.75])) == \
            pytest.approx(1.0 / 3.0, abs=1e-12)
        assert chi2_exact(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            chi2_exact(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_symmetric_toy_all_batches(self):
        # Both atoms map to their own target, so m = b exactly and the
        # estimator averages to zero over the four equally likely batches
        # (individual batches are +-1: it may be negative for finite B).
        pot = _simple_potential([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
        atoms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        vals = [
            chi2_estimator(pot, atoms[[i, j]])
            for i in (0, 1)
            for j in (0, 1)
        ]
        assert np.mean(vals) == pytest.approx(0.0, abs=1e-12)
        assert chi2_estimator(pot, atoms) == pytest.approx(-1.0, abs=1e-12)

    def test_independent_limit_unbiased(self):
        gen = Rng(13).generator()
        ys = gen.standard_normal((3, 2))
        b = np.array([0.5, 0.3, 0.2])
        pot = _simple_potential(np.zeros(3), ys, b, eps=1e6)
        noise = GaussianNoise(pot.target)
        vals = []
        for chunk in range(200):
            x = noise.sample(Rng(14).child(chunk), 32)
            vals.append(chi2_estimator(pot, x))
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(mean) <= 3 * se + 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.4])
    def test_scan_outputs_match_separate_reducers(self, eps, monkeypatch):
        gen = Rng(33).generator()
        pot = _simple_potential(gen.standard_normal(40) * 0.3,
                                gen.standard_normal((40, 3)),
                                gen.random(40) + 0.1, eps=eps)
        # 7-row float64 tiles (14-row float32 ones at eps=0): the outputs
        # are filled tile by tile.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * 7 * 40)
        x = gen.standard_normal((50, 3))
        f, mass = np.empty(50), np.ones(40)
        assert chi2_estimator(pot, x, soft_c=f, mass=mass) == \
            chi2_estimator(pot, x)
        np.testing.assert_array_equal(f, soft_c_transform_rows(pot, x))
        np.testing.assert_array_equal(mass,
                                      1.0 + semidual._column_sums(pot, x)[0])
        # A streamed scan: batches of 25, 25, 25 and 26, as the 1-row tail
        # joins the batch before it.
        scan = semidual.chi2_batches(pot, Rng(34), 101, 25)
        batches = [GaussianNoise(pot.target).sample(Rng(34).child(i), size)
                   for i, size in enumerate((25, 25, 25, 26))]
        assert scan.values == [chi2_estimator(pot, xb) for xb in batches]
        xs = np.vstack(batches)
        assert scan.soft_c_mean == pytest.approx(
            np.mean(soft_c_transform_rows(pot, xs)), abs=1e-12)
        np.testing.assert_allclose(scan.marginal,
                                   semidual._column_sums(pot, xs)[0] / 101,
                                   rtol=1e-12, atol=1e-15)

    def test_batch_too_small(self):
        pot = _simple_potential([0.0], [[1.0]])
        with pytest.raises(ValueError):
            chi2_estimator(pot, np.array([[1.0]]))

    def test_chi2_identity_uniform_b(self):
        # For uniform b: chi2(m(g) || b) = N * ||b - m(g)||^2.
        target, cost, noise = make_enumerated_instance(19, uniform=True)
        g = Rng(15).generator().standard_normal(target.n) * 0.5
        pot = Potential(g=g, target=target, cost=cost)
        m = marginal_exact(pot, noise)
        lhs = chi2_exact(m, target.weights)
        rhs = target.n * float(np.sum((target.weights - m) ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_tv_chi2_pinsker_chain(self):
        target, cost, noise = make_enumerated_instance(20)
        for seed in range(5):
            g = Rng(seed).generator().standard_normal(target.n)
            pot = Potential(g=g, target=target, cost=cost)
            m = marginal_exact(pot, noise)
            tv = 0.5 * np.abs(m - target.weights).sum()
            chi2 = chi2_exact(m, target.weights)
            assert tv <= np.sqrt(0.5 * np.log1p(chi2)) + 1e-12


class TestConcavity:
    def test_interpolation_probe(self):
        target, cost, noise = make_enumerated_instance(21, eps=0.3)
        rows = noise.rows
        gen = Rng(16).generator()
        for _ in range(20):
            g1 = gen.standard_normal(target.n)
            g2 = gen.standard_normal(target.n)
            lam = gen.random()
            mix = semidual_value(
                Potential(g=lam * g1 + (1 - lam) * g2, target=target, cost=cost),
                rows,
            )
            v1 = semidual_value(Potential(g=g1, target=target, cost=cost), rows)
            v2 = semidual_value(Potential(g=g2, target=target, cost=cost), rows)
            assert mix >= lam * v1 + (1 - lam) * v2 - 1e-9


class TestTransportCost:
    def test_single_point_target(self):
        ys = np.array([[2.0, 1.0]])
        for g in ([0.0], [5.0]):
            pot = _simple_potential(g, ys)
            x = np.array([[1.0, 1.0], [0.0, 3.0]])
            expected = float(np.mean(cost_matrix(pot.cost, x, ys)[:, 0]))
            assert transport_cost(pot, x) == pytest.approx(expected, abs=1e-12)

    def test_matches_lp_oracle_at_optimum(self):
        target, cost, noise = make_enumerated_instance(22, eps=0.05)
        costs = cost_matrix(cost, noise.atoms, target.points)
        _, _, g_star, value = oracle_discrete_ot(costs, noise.weights,
                                                 target.weights, cost.eps)
        pot = Potential(g=g_star, target=target, cost=cost)
        assert transport_cost(pot, noise.rows) == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_matches_dense_primal(self, eps, monkeypatch):
        self._check_dense_primal(NEG_DOT, eps, monkeypatch)

    def test_sq_euclidean_matches_dense_primal(self, monkeypatch):
        # The scan's soft-c transform adds back the |x|^2 that the fused
        # squared-Euclidean scores carry.
        self._check_dense_primal(SQ_EUCLIDEAN, 0.3, monkeypatch)

    @staticmethod
    def _check_dense_primal(kind, eps, monkeypatch):
        # mean_i sum_j s_ij c_ij + eps mean_i KL(s_i || b), from the dense
        # responsibilities, against the one-scan readout.
        gen = Rng(18).generator()
        ys = gen.standard_normal((25, 2))
        pot = _simple_potential(gen.standard_normal(25), ys,
                                gen.random(25) + 0.1, eps=eps, kind=kind)
        x = gen.standard_normal((37, 2))
        monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * 5 * 25)
        s = responsibilities_rows(pot, x)
        per_row = np.sum(s * cost_matrix(pot.cost, x, ys), axis=1)
        if eps > 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = np.where(s > 0, s * np.log(s / pot.target.weights), 0.0)
            per_row += eps * kl.sum(axis=1)
        assert transport_cost(pot, x) == pytest.approx(
            float(np.mean(per_row)), rel=1e-10, abs=1e-12)

    def test_independent_limit_kl_vanishes(self):
        gen = Rng(17).generator()
        ys = gen.standard_normal((4, 2))
        b = np.full(4, 0.25)
        pot = _simple_potential(np.zeros(4), ys, b, eps=1e6)
        x = gen.standard_normal((64, 2))
        with_kl = transport_cost(pot, x)
        c = cost_matrix(pot.cost, x, ys)
        plain = float(np.mean(c @ b))
        # Responsibilities approach b, leaving an O(1/eps) KL contribution.
        assert with_kl == pytest.approx(plain, abs=1e-5)


class TestGaugeFix:
    def test_weighted_mean_removed(self):
        gen = Rng(19).generator()
        b = gen.random(5) + 0.1
        b /= b.sum()
        g = gen.standard_normal(5)
        assert abs(np.dot(b, gauge_fix(g, b))) < 1e-12


def _traced_peak(fn, pot, x):
    """Peak bytes that ``fn(pot, x)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(pot, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    def test_peak_does_not_grow_with_batch(self):
        # Reducers work in place on one reused tile buffer, which both
        # costs fill: their peak allocation is about one tile plus O(N + B)
        # vectors, never a multiple of the (B, N) score block.
        gen = Rng(30).generator()
        n = 1024
        tile_bytes = semidual.SCORE_CHUNK_BYTES
        rows = semidual.SCORE_CHUNK_BYTES // (8 * n)  # float64 rows per tile

        for kind, eps in itertools.product((NEG_DOT, SQ_EUCLIDEAN), (0.0, 0.5)):
            pot = _simple_potential(gen.standard_normal(n) * 0.1,
                                    gen.standard_normal((n, 2)), eps=eps,
                                    kind=kind)
            for fn in (semidual_value, chi2_estimator):
                for b_rows in (rows, 16 * rows + 3):
                    bound = 1.5 * tile_bytes + 16 * 8 * (n + b_rows)
                    got = _traced_peak(fn, pot, gen.standard_normal((b_rows, 2)))
                    assert got < bound, (kind, fn.__name__, eps, b_rows, got,
                                         bound)

    def test_one_score_call_per_block(self, monkeypatch):
        # At N=4096, d=32 the block rule binds: 128-row matmul blocks cut
        # into 32-row float64 slabs, or 64-row float32 ones at eps=0. A scan
        # makes one coupling_scores call per block into the stream's buffer,
        # and at eps=0 at most one more per slab, the float64 re-check of
        # its near-tie rows. Its peak is about one block plus O(N + B)
        # vectors.
        gen = Rng(34).generator()
        n, d = 4096, 32
        assert semidual._tile_rows(n, d, 8) == (128, 32)
        assert semidual._tile_rows(n, d, 4) == (128, 64)
        block = 128
        calls = []
        scores = semidual.coupling_scores

        def counted(pot, x, out=None, shift=None):
            calls.append((len(x), out is not None))
            return scores(pot, x, out, shift)

        monkeypatch.setattr(semidual, "coupling_scores", counted)
        for kind, eps in itertools.product((NEG_DOT, SQ_EUCLIDEAN), (0.0, 0.5)):
            pot = _simple_potential(gen.standard_normal(n) * 0.1,
                                    gen.standard_normal((n, d)), eps=eps,
                                    kind=kind)
            block_bytes = block * n * (4 if eps == 0.0 else 8)
            for fn in (semidual_value, chi2_estimator):
                for b_rows in (block, 16 * block + 3):
                    x = gen.standard_normal((b_rows, d))
                    calls.clear()
                    bound = 1.5 * block_bytes + 16 * 8 * (n + b_rows)
                    got = _traced_peak(fn, pot, x)
                    assert got < bound, (kind, fn.__name__, eps, b_rows, got,
                                         bound)
                    blocks = [rows for rows, buffered in calls if buffered]
                    rechecks = [rows for rows, buffered in calls if not buffered]
                    assert len(blocks) == -(-b_rows // block), (fn.__name__, calls)
                    assert sum(blocks) == b_rows
                    slabs = sum(-(-rows // 64) for rows in blocks)
                    assert len(rechecks) <= (slabs if eps == 0.0 else 0)

    @pytest.mark.parametrize("n", [4096, 3000])  # a padded row stride, a plain one
    def test_eps0_scans_score_rows_times_n_float32_entries(self, n, monkeypatch):
        # Pairing, a solver step and a chi-square check each score every
        # row once in float32, on its N columns alone, and rescore in
        # float64 only the rows the rounding bound leaves open: here every
        # 50th row, whose nearest point is the longest one, which the last
        # point repeats.
        gen = Rng(36).generator()
        ys = gen.standard_normal((n, 2))
        far = np.argmax(np.sum(ys * ys, axis=1))
        ys[-1] = ys[far]
        g = 0.01 * gen.standard_normal(n)
        g[-1] = g[far]
        pot = _simple_potential(g, ys, kind=SQ_EUCLIDEAN)

        class Planted:
            @staticmethod
            def sample(rng, rows):
                x = rng.generator().standard_normal((rows, 2))
                x[::50] = 100.0 * ys[far]
                return x

        entries = {np.float32: 0, np.float64: 0}
        scores = semidual.coupling_scores

        def counted(pot, x, out=None, shift=None):
            got = scores(pot, x, out, shift)
            entries[got.dtype.type] += got.size
            return got

        monkeypatch.setattr(semidual, "coupling_scores", counted)
        x = Planted.sample(Rng(37), 1000)
        for run, rows in ((lambda: assign_batch(pot, x, Rng(38)), 1000),
                          (lambda: stochastic_gradient(pot, x), 1000),
                          (lambda: semidual.chi2_batches(pot, Rng(39), 2500, 1000,
                                                         Planted), 2500)):
            entries.update({np.float32: 0, np.float64: 0})
            run()
            assert entries[np.float32] == rows * n
            assert entries[np.float64] % n == 0
            assert -(-rows // 50) <= entries[np.float64] // n < rows // 10

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_block_buffer_starts_on_a_cache_line(self, eps):
        # A slab pass over a buffer off a 64-byte line splits its loads.
        gen = Rng(35).generator()
        pot = _simple_potential(gen.standard_normal(4096),
                                gen.standard_normal((4096, 2)), eps=eps)
        for _ in range(8):
            _, _, scores, _ = next(semidual.score_chunks(
                pot, gen.standard_normal((64, 2))))
            assert scores.ctypes.data % 64 == 0


class TestScoreTiles:
    """Reducers give the same results whatever the tile heights.

    Tiles come in two levels: matmul blocks, cut into reducer slabs. 1-row
    and ragged blocks take BLAS's matrix-vector or edge kernels, which may
    round the last bit of a score differently from the matrix-matrix
    kernel, so float results agree to 1e-12 relative; integer results
    (eps=0 counts, drawn indices) agree exactly.
    """

    N, B = 500, 300

    @pytest.fixture(params=[1, 8, "default", "batch"])
    def tile_rows(self, request, monkeypatch):
        # float64 slab heights, with the block rule left as it is; eps=0
        # slabs are float32 and twice as high.
        if request.param != "default":
            rows = self.B if request.param == "batch" else request.param
            monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * rows * self.N)
        return request.param

    @pytest.fixture(params=["1", "ragged", "batch"])
    def block_rows(self, request, monkeypatch):
        # Block heights set apart from the slab: 1-row blocks; four
        # 70-row blocks and a ragged 20-row one, in 16-row slabs with a
        # ragged last slab each; one whole-batch block in 8-row slabs.
        shape = {"1": (1, 1), "ragged": (70, 16), "batch": (self.B, 8)}
        block, slab = shape[request.param]
        monkeypatch.setattr(semidual, "_tile_rows",
                            lambda n, d, itemsize: (block, slab))
        return request.param

    @staticmethod
    def _results(eps):
        gen = Rng(31).generator()
        pot = _simple_potential(gen.standard_normal(TestScoreTiles.N) * 0.3,
                                gen.standard_normal((TestScoreTiles.N, 3)),
                                gen.random(TestScoreTiles.N) + 0.1, eps=eps)
        x = gen.standard_normal((TestScoreTiles.B, 3))
        col_sum, col_sq = semidual._column_sums(pot, x, squares=True)
        return {
            "col_sum": col_sum,
            "col_sq": col_sq,
            "grad": stochastic_gradient(pot, x),
            "chi2": chi2_estimator(pot, x),
            "soft_c": soft_c_transform_rows(pot, x),
            "cost": transport_cost(pot, x),
            "assign": assign_batch(pot, x, Rng(32)),
        }

    def _check_against_one_tile(self, eps, monkeypatch):
        got = self._results(eps)
        monkeypatch.setattr(semidual, "_tile_rows",
                            lambda n, d, itemsize: (self.B, self.B))
        ref = self._results(eps)
        np.testing.assert_array_equal(got["assign"], ref["assign"])
        if eps == 0.0:
            np.testing.assert_array_equal(got["col_sum"], ref["col_sum"])
            np.testing.assert_array_equal(got["grad"], ref["grad"])
            assert got["col_sum"].sum() == self.B
        for key in ("col_sum", "col_sq", "soft_c"):
            np.testing.assert_allclose(got[key], ref[key], rtol=1e-12, atol=0)
        for key in ("chi2", "cost"):
            assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0)

    @pytest.mark.parametrize("eps", [0.0, 0.4])
    def test_results_do_not_depend_on_tile_height(self, eps, tile_rows,
                                                  monkeypatch):
        self._check_against_one_tile(eps, monkeypatch)

    @pytest.mark.parametrize("eps", [0.0, 0.4])
    def test_results_do_not_depend_on_block_height(self, eps, block_rows,
                                                   monkeypatch):
        self._check_against_one_tile(eps, monkeypatch)


def _unshifted(scores, shift):
    """An eps>0 slab plus its rows' shift: the exponents themselves, and the
    shift the matmul subtracted (0 where ``shift`` is ``NaN``: that row
    holds its exponents already)."""
    shift = np.where(np.isnan(shift), 0.0, shift)
    return scores + shift[:, None], shift


def _streamed_scores(pot, x):
    """The exponents of one eps>0 :func:`semidual.score_chunks` stream and
    the rows' shifts (:func:`_unshifted`), stacked."""
    out, shifts = np.empty((len(x), pot.target.n)), np.empty(len(x))
    for lo, hi, scores, shift in semidual.score_chunks(pot, x):
        out[lo:hi], shifts[lo:hi] = _unshifted(scores, shift)
    return out, shifts


def _exponent_error(pot, x, got, shift):
    """Largest error of eps>0 exponents ``got`` of raw rows ``x``, less
    ``shift`` in the matmul, against the two-pass scores' ``scores / eps +
    log b`` (plus ``|x|^2 / eps`` per row at the squared Euclidean cost),
    in float64 eps of the magnitude ``(|x|^2 + |y|^2 + |g|) / eps + |log
    b| + |shift|``. The matmul sums the ``-shift`` term too, so its
    rounding scales with it."""
    e = pot.cost.embed(x)
    sq_x = np.sum(e * e, axis=1)[:, None]
    log_b = np.log(pot.target.weights)
    ref = scores_two_pass(pot, x) / pot.eps + log_b
    if pot.cost.kind == SQ_EUCLIDEAN:
        ref += sq_x / pot.eps
    scale = (sq_x + np.sum(pot.support**2, axis=1) + np.abs(pot.g)) / pot.eps
    scale += np.abs(log_b) + np.abs(shift)[:, None]
    return np.max(np.abs(got - ref) / scale) / np.finfo(np.float64).eps


def _blocks(scores, pot, x):
    """``scores(pot, rows)`` over the float64 stream's matmul blocks, stacked."""
    block, _ = semidual._tile_rows(pot.target.n, pot.support.shape[1], 8)
    return np.vstack([scores(pot, x[lo:lo + block])
                      for lo in range(0, len(x), block)])


def _two_pass_blocks(pot, x):
    return _blocks(scores_two_pass, pot, x)


def _float64_blocks(pot, x):
    """The float64 scores of an eps=0 potential, block by block."""
    return _blocks(semidual.coupling_scores, pot, x)


class TestFusedKernel:
    """One matmul of ``[a x, 1]`` against ``[S, shift]`` scores both costs.

    Blocks of the float64 scores (``coupling_scores`` at eps=0 without an
    ``out``) are compared with the two-pass kernel on the same block
    shapes: BLAS picks its kernel (matrix-vector for 1-row blocks, edge
    kernels for ragged ones) from the shape.
    """

    @staticmethod
    def _case(d, kind=NEG_DOT, pca=None, seed=40, eps=0.0, weights=False):
        gen = Rng(seed).generator()
        n = 1024 if d == 32 else 4096
        points = gen.standard_normal((n, d if pca is None else 8))
        projection = None if pca is None else fit_pca(points, pca)
        cost = CostConfig(kind=kind, eps_raw=eps, projection=projection)
        b = gen.random(n) + 0.1 if weights else None
        target = TargetMeasure.from_points(points, b)
        pot = Potential(g=gen.standard_normal(n), target=target, cost=cost)
        return pot, gen

    @pytest.mark.parametrize("d, pca", [(1, None), (2, None), (32, None),
                                        (2, 2)])
    @pytest.mark.parametrize("rows", ["1", "ragged", "several"])
    def test_neg_dot_bit_equal_to_two_pass(self, d, pca, rows):
        pot, gen = self._case(d, pca=pca)
        block, _ = semidual._tile_rows(pot.target.n, pot.support.shape[1], 8)
        b_rows = {"1": 1, "ragged": 5, "several": 3 * block + 5}[rows]
        x = gen.standard_normal((b_rows, pot.target.dim))
        fused, ref = _float64_blocks(pot, x), _two_pass_blocks(pot, x)
        if b_rows == 1 and d == 1:
            # BLAS's matrix-vector kernel folds the two products of a K=2
            # row in another order than K=1 plus an add: the results differ
            # by rounding, within one unit of the two terms' magnitude.
            x_dot = np.abs(x @ pot.target.points.T)
            bound = np.finfo(np.float64).eps * (x_dot + np.abs(pot.g))
            assert np.all(np.abs(fused - ref) <= bound)
        else:
            np.testing.assert_array_equal(fused, ref)

    @pytest.mark.parametrize("d", [1, 2, 32])
    def test_sq_euclidean_equal_up_to_row_constant(self, d):
        # The fused scores carry +|x|^2 per row. Over these shapes the
        # largest error measured against the two-pass scores was 2.98 eps
        # of the score magnitude |x|^2 + |y|^2 + |g|; the bound is 8 eps.
        pot, gen = self._case(d, kind=SQ_EUCLIDEAN)
        x = 3.0 * gen.standard_normal((333, d))
        sq_x = np.sum(x * x, axis=1)[:, None]
        err = np.abs(_float64_blocks(pot, x) - _two_pass_blocks(pot, x) - sq_x)
        scale = sq_x + np.sum(pot.target.points**2, axis=1) + np.abs(pot.g)
        assert np.max(err / scale) <= 8 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    @pytest.mark.parametrize("d, pca", [(1, None), (2, None), (32, None),
                                        (2, 2)])
    def test_eps_positive_slabs_hold_exponents(self, kind, d, pca):
        # At eps>0 the stream's slabs plus their rows' shift hold (g - c) /
        # eps + log b, plus |x|^2 / eps per row at the squared Euclidean
        # cost. Over these shapes at eps 0.37, 0.5, 3 and 1e-3, with 1, 5
        # and 3 blocks + 5 rows, the largest error measured against the
        # two-pass scores was 1.7 eps (neg-dot) and 4.5 eps (sq-euclidean)
        # of the magnitude (|x|^2 + |y|^2 + |g|) / eps + |log b| + |shift|;
        # the bound is 8 eps. Without |shift| the one bound-shifted row at
        # eps 1e-3, d=1 measured 59 and 85 eps: its shift is 240-310 times
        # its columns' magnitude there.
        pot, gen = self._case(d, kind, pca, eps=0.37, weights=True)
        block, _ = semidual._tile_rows(pot.target.n, pot.support.shape[1], 8)
        for rows in (1, 3 * block + 5):
            x = 3.0 * gen.standard_normal((rows, pot.target.dim))
            assert _exponent_error(pot, x, *_streamed_scores(pot, x)) <= 8

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    def test_tiny_eps_matches_dense_softmax(self, kind):
        # At eps = 1e-3 of the cost std a row's exponents span thousands:
        # most exp entries underflow, none may overflow or warn. The
        # responsibilities, soft-c and draws match the dense oracle. The
        # largest errors measured were 4.0e-13 relative on column sums
        # above 1e-3, 1.6e-13 relative on soft-c (the squared Euclidean
        # cost; 3.5e-13 and 8.4e-14 before the fold).
        gen = Rng(45).generator()
        points = gen.standard_normal((500, 3))
        cost = CostConfig(kind=kind, eps_raw=1e-3)
        cost = cost.with_rescaled_eps(estimate_cost_std(
            cost, gen.standard_normal((256, 3)), points[:256]))
        pot = Potential(g=gen.standard_normal(500),
                        target=TargetMeasure.from_points(points,
                                                         gen.random(500) + 0.1),
                        cost=cost)
        self._matches_dense_softmax(pot, gen.standard_normal((300, 3)), 46)

    @staticmethod
    def _matches_dense_softmax(pot, x, seed):
        """Column sums, squares, soft-c and draws of rows ``x`` equal the
        dense oracle's."""
        b = pot.target.weights
        scores = pot.g - cost_matrix(pot.cost, x, pot.target.points)
        dense = softmax_rows(scores, b, pot.eps)
        col_sum, col_sq = semidual._column_sums(pot, x, squares=True)
        np.testing.assert_allclose(col_sum, dense.sum(axis=0), rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(col_sq, (dense * dense).sum(axis=0),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            soft_c_transform_rows(pot, x),
            -pot.eps * logsumexp(scores / pot.eps, axis=1, b=b),
            rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(
            assign_batch(pot, x, Rng(seed)),
            inverse_cdf(dense, Rng(seed).generator().random(len(x))))

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    def test_bound_and_guarded_rows_match_dense_softmax(self, kind):
        # At eps 0.2 the rows near the support are shifted by their bound
        # U_i. Every third row is scaled by 100: its bound exceeds the
        # exponent at j* = argmax shift by more than BOUND_MARGIN, so it
        # subtracts its own maximum. Both branches run in each slab.
        gen = Rng(47).generator()
        points = gen.standard_normal((500, 3))
        pot = Potential(g=gen.standard_normal(500),
                        target=TargetMeasure.from_points(points,
                                                         gen.random(500) + 0.1),
                        cost=CostConfig(kind=kind, eps_raw=0.2))
        x = gen.standard_normal((300, 3))
        far = np.arange(300) % 3 == 0
        x[far] *= 100.0
        assert semidual._tile_rows(500, 3, 8) == (262, 262)
        shift = np.empty(300)
        semidual.coupling_scores(pot, x, shift=shift)
        np.testing.assert_array_equal(np.isnan(shift), far)
        self._matches_dense_softmax(pot, x, 48)

    def test_overflowing_bound_takes_the_row_maximum(self):
        # A row scaled by 1e200 overflows its bound's norm, not its
        # exponents: it takes its own maximum, and its gradient is the
        # dense one. At 1e308 its coordinates over eps overflow as well,
        # and its gradient is not finite (the solver fails closed on it,
        # test_solver.py).
        gen = Rng(49).generator()
        pot = _simple_potential(gen.standard_normal(64),
                                gen.standard_normal((64, 2)), eps=0.5)
        x = gen.standard_normal((8, 2))
        x[3] *= 1e200
        shift = np.empty(8)
        semidual.coupling_scores(pot, x, shift=shift)
        np.testing.assert_array_equal(np.isnan(shift), np.arange(8) == 3)
        np.testing.assert_allclose(
            stochastic_gradient(pot, x),
            pot.target.weights - responsibilities_rows(pot, x).mean(axis=0),
            rtol=1e-12, atol=1e-15)
        x[3] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(stochastic_gradient(pot, x)))

    @pytest.mark.parametrize("kind, eps", [(NEG_DOT, 0.0), (NEG_DOT, 0.5),
                                           (SQ_EUCLIDEAN, 0.5)])
    def test_in_place_g_update_is_scored(self, kind, eps):
        # The solver's step potential aliases g, which changes in place
        # between scans, and potentials over one target share its lifted
        # support: every scan must score its own potential's current g.
        gen = Rng(41).generator()
        ys = gen.standard_normal((64, 2))
        pot = _simple_potential(gen.standard_normal(64), ys, eps=eps, kind=kind)
        other = Potential(g=gen.standard_normal(64), target=pot.target,
                          cost=pot.cost)
        x = gen.standard_normal((40, 2))
        first, other_grad = stochastic_gradient(pot, x), stochastic_gradient(other, x)
        assert np.all(np.isfinite(first)) and np.all(np.isfinite(other_grad))
        np.testing.assert_array_equal(stochastic_gradient(pot, x), first)
        pot.g += gen.standard_normal(64)
        fresh = _simple_potential(pot.g.copy(), ys, eps=eps, kind=kind)
        np.testing.assert_array_equal(stochastic_gradient(pot, x),
                                      stochastic_gradient(fresh, x))
        np.testing.assert_array_equal(assign_batch(pot, x, Rng(42)),
                                      assign_batch(fresh, x, Rng(42)))
        assert not np.array_equal(first, stochastic_gradient(pot, x))
        np.testing.assert_array_equal(stochastic_gradient(other, x), other_grad)


class TestShiftRow:
    """Each :func:`semidual.coupling_scores` call writes its own potential's
    shift row, so scores need no set-up call and streams may interleave."""

    @pytest.mark.parametrize("pca", [None, 2])
    def test_fresh_target_scores_match_two_pass(self, pca):
        pot, gen = TestFusedKernel._case(2, pca=pca)
        x = gen.standard_normal((40, pot.target.dim))
        np.testing.assert_array_equal(semidual.coupling_scores(pot, x),
                                      scores_two_pass(pot, x))

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    def test_interleaved_streams_score_their_own_potential(self, kind):
        # At N=4096, d=2 a stream of 64 rows is two 32-row blocks, so each
        # stream's second block is scored after the other stream's first,
        # and must hold its own folded shift row g / eps + log b.
        gen = Rng(43).generator()
        target = TargetMeasure.from_points(gen.standard_normal((4096, 2)),
                                           gen.random(4096) + 0.1)
        cost = CostConfig(kind=kind, eps_raw=0.5)
        pots = [Potential(g=gen.standard_normal(4096), target=target, cost=cost)
                for _ in range(2)]
        x = gen.standard_normal((64, 2))
        assert semidual._tile_rows(4096, 2, 8) == (32, 32)
        streams = [semidual.score_chunks(pot, x) for pot in pots]
        got = [(np.empty((64, 4096)), np.empty(64)) for _ in pots]
        for _ in range(2):
            for stream, (out, shifts) in zip(streams, got):
                lo, hi, scores, shift = next(stream)
                out[lo:hi], shifts[lo:hi] = _unshifted(scores, shift)
        for pot, (out, shifts) in zip(pots, got):
            alone, alone_shifts = _streamed_scores(pot, x)
            np.testing.assert_array_equal(out, alone)
            np.testing.assert_array_equal(shifts, alone_shifts)
            # as in TestFusedKernel
            assert _exponent_error(pot, x, out, shifts) <= 8

    def test_interleaved_eps0_streams_gather_their_own_maxima(self):
        # At N=4096, d=32 an eps=0 block is two 64-row slabs, so each
        # stream's second block is scored, and its slabs reduced, after the
        # other stream's first block. The last two points repeat points 0
        # and 5, with their g, and rows 3, 70 and 200 point at them: slabs
        # 0, 1 and 3 hold a tie row. Between two slabs of one stream the
        # other potential's soft-c is gathered, which writes its own shift
        # rows into the shared target. Its rows, those of slab 2, have no
        # tie, so only its own shift row may reach its gather.
        gen = Rng(44).generator()
        points = gen.standard_normal((4096, 32))
        points[-2:] = points[[0, 5]]
        target = TargetMeasure.from_points(points)
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.0)
        pots = []
        for _ in range(2):
            g = gen.standard_normal(4096)
            g[-2:] = g[[0, 5]]
            pots.append(Potential(g=g, target=target, cost=cost))
        x = gen.standard_normal((256, 32))
        x[3], x[70], x[200] = 50.0 * points[[0, 5, 0]]
        assert semidual._tile_rows(4096, 32, 4) == (128, 64)

        def copied(slab):
            lo, hi, (idx, tie_rows, tie_weights) = slab
            return lo, hi, idx.copy(), tie_rows, tie_weights

        streams = [semidual.argmax_chunks(pot, x) for pot in pots]
        got, soft_c = [[], []], [[], []]
        for _ in range(4):
            for k, (stream, slabs) in enumerate(zip(streams, got)):
                slabs.append(copied(next(stream)))
                f = np.empty(64)
                semidual._column_sums(pots[1 - k], x[128:192], soft_c=f)
                soft_c[1 - k].append(f)
        for pot, slabs, fs in zip(pots, got, soft_c):
            alone = [copied(s) for s in semidual.argmax_chunks(pot, x)]
            assert len(alone) == len(slabs) == 4
            for mine, ref in zip(slabs, alone):
                for a, b in zip(mine, ref):
                    np.testing.assert_array_equal(a, b)
            assert [s[3].tolist() for s in slabs] == [[3], [6], [], [8]]
            scores = semidual.coupling_scores(pot, x)
            np.testing.assert_array_equal(
                np.concatenate([s[2] for s in slabs]), scores.argmax(axis=1))
            assert len(fs) == 4
            for f in fs:
                np.testing.assert_allclose(-f, scores[128:192].max(axis=1),
                                           rtol=1e-12)

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    def test_scans_write_only_shift_rows(self, kind, monkeypatch):
        # The coupling-space target owns every array derived from the
        # support, and a scan at either eps writes only its potential's
        # shift rows there, its float64 re-checks included: the coordinate
        # rows, the ones row and the float32 coordinate rows keep the
        # values they were built with, and every other array of the target
        # keeps its bytes. Row 0 points at the longest point, which the last
        # point repeats (with its g), so its tie is re-checked in float64.
        gen = Rng(49).generator()
        ys = gen.standard_normal((4096, 2))
        far = np.argmax(np.sum(ys * ys, axis=1))
        ys[-1] = ys[far]
        g = 0.01 * gen.standard_normal(4096)
        g[-1] = g[far]
        x = gen.standard_normal((300, 2))
        x[0] = 100.0 * ys[far]
        target = TargetMeasure.from_points(ys)
        pots = [Potential(g=g, target=target,
                          cost=CostConfig(kind=kind, eps_raw=eps))
                for eps in (0.0, 0.5)]
        # Scans of other potentials build the target's cached arrays.
        for pot in pots:
            stochastic_gradient(Potential(g=-g, target=target, cost=pot.cost), x)

        def arrays():
            return {k: v.tobytes() for k, v in vars(target).items()
                    if isinstance(v, np.ndarray)
                    and k not in ("_lifted", "_single")}

        before = arrays()
        assert "_sq_norms" in before or kind == NEG_DOT
        rechecked = []
        scores = semidual.coupling_scores

        def counted(pot, x, out=None, shift=None):
            rechecked.append(out is None)
            return scores(pot, x, out, shift)

        monkeypatch.setattr(semidual, "coupling_scores", counted)
        for pot in pots:
            semidual_value(pot, x)
            chi2_estimator(pot, x)
            assign_batch(pot, x, Rng(50))
            # A potential holds no array of its own beyond g.
            assert set(vars(pot)) == {"g", "target", "cost", "provenance",
                                      "_space"}
        assert sum(rechecked) >= 3
        assert arrays() == before
        np.testing.assert_array_equal(target._lifted[:-2], ys.T)
        np.testing.assert_array_equal(target._lifted[-1], 1.0)
        np.testing.assert_array_equal(target._single[:-1],
                                      ys.T.astype(np.float32))


class TestEps0TieFreeSlabs:
    """At eps=0 a block without near-ties skips the float64 and tie work. A
    stream that mixes such blocks with blocks whose ties come from
    duplicated support points reduces as the dense rule does on the float64
    scores: one-hot rows, tie rows split by ``b``.
    """

    N, SLAB = 64, 8

    def test_mixed_stream_matches_dense_rule(self, monkeypatch):
        # float32 slabs of SLAB rows, which is also the block height 4 d.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 4 * self.SLAB * self.N)
        gen = Rng(48).generator()
        # Points on the unit circle; the last two repeat points 0 and 3.
        angles = 2 * np.pi * np.arange(self.N - 2) / (self.N - 2)
        ys = np.column_stack([np.cos(angles), np.sin(angles)])
        ys = np.vstack([ys, ys[[0, 3]]])
        g = 0.01 * gen.standard_normal(self.N)
        g[-2:] = g[[0, 3]]
        b = gen.random(self.N) + 0.1
        pot = _simple_potential(g, ys, b / b.sum())
        b = pot.target.weights
        # Rows point away from the repeated points, except three rows of
        # slabs 1 and 3, which point at them.
        theta = np.pi * gen.uniform(0.6, 1.4, 5 * self.SLAB)
        x = gen.uniform(0.5, 3.0, (len(theta), 1)) * np.column_stack(
            [np.cos(theta), np.sin(theta)])
        x[self.SLAB + 2] = x[self.SLAB + 5] = 50.0 * ys[0]
        x[3 * self.SLAB] = 50.0 * ys[3]

        scores = semidual.coupling_scores(pot, x)  # float64
        has_ties = []
        for lo, hi, (idx, tie_rows, _) in semidual.argmax_chunks(pot, x):
            assert hi - lo == self.SLAB
            ref_idx, ref_ties, _ = argmax_with_ties(scores[lo:hi].copy(), b)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(tie_rows, ref_ties)
            has_ties.append(tie_rows.size > 0)
        assert has_ties == [False, True, False, True, False]
        close = scores >= scores.max(axis=1, keepdims=True) - ARGMAX_TIE_TOL
        dense = b * close
        dense /= dense.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(dense, softmax_rows(scores, b, 0.0))

        f = np.empty(len(x))
        col_sum, col_sq = semidual._column_sums(pot, x, squares=True, soft_c=f)
        np.testing.assert_array_equal(-f, scores.max(axis=1))
        np.testing.assert_allclose(col_sum, dense.sum(axis=0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(col_sq, (dense * dense).sum(axis=0), rtol=0,
                                   atol=1e-14)
        sums, none = semidual._column_sums(pot, x)
        assert none is None
        np.testing.assert_array_equal(sums, col_sum)
        idx = assign_batch(pot, x, Rng(49))
        np.testing.assert_array_equal(
            idx, inverse_cdf(dense, Rng(49).generator().random(len(x))))
        assert idx[self.SLAB + 2] in (0, self.N - 2)
        assert idx[3 * self.SLAB] in (3, self.N - 1)


class TestFloat32Eps0Scan:
    """eps=0 scans score in float32 and re-check near-ties in float64: the
    indices, draws, column sums, squares and soft-c equal the float64
    reference (the oracle's float64 scores plus ``argmax_with_ties``) at
    both costs, with and without a projection, on planted near-ties,
    duplicate points and values beyond float32's range."""

    N, D = 300, 3

    @classmethod
    def _potential(cls, kind, pca, points, g):
        projection = None if pca is None else fit_pca(points, pca)
        cost = CostConfig(kind=kind, eps_raw=0.0, projection=projection)
        b = Rng(60).generator().random(len(points)) + 0.1
        return Potential(g=g, target=TargetMeasure.from_points(points, b),
                         cost=cost)

    @staticmethod
    def _bound(pot, x):
        """β_i of :func:`semidual.argmax_chunks` without its underflow term."""
        a = 1.0 if pot.cost.kind == NEG_DOT else 2.0
        support = pot.support
        shift = pot.g - (0.0 if a == 1.0 else np.sum(support**2, axis=1))
        k = support.shape[1] + 1
        gamma = (k + 2) * 2.0**-24 / (1 - (k + 2) * 2.0**-24)
        s = a * np.abs(pot.cost.embed(x)) @ np.abs(support).max(axis=0)
        return gamma * (s + np.abs(shift).max())

    @staticmethod
    def _check_against_float64(pot, x):
        b = pot.target.weights
        scores = semidual.coupling_scores(pot, x)  # float64
        idx, tie_rows, tie_weights = argmax_with_ties(scores.copy(), b)
        want_sum, want_sq = np.zeros(pot.target.n), np.zeros(pot.target.n)
        semidual.eps0_column_stats((idx, tie_rows, tie_weights), want_sum,
                                   want_sq)
        u = Rng(61).generator().random(len(x))
        want_idx = idx.copy()
        want_idx[tie_rows] = inverse_cdf(tie_weights, u[tie_rows])

        f = np.empty(len(x))
        col_sum, col_sq = semidual._column_sums(pot, x, squares=True, soft_c=f)
        np.testing.assert_array_equal(col_sum, want_sum)
        np.testing.assert_array_equal(col_sq, want_sq)
        np.testing.assert_array_equal(assign_batch(pot, x, Rng(61)), want_idx)
        want_f = -scores.max(axis=1)
        if pot.cost.kind != NEG_DOT:
            want_f += np.einsum("ij,ij->i", pot.cost.embed(x), pot.cost.embed(x))
        np.testing.assert_array_equal(f, want_f)
        slabs = list(semidual.argmax_chunks(pot, x))
        assert [(lo, hi) for lo, hi, _ in slabs] == [(0, len(x))]
        np.testing.assert_array_equal(slabs[0][2][0], idx)
        np.testing.assert_array_equal(slabs[0][2][1], tie_rows)
        return scores, tie_rows

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    @pytest.mark.parametrize("pca", [None, 2])
    def test_planted_near_ties(self, kind, pca):
        gen = Rng(62).generator()
        points = gen.standard_normal((self.N, self.D))
        pot = self._potential(kind, pca, points, np.zeros(self.N))
        # Every point gets a cell: at the neg-dot cost, as the nearest
        # point does at the squared Euclidean one.
        pot.g[:] = 0.1 * gen.standard_normal(self.N)
        if kind == NEG_DOT:
            pot.g -= 0.5 * np.sum(pot.support**2, axis=1)
        pot.g[0] = -100.0  # the largest |shift|, which planting leaves alone
        x = gen.standard_normal((256, self.D))
        # Each planted row lowers its top column's potential onto the
        # second's plus the gap; rows that share a top-two column are not
        # planted, so no planting moves another.
        scores = semidual.coupling_scores(pot, x)
        top_two = np.argsort(-scores, axis=1)[:, :2]
        planted, used = [], set()
        for row, pair in enumerate(top_two):
            if len(planted) < 16 and not used & set(pair):
                planted.append(row)
                used |= set(pair)
        planted = np.array(planted)
        assert len(planted) == 16
        # Float64 top-two gaps: 0, 1e-13, just under and just over 2 β.
        beta = self._bound(pot, x[planted])
        gaps = np.tile([0.0, 1e-13, 0.0, 0.0], 4)
        gaps[2::4], gaps[3::4] = 0.99 * 2 * beta[2::4], 1.01 * 2 * beta[3::4]
        for row, gap in zip(planted, gaps):
            top, second = top_two[row]
            pot.g[top] -= scores[row, top] - scores[row, second] - gap
        scores, tie_rows = self._check_against_float64(pot, x)
        top_two = -np.sort(-scores[planted], axis=1)[:, :2]
        got_gaps = top_two[:, 0] - top_two[:, 1]
        np.testing.assert_allclose(got_gaps, gaps, rtol=1e-6, atol=1e-14)
        np.testing.assert_array_equal(tie_rows, planted[gaps <= 1e-13])
        np.testing.assert_array_equal(self._bound(pot, x[planted]), beta)

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    @pytest.mark.parametrize("pca", [None, 2])
    def test_duplicate_points(self, kind, pca):
        gen = Rng(63).generator()
        points = gen.standard_normal((self.N, self.D))
        points[-30:] = points[:30]
        g = 0.1 * gen.standard_normal(self.N)
        g[-30:] = g[:30]
        pot = self._potential(kind, pca, points, g)
        # Half the rows sit at or point at a duplicated point.
        x = 2.0 * gen.standard_normal((64, self.D))
        scale = 5.0 if kind == NEG_DOT else 1.0
        x[::2] = scale * points[gen.integers(0, 30, 32)]
        _, tie_rows = self._check_against_float64(pot, x)
        assert tie_rows.size >= 8

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    @pytest.mark.parametrize("pca", [None, 2])
    @pytest.mark.parametrize("case", ["points 1e39", "potential 1e39",
                                      "points 1e-40"])
    def test_values_beyond_float32_range(self, kind, pca, case):
        gen = Rng(64).generator()
        points = gen.standard_normal((self.N, self.D))
        g = 0.1 * gen.standard_normal(self.N)
        x = gen.standard_normal((64, self.D))
        if case == "points 1e39":
            points *= 1e39
        elif case == "potential 1e39":
            g = 1e39 * (1.0 + 1e-9 * gen.standard_normal(self.N))
        else:
            points *= 1e-40
            x *= 1e-40
        pot = self._potential(kind, pca, points, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._check_against_float64(pot, x)

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    @pytest.mark.parametrize("case", ["point", "noise"])
    def test_one_coordinate_beyond_float32_range(self, kind, case):
        # A product of a coordinate beyond float32's range with one near
        # 1e-39 is of order 1 in float64 but infinite in float32, where
        # point 7 alone gets +inf.
        gen = Rng(65).generator()
        points = gen.standard_normal((self.N, self.D))
        x = gen.standard_normal((64, self.D))
        if case == "point":
            points[7, 0] = 1e39
            x[:, 0] *= 1e-39
        else:
            points[:, 0] = -1e-39 * np.abs(points[:, 0])
            points[7, 0] = 1e-40
            x[::2, 0] = 1e39 * np.abs(gen.standard_normal(32))
        pot = self._potential(kind, None, points, 0.1 * gen.standard_normal(self.N))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._check_against_float64(pot, x)


class TestPaddedRowStride:
    """An eps=0 stream's rows of N = 4096 float32 scores are 16 ``-inf``
    columns longer, a 64-byte line (:func:`semidual.score_chunks`); rows of
    N = 4095 are not padded. Either way the stream gives what the tie rule
    gives on the dense float64 scores, so no pad column wins a row: on
    exact ties with the last column, next to the pad; on rows whose float32
    scores overflow; and on rows that hold a NaN."""

    @pytest.mark.parametrize("n", [4096, 4095])
    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    @pytest.mark.parametrize("g_scale", [0.01, 1e38])
    def test_a_pad_column_never_wins(self, n, kind, g_scale):
        gen = Rng(66).generator()
        ys = gen.standard_normal((n, 2))
        far = np.argmax(np.sum(ys * ys, axis=1))
        ys[-1] = ys[far]
        g = g_scale * (1.0 + 1e-9 * gen.standard_normal(n))
        g[far] = g[-1] = g.max()
        pot = _simple_potential(g, ys, kind=kind)
        x = gen.standard_normal((300, 2))
        x[::7] = 100.0 * ys[far]  # exact ties
        # float32 overflow: at most 3e38 a coordinate, over 4e38 a score
        x[3::11] = ys[far] * (gen.uniform(1e38, 3e38, (27, 1)) / np.abs(ys[far]).max())
        x[5::23, 1] = np.nan

        with np.errstate(over="ignore", invalid="ignore"):  # its consumer's
            _, _, slab, _ = next(semidual.score_chunks(pot, x))
        assert slab.shape[1] == (n + 16 if n == 4096 else n)
        assert np.all(slab[:, n:] == -np.inf)
        assert np.isinf(slab[3, :n]).any() and np.isnan(slab[5, :n]).all()
        b = pot.target.weights
        want_idx, want_ties, want_weights = argmax_with_ties(
            semidual.coupling_scores(pot, x), b)
        idx, ties, weights = [], [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi, (part, tie_rows, tie_weights) in \
                    semidual.argmax_chunks(pot, x):
                idx.append(part.copy())
                ties.append(lo + tie_rows)
                weights.append(tie_weights)
        idx = np.concatenate(idx)
        assert idx.max() < n
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(np.concatenate(ties), want_ties)
        np.testing.assert_array_equal(np.vstack(weights), want_weights)
        assert len(want_ties) >= 30

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from sdfm import semidual
from sdfm.costs import NEG_DOT, SQ_EUCLIDEAN, CostConfig, cost_matrix
from sdfm.coupling import assign_batch, oracle_discrete_ot
from sdfm.numerics import Rng
from sdfm.semidual import (
    DiscreteNoise,
    GaussianNoise,
    Potential,
    TargetMeasure,
    chi2_estimator,
    chi2_exact,
    gauge_fix,
    marginal_exact,
    responsibilities_rows,
    semidual_value,
    stochastic_gradient,
    transport_cost,
)

from conftest import make_enumerated_instance


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
        # 6-row tiles with a ragged last one: f is written tile by tile.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_ENTRIES", 6 * 30)
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
        atoms, w = noise.enumerate()
        gen = Rng(4).generator()
        g = gen.standard_normal(target.n)
        base = semidual_value(Potential(g=g, target=target, cost=cost), atoms, w)
        shifted = semidual_value(
            Potential(g=g + 3.21, target=target, cost=cost), atoms, w
        )
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_matches_bruteforce_enumeration(self):
        target, cost, noise = make_enumerated_instance(12, n_target=2, n_atoms=6)
        atoms, w = noise.enumerate()
        g = Rng(5).generator().standard_normal(2)
        pot = Potential(g=g, target=target, cost=cost)
        # Brute force: sum the soft-min over atoms directly.
        acc = 0.0
        for x, wi in zip(atoms, w):
            scores = g - cost_matrix(cost, x[None, :], target.points)[0]
            t = scores / cost.eps + np.log(target.weights)
            m = t.max()
            f = -cost.eps * (m + np.log(np.exp(t - m).sum()))
            acc += wi * f
        acc += float(target.weights @ g)
        assert semidual_value(pot, atoms, w) == pytest.approx(acc, abs=1e-12)


class TestStochasticGradient:
    def test_large_eps_vanishes(self):
        target, cost, noise = make_enumerated_instance(13, eps=1e6)
        atoms, w = noise.enumerate()
        pot = Potential(g=np.zeros(target.n), target=target, cost=cost)
        grad = stochastic_gradient(pot, atoms, w)
        assert np.max(np.abs(grad)) < 1e-4

    def test_sums_to_zero(self):
        target, cost, noise = make_enumerated_instance(14)
        atoms, w = noise.enumerate()
        g = Rng(6).generator().standard_normal(target.n)
        grad = stochastic_gradient(Potential(g=g, target=target, cost=cost), atoms, w)
        assert abs(grad.sum()) < 1e-10

    def test_finite_difference_oracle(self):
        target, cost, noise = make_enumerated_instance(
            15, n_target=2, n_atoms=2, d=2, eps=0.5
        )
        atoms, w = noise.enumerate()
        g0 = Rng(7).generator().standard_normal(2) * 0.5
        grad = stochastic_gradient(Potential(g=g0, target=target, cost=cost), atoms, w)
        h = 1e-5
        for j in range(2):
            gp, gm = g0.copy(), g0.copy()
            gp[j] += h
            gm[j] -= h
            fd = (
                semidual_value(Potential(g=gp, target=target, cost=cost), atoms, w)
                - semidual_value(Potential(g=gm, target=target, cost=cost), atoms, w)
            ) / (2 * h)
            assert abs(fd - grad[j]) <= 1e-5 * max(abs(grad[j]), 1e-3)

    def test_oracle_stationarity(self):
        target, cost, noise = make_enumerated_instance(16, eps=0.5)
        atoms, w = noise.enumerate()
        costs = cost_matrix(cost, atoms, target.points)
        _, _, g_star, _ = oracle_discrete_ot(costs, w, target.weights, cost.eps)
        grad = stochastic_gradient(
            Potential(g=g_star, target=target, cost=cost), atoms, w
        )
        assert np.max(np.abs(grad)) <= 1e-8

    def test_gradient_identity_with_marginal(self):
        target, cost, noise = make_enumerated_instance(17)
        g = Rng(8).generator().standard_normal(target.n)
        pot = Potential(g=g, target=target, cost=cost)
        atoms, w = noise.enumerate()
        grad = stochastic_gradient(pot, atoms, w)
        m = marginal_exact(pot, noise)
        np.testing.assert_allclose(grad, target.weights - m, atol=1e-14)

    def test_eps_zero_tie_atom_weighted_split(self):
        # The first atom is orthogonal to y_0 - y_1: an exact tie, whose
        # mass splits in proportion to b, not uniformly.
        b = np.array([0.25, 0.75])
        pot = _simple_potential([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]], b)
        noise = DiscreteNoise([[0.0, 1.0], [2.0, 0.0], [-1.0, 3.0]],
                              [0.5, 0.3, 0.2], exact=True)
        atoms, w = noise.enumerate()
        grad = stochastic_gradient(pot, atoms, w)
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
        target, cost, noise = make_enumerated_instance(18)
        g = Rng(12).generator().standard_normal(target.n)
        pot = Potential(g=g, target=target, cost=cost)
        atoms, w = noise.enumerate()
        direct = w @ responsibilities_rows(pot, atoms)
        np.testing.assert_allclose(marginal_exact(pot, noise), direct, atol=1e-12)


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
        # 7-row tiles: the outputs are filled tile by tile.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_ENTRIES", 7 * 40)
        x = gen.standard_normal((50, 3))
        f, mass = np.empty(50), np.ones(40)
        assert chi2_estimator(pot, x, soft_c=f, mass=mass) == \
            chi2_estimator(pot, x)
        np.testing.assert_array_equal(f, soft_c_transform_rows(pot, x))
        np.testing.assert_array_equal(mass,
                                      1.0 + semidual._column_sums(pot, x)[0])
        # The weighted rows of exact noise give the same transform.
        noise = DiscreteNoise(x, gen.random(50) + 0.1)
        f_w = np.empty(50)
        np.testing.assert_array_equal(
            semidual._column_sums(pot, x, noise.weights, soft_c=f_w)[0],
            marginal_exact(pot, noise))
        np.testing.assert_array_equal(f_w, f)
        # A streamed scan: four batches of 25, the 1-row tail dropped.
        scan = semidual.chi2_batches(pot, Rng(34), 101, 25)
        assert scan.samples == 100 and len(scan.values) == 4
        xs = np.vstack([GaussianNoise(pot.target)
                        .sample(Rng(34).child(i), 25) for i in range(4)])
        assert scan.soft_c_mean == pytest.approx(
            np.mean(soft_c_transform_rows(pot, xs)), abs=1e-12)
        np.testing.assert_allclose(scan.marginal,
                                   semidual._column_sums(pot, xs)[0] / 100,
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
        atoms, w = noise.enumerate()
        gen = Rng(16).generator()
        for _ in range(20):
            g1 = gen.standard_normal(target.n)
            g2 = gen.standard_normal(target.n)
            lam = gen.random()
            mix = semidual_value(
                Potential(g=lam * g1 + (1 - lam) * g2, target=target, cost=cost),
                atoms, w,
            )
            v1 = semidual_value(Potential(g=g1, target=target, cost=cost), atoms, w)
            v2 = semidual_value(Potential(g=g2, target=target, cost=cost), atoms, w)
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
        atoms, w = noise.enumerate()
        costs = cost_matrix(cost, atoms, target.points)
        _, _, g_star, value = oracle_discrete_ot(costs, w, target.weights, cost.eps)
        pot = Potential(g=g_star, target=target, cost=cost)
        assert transport_cost(pot, atoms, w) == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_matches_dense_primal(self, eps, monkeypatch):
        # sum_ij w_i s_ij c_ij + eps sum_i w_i KL(s_i || b), from the
        # dense responsibilities, against the one-scan readout.
        gen = Rng(18).generator()
        ys = gen.standard_normal((25, 2))
        pot = _simple_potential(gen.standard_normal(25), ys,
                                gen.random(25) + 0.1, eps=eps)
        x = gen.standard_normal((37, 2))
        w = gen.random(37) + 0.1
        w /= w.sum()
        monkeypatch.setattr(semidual, "SCORE_CHUNK_ENTRIES", 5 * 25)
        s = responsibilities_rows(pot, x)
        per_row = np.sum(s * cost_matrix(pot.cost, x, ys), axis=1)
        if eps > 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = np.where(s > 0, s * np.log(s / pot.target.weights), 0.0)
            per_row += eps * kl.sum(axis=1)
        assert transport_cost(pot, x) == pytest.approx(
            float(np.mean(per_row)), rel=1e-10, abs=1e-12)
        assert transport_cost(pot, x, w) == pytest.approx(
            float(w @ per_row), rel=1e-10, abs=1e-12)

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
        tile_bytes = semidual.SCORE_CHUNK_ENTRIES * 8
        rows = semidual.SCORE_CHUNK_ENTRIES // n

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
        # into 32-row slabs. A scan makes one coupling_scores call per
        # block, and its peak is about one block plus O(N + B) vectors.
        gen = Rng(34).generator()
        n, d = 4096, 32
        block, slab = semidual._tile_rows(n, d)
        assert (block, slab) == (128, 32)
        block_bytes = block * n * 8
        calls = []
        scores = semidual.coupling_scores

        def counted(pot, x, *args, **kwargs):
            calls.append(len(x))
            return scores(pot, x, *args, **kwargs)

        monkeypatch.setattr(semidual, "coupling_scores", counted)
        for kind, eps in itertools.product((NEG_DOT, SQ_EUCLIDEAN), (0.0, 0.5)):
            pot = _simple_potential(gen.standard_normal(n) * 0.1,
                                    gen.standard_normal((n, d)), eps=eps,
                                    kind=kind)
            for fn in (semidual_value, chi2_estimator):
                for b_rows in (block, 16 * block + 3):
                    x = gen.standard_normal((b_rows, d))
                    calls.clear()
                    bound = 1.5 * block_bytes + 16 * 8 * (n + b_rows)
                    got = _traced_peak(fn, pot, x)
                    assert got < bound, (kind, fn.__name__, eps, b_rows, got,
                                         bound)
                    assert len(calls) == -(-b_rows // block), (fn.__name__, calls)
                    assert sum(calls) == b_rows


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
        # Slab heights, with the block rule left as it is.
        if request.param != "default":
            rows = self.B if request.param == "batch" else request.param
            monkeypatch.setattr(semidual, "SCORE_CHUNK_ENTRIES", rows * self.N)
        return request.param

    @pytest.fixture(params=["1", "ragged", "batch"])
    def block_rows(self, request, monkeypatch):
        # Block heights set apart from the slab: 1-row blocks; four
        # 70-row blocks and a ragged 20-row one, in 16-row slabs with a
        # ragged last slab each; one whole-batch block in 8-row slabs.
        shape = {"1": (1, 1), "ragged": (70, 16), "batch": (self.B, 8)}
        block, slab = shape[request.param]
        monkeypatch.setattr(semidual, "_tile_rows", lambda n, d: (block, slab))
        return request.param

    @staticmethod
    def _results(eps):
        gen = Rng(31).generator()
        pot = _simple_potential(gen.standard_normal(TestScoreTiles.N) * 0.3,
                                gen.standard_normal((TestScoreTiles.N, 3)),
                                gen.random(TestScoreTiles.N) + 0.1, eps=eps)
        x = gen.standard_normal((TestScoreTiles.B, 3))
        w = gen.random(TestScoreTiles.B)
        col_sum, col_sq = semidual._column_sums(pot, x, squares=True)
        return {
            "col_sum": col_sum,
            "col_sq": col_sq,
            "weighted": semidual._column_sums(pot, x, w / w.sum())[0],
            "grad": stochastic_gradient(pot, x),
            "chi2": chi2_estimator(pot, x),
            "soft_c": soft_c_transform_rows(pot, x),
            "cost": transport_cost(pot, x),
            "assign": assign_batch(pot, x, Rng(32)).indices,
        }

    def _check_against_one_tile(self, eps, monkeypatch):
        got = self._results(eps)
        monkeypatch.setattr(semidual, "_tile_rows",
                            lambda n, d: (self.B, self.B))
        ref = self._results(eps)
        np.testing.assert_array_equal(got["assign"], ref["assign"])
        if eps == 0.0:
            np.testing.assert_array_equal(got["col_sum"], ref["col_sum"])
            np.testing.assert_array_equal(got["grad"], ref["grad"])
            assert got["col_sum"].sum() == self.B
        for key in ("col_sum", "col_sq", "weighted", "soft_c"):
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

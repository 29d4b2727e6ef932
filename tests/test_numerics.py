import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfm.costs import NEG_DOT, CostConfig
from sdfm.numerics import (
    Rng,
    argmax_with_ties,
    eps0_column_stats,
    inverse_cdf,
    rng_batches,
    softmax_b_eps_rows,
    top_two,
)
from sdfm import semidual
from sdfm.semidual import GaussianNoise, Potential, TargetMeasure

from oracles import softmax_rows


def _lse(z, logw, eps=1.0):
    """Weighted log-sum-exp ``log sum_j exp(z_j + logw_j)`` through the soft-c
    transform: at a zero noise row the neg-dot cost vanishes, so the
    transform is ``-eps * LSE(g / eps + log b)``."""
    b = np.exp(np.asarray(logw, dtype=np.float64))
    target = TargetMeasure.from_points(np.eye(len(z)), b)
    pot = Potential(g=eps * np.asarray(z, dtype=np.float64), target=target,
                    cost=CostConfig(kind=NEG_DOT, eps_raw=eps))
    f = np.empty(1)
    semidual._column_sums(pot, np.zeros((1, len(z))), soft_c=f)
    return -f[0] / eps


def _softmax(z, b, eps):
    return softmax_rows(np.array([z], dtype=np.float64), b, eps)[0]


class TestRng:
    def test_determinism(self):
        a = Rng(1).generator().standard_normal((2, 2))
        b = Rng(1).generator().standard_normal((2, 2))
        np.testing.assert_array_equal(a, b)

    def test_stream_separation(self):
        a = Rng(1, 0).generator().standard_normal((4, 4))
        b = Rng(1, 1).generator().standard_normal((4, 4))
        assert not np.array_equal(a, b)

    def test_children_distinct(self):
        streams = {Rng(7).child(i).stream for i in range(1000)}
        assert len(streams) == 1000

    def test_child_deterministic(self):
        assert Rng(3, 5).child(2) == Rng(3, 5).child(2)


class TestSampleGaussian:
    def test_law_of_large_numbers(self):
        target = TargetMeasure.from_points(np.zeros((1, 1)))
        x = GaussianNoise(target).sample(Rng(1), 10**6)
        assert abs(x.mean()) < 4.0 / np.sqrt(10**6)
        assert abs(x.var() - 1.0) < 0.01

    def test_shape_and_dtype(self):
        target = TargetMeasure.from_points(np.zeros((2, 5)))
        x = GaussianNoise(target).sample(Rng(0), 3)
        assert x.shape == (3, 5) and x.dtype == np.float64


class TestLogsumexpWeighted:
    def test_normalized_equal_scores(self):
        out = _lse(np.zeros(2), np.log([0.5, 0.5]))
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_no_overflow(self):
        out = _lse(np.array([1000.0, 0.0]), np.log([0.5, 0.5]))
        assert out == pytest.approx(1000.0 + np.log(0.5), abs=1e-9)
        # Every exp term underflows without the max shift.
        out = _lse(np.full(2, -1000.0), np.log([0.5, 0.5]))
        assert out == pytest.approx(-1000.0, abs=1e-9)

    def test_high_precision_value(self):
        # Oracle: 50-digit evaluation of log((e + e^2 + e^3) / 3).
        mpmath.mp.dps = 50
        expected = float(mpmath.log((mpmath.e + mpmath.e**2 + mpmath.e**3) / 3))
        out = _lse(np.array([1.0, 2.0, 3.0]), np.log(np.full(3, 1 / 3)))
        assert out == pytest.approx(expected, abs=1e-12)
        assert out == pytest.approx(3.40760596 - np.log(3.0), abs=1e-8)

    @given(
        z=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        c=st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_equivariance(self, z, c):
        z = np.array(z)
        logw = np.log(np.full(len(z), 1.0 / len(z)))
        base = _lse(z, logw)
        shifted = _lse(z + c, logw)
        assert shifted == pytest.approx(base + c, abs=1e-12 * max(1, abs(c)))


class TestSoftmaxBEps:
    def test_symmetric(self):
        out = _softmax(np.zeros(2), np.array([0.5, 0.5]), 1.0)
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_unique_argmax_one_hot(self):
        out = _softmax(np.array([1.0, 3.0, 2.0]), np.full(3, 1 / 3), 0.0)
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    def test_tie_split(self):
        out = _softmax(np.array([2.0, 2.0, 0.0]), np.full(3, 1 / 3), 0.0)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0])

    def test_weighted_tie_split(self):
        out = _softmax(np.array([1.0, 1.0]), np.array([0.25, 0.75]), 0.0)
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_large_eps_recovers_weights(self):
        gen = Rng(5).generator()
        z = gen.standard_normal(6)
        b = gen.random(6) + 0.1
        b /= b.sum()
        out = _softmax(z, b, 1e6)
        assert np.max(np.abs(out - b)) < 1e-4

    @given(
        z=st.lists(st.floats(-100, 100), min_size=1, max_size=8),
        eps=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 1e4]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_simplex_output(self, z, eps, seed):
        z = np.array(z)
        b = Rng(seed).generator().random(len(z)) + 0.05
        b /= b.sum()
        out = _softmax(z, b, eps)
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_rows_matches_single(self):
        # Each row is reduced on its own: a one-row input gives the same row.
        gen = Rng(9).generator()
        scores = gen.standard_normal((5, 4))
        scores[2, 1] = scores[2, 3] = scores[2].max() + 1.0  # an exact tie
        b = gen.random(4) + 0.1
        b /= b.sum()
        for eps in (0.0, 0.3, 10.0):
            rows = softmax_rows(scores, b, eps)
            for i in range(5):
                np.testing.assert_allclose(rows[i], _softmax(scores[i], b, eps),
                                           atol=1e-14)


    def test_smooth_max_is_the_log_normaliser(self):
        from scipy.special import logsumexp

        gen = Rng(10).generator()
        scores = gen.standard_normal((6, 5))
        scores[3, 0] = scores[3, 4] = scores[3].max() + 1.0  # an exact tie
        b = gen.random(5) + 0.1
        b /= b.sum()
        odd = np.arange(6) % 2 == 1
        for eps in (0.3, 10.0):
            e = scores / eps + np.log(b)
            top = e.max(axis=1)
            # Even rows come less a bound 2 above their maximum; odd rows
            # come whole, with a NaN shift, and take their own maximum.
            shift = np.where(odd, np.nan, top + 2.0)
            slab = e - np.where(odd, 0.0, shift)[:, None]
            softmax_b_eps_rows(slab, shift)
            np.testing.assert_array_equal(shift[odd], top[odd])
            np.testing.assert_array_equal(shift[~odd], top[~odd] + 2.0)
            np.testing.assert_array_equal(slab[odd].max(axis=1), 1.0)  # exp(0)
            np.testing.assert_allclose(slab[~odd].max(axis=1), np.exp(-2.0),
                                       rtol=1e-15)
            total = slab.sum(axis=1)
            dense = softmax_rows(scores, b, eps)
            np.testing.assert_array_equal((slab / total[:, None])[odd],
                                          dense[odd])
            np.testing.assert_allclose(slab / total[:, None], dense,
                                       rtol=1e-14)
            np.testing.assert_allclose(
                eps * (shift + np.log(total)),
                eps * logsumexp(scores / eps, b=b, axis=1), rtol=1e-12)


class TestArgmaxWithTies:
    def test_second_max_pass_matches_mask(self):
        gen = Rng(40).generator()
        scores = np.round(gen.standard_normal((200, 7)), 1)  # frequent ties
        b = gen.random(7) + 0.1
        b /= b.sum()
        before = scores.copy()
        first, second = top_two(scores)[1:]
        np.testing.assert_array_equal(scores, before)  # restored in place
        np.testing.assert_array_equal(first, before.max(axis=1))
        np.testing.assert_array_equal(second, np.sort(before, axis=1)[:, -2])
        idx, tie_rows, tie_weights = argmax_with_ties(scores, b)
        np.testing.assert_array_equal(scores, before)
        np.testing.assert_array_equal(idx, before.argmax(axis=1))
        close = before >= before.max(axis=1, keepdims=True) - 1e-12
        np.testing.assert_array_equal(tie_rows,
                                      np.flatnonzero(close.sum(axis=1) > 1))
        assert tie_rows.size > 0
        expect = b * close[tie_rows]
        np.testing.assert_allclose(tie_weights,
                                   expect / expect.sum(axis=1, keepdims=True))

    def test_column_stats_match_dense_rows(self):
        gen = Rng(41).generator()
        scores = np.round(gen.standard_normal((64, 5)), 1)
        b = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        dense = softmax_rows(scores, b, 0.0)
        col_sum, col_sq = np.zeros(5), np.zeros(5)
        eps0_column_stats(argmax_with_ties(scores, b), col_sum, col_sq)
        np.testing.assert_allclose(col_sum, dense.sum(axis=0), atol=1e-14)
        np.testing.assert_allclose(col_sq, (dense * dense).sum(axis=0), atol=1e-14)
        sums_only = np.zeros(5)
        eps0_column_stats(argmax_with_ties(scores, b), sums_only)  # no squares
        np.testing.assert_array_equal(sums_only, col_sum)

    def test_tie_free_slab_skips_the_tie_work(self):
        gen = Rng(46).generator()
        scores = gen.standard_normal((32, 300))
        b = gen.random(300) + 0.1
        b /= b.sum()
        idx, tie_rows, tie_weights = argmax_with_ties(scores, b)
        np.testing.assert_array_equal(idx, scores.argmax(axis=1))
        assert tie_rows.size == 0
        assert tie_weights.shape == (0, 300)
        ws = np.zeros((32, 300))
        ws[np.arange(32), idx] = 1.0
        col_sum, col_sq = np.zeros(300), np.zeros(300)
        eps0_column_stats(argmax_with_ties(scores, b), col_sum, col_sq)
        np.testing.assert_array_equal(col_sum, ws.sum(axis=0))
        np.testing.assert_array_equal(col_sq, (ws * ws).sum(axis=0))


class TestInverseCdf:
    def test_matches_per_row_searchsorted(self):
        gen = Rng(42).generator()
        w = gen.random((50, 6))
        w[:, 2] = 0.0  # zero-weight entries are never drawn
        u = gen.random(50)
        got = inverse_cdf(w.copy(), u)
        for i in range(50):
            cdf = np.cumsum(w[i])
            assert got[i] == np.searchsorted(cdf, u[i] * cdf[-1])
        assert not np.any(got == 2)

    @staticmethod
    def _sequential(weights, u):
        """The one-level draw that the two-level one replaced: the first
        index whose cumulative weight reaches ``u`` times the row total,
        from a running sum over the whole row (overwrites ``weights``)."""
        cdf = np.cumsum(weights, axis=1, out=weights)
        target = u * cdf[:, -1]
        return (cdf < target[:, None]).sum(axis=1, dtype=np.int64)

    def test_matches_sequential_draw(self):
        # Block widths ceil(sqrt(N)): N = 11..13 and 127..129 end in a
        # ragged block, 144 in a full one, 145 in a 1-column one. Half the
        # rows have exponents spread so wide that most weights underflow
        # to exact zeros, as eps>0 rows of a far-off noise point do.
        gen = Rng(43).generator()
        drawn = 0
        for n, count in [(1, 9000), (2, 9000), (11, 9000), (12, 9000),
                         (13, 9000), (127, 9000), (128, 9000), (129, 9000),
                         (144, 9000), (145, 9000), (700, 9000),
                         (16384, 2000)]:
            for lo in range(0, count, 500):
                z = gen.standard_normal((500, n))
                z[::2] *= 1000.0
                w = np.exp(z - z.max(axis=1, keepdims=True))
                u = gen.random(500)
                before = w.copy()
                got = inverse_cdf(w, u)
                np.testing.assert_array_equal(w, before)  # read, not written
                np.testing.assert_array_equal(got, self._sequential(w, u))
                drawn += 500
        assert drawn >= 10**5

    @pytest.mark.parametrize("n", [5, 12, 13, 50, 700])
    def test_never_draws_a_zero_weight(self, n):
        # Planted zeros at both ends of every row, and rows whose only
        # positive weights sit in the ragged last block.
        gen = Rng(44).generator()
        w = gen.random((400, n)) + 0.1
        lead = gen.integers(0, n, size=400)
        trail = gen.integers(lead, n) + 1  # at least one positive weight
        cols = np.arange(n)
        w[(cols < lead[:, None]) | (cols >= trail[:, None])] = 0.0
        rows = np.arange(400)
        for u, expect in [(0.0, lead), (1.0 - 2.0**-53, trail - 1)]:
            got = inverse_cdf(w, np.full(400, u))
            assert np.all(w[rows, got] > 0.0)
            np.testing.assert_array_equal(got, expect)

    def test_tie_split_stays_in_the_tie_set(self):
        # Tied maxima at the last two columns: the b-weighted split of a
        # tie row draws only from its tie set, even at u = 0.
        gen = Rng(45).generator()
        scores = gen.standard_normal((64, 9))
        scores[:, 7:] = scores.max(axis=1, keepdims=True) + 1.0
        b = np.full(9, 1 / 9)
        _, tie_rows, tie_weights = argmax_with_ties(scores, b)
        assert tie_rows.size == 64
        for u in (0.0, 1.0 - 2.0**-53):
            got = inverse_cdf(tie_weights, np.full(64, u))
            assert np.all((got == 7) | (got == 8))


def test_rng_batches_refuses_uneven_rows():
    with pytest.raises(ValueError, match="7 rows do not split into 2 batches"):
        rng_batches([Rng(0), Rng(1)], 7)

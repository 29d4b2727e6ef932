import tracemalloc

import numpy as np
import pytest

from sdfm.costs import (
    NEG_DOT,
    SQ_EUCLIDEAN,
    ConfigurationError,
    CostConfig,
    ProjectionMatrix,
    cost_matrix,
    estimate_cost_std,
    fit_pca,
)
from sdfm.numerics import Rng


def _cost(cfg, x, y):
    """One-row form: the single entry of a 1 x 1 cost matrix."""
    return float(cost_matrix(cfg, [x], [y])[0, 0])


class TestCost:
    def test_negdot_orthogonal(self):
        cfg = CostConfig(kind=NEG_DOT)
        assert _cost(cfg, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_negdot_value(self):
        cfg = CostConfig(kind=NEG_DOT)
        assert _cost(cfg, [1.0, 2.0], [3.0, 4.0]) == -11.0

    def test_sq_euclidean_symmetry(self):
        cfg = CostConfig(kind=SQ_EUCLIDEAN)
        gen = Rng(0).generator()
        a = gen.standard_normal(4)
        b = gen.standard_normal(4)
        assert _cost(cfg, a, b) == pytest.approx(_cost(cfg, b, a), abs=1e-12)

    def test_dimension_mismatch(self):
        cfg = CostConfig(kind=NEG_DOT)
        with pytest.raises(ConfigurationError):
            _cost(cfg, [1.0], [1.0, 2.0])

    def test_sq_euclidean_fills_buffer_bit_for_bit(self):
        # Adding the squared norms to -2 x.y gives exactly the bits of
        # max(|x|^2 + |y|^2 - 2 x.y, 0), so stored artifacts do not move;
        # 1500 x 400 entries span several 2^15-entry row groups.
        cfg = CostConfig(kind=SQ_EUCLIDEAN)
        gen = Rng(8).generator()
        for n, m in ((37, 300), (1500, 400)):
            x = gen.standard_normal((n, 5))
            y = gen.standard_normal((m, 5))
            out = cost_matrix(cfg, x, y)
            ref = (np.sum(x * x, axis=1)[:, None]
                   + np.sum(y * y, axis=1)[None, :] - 2.0 * (x @ y.T))
            np.testing.assert_array_equal(out, np.maximum(ref, 0.0))


class TestEstimateCostStd:
    def test_constant_matrix(self):
        cfg = CostConfig(kind=NEG_DOT)
        pts = np.ones((4, 2))
        assert estimate_cost_std(cfg, pts, pts) == 0.0

    def test_two_point_value(self):
        # Costs {-1, 1, 1, -1}: population std 1, sample (ddof=1) 2/sqrt(3).
        cfg = CostConfig(kind=NEG_DOT)
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out = estimate_cost_std(cfg, pts, pts)
        assert out == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-12)
        assert out == pytest.approx(1.1547, abs=1e-4)

    def test_homogeneity(self):
        cfg = CostConfig(kind=NEG_DOT)
        gen = Rng(1).generator()
        noise = gen.standard_normal((16, 3))
        data = gen.standard_normal((16, 3))
        base = estimate_cost_std(cfg, noise, data)
        scaled = estimate_cost_std(cfg, noise, 3.0 * data)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_order_invariance(self):
        cfg = CostConfig(kind=NEG_DOT)
        gen = Rng(2).generator()
        noise = gen.standard_normal((12, 3))
        data = gen.standard_normal((10, 3))
        base = estimate_cost_std(cfg, noise, data)
        perm = gen.permutation(12)
        assert estimate_cost_std(cfg, noise[perm], data) == pytest.approx(
            base, rel=1e-12
        )

    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    def test_in_place_std_is_np_std_in_one_matrix(self, kind):
        # At these batches the streamed std has the bits of np.std(ddof=1)
        # over the cost matrix (it need not in general: see the next test),
        # and the 1024 x 1024 reference batch stays under the 9 MiB that
        # the one-matrix form took.
        cfg = CostConfig(kind=kind)
        gen = Rng(3).generator()
        for n, m, d in ((2, 1, 1), (37, 300, 5), (700, 400, 3), (1024, 1024, 2)):
            noise = gen.standard_normal((n, d))
            data = gen.standard_normal((m, d)) + 1.5
            want = float(np.std(cost_matrix(cfg, noise, data), ddof=1))
            tracemalloc.start()
            try:
                got = estimate_cost_std(cfg, noise, data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == want
        assert peak <= 9 * 2**20

    @pytest.mark.parametrize("d", [2, 32])
    @pytest.mark.parametrize("kind", [NEG_DOT, SQ_EUCLIDEAN])
    def test_streamed_std_is_np_std_within_1e12_in_2_5_mib(self, kind, d):
        # The 1024 x 1024 reference batch, scored in blocks of 128 rows and
        # reduced in one pass around the first block's mean, never holds
        # the 8 MiB matrix.
        cfg = CostConfig(kind=kind)
        gen = Rng(4).generator()
        noise = gen.standard_normal((1024, d))
        data = 0.7 * gen.standard_normal((1024, d)) + 2.0
        want = float(np.std(cost_matrix(cfg, noise, data), ddof=1))
        tracemalloc.start()
        try:
            got = estimate_cost_std(cfg, noise, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(got - want) <= 1e-12 * want
        assert peak <= 2.5 * 2**20

    def test_eps_rescaling_binds(self):
        cfg = CostConfig(kind=NEG_DOT, eps_raw=0.1)
        assert cfg.eps == 0.1
        rescaled = cfg.with_rescaled_eps(2.5)
        assert rescaled.eps == pytest.approx(0.25)
        disabled = cfg.with_rescaled_eps(0.0)
        assert disabled.eps == 0.1


class TestFitPca:
    def test_rank_one_line(self):
        gen = Rng(3).generator()
        direction = np.array([3.0, 4.0]) / 5.0
        data = np.outer(gen.standard_normal(200), direction) + np.array([1.0, -2.0])
        proj = fit_pca(data, 1)
        cosine = abs(float(proj.basis[0] @ direction))
        assert cosine >= 0.999

    def test_full_basis_preserves_negdot(self):
        gen = Rng(4).generator()
        data = gen.standard_normal((50, 6))
        proj = fit_pca(data, 6)
        centered = data - data.mean(axis=0)
        raw = -(centered @ centered.T)
        projected = proj.apply(data)
        mapped = -(projected @ projected.T)
        assert np.max(np.abs(raw - mapped)) < 1e-6

    def test_top1_matches_dense_eig(self):
        gen = Rng(5).generator()
        data = gen.standard_normal((100, 10)) * np.linspace(3.0, 0.5, 10)
        proj = fit_pca(data, 1)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        eigvals = np.linalg.eigvalsh(cov)
        assert proj.explained_variance[0] == pytest.approx(
            eigvals[-1], abs=1e-6
        )

    def test_explained_variance_monotone(self):
        gen = Rng(6).generator()
        data = gen.standard_normal((80, 8)) * np.linspace(2.5, 0.3, 8)
        proj = fit_pca(data, 5)
        assert np.all(np.diff(proj.explained_variance) <= 1e-9)

    def test_rank_deficient_padding(self):
        gen = Rng(7).generator()
        thin = np.outer(gen.standard_normal(40), np.array([1.0, 0.0, 0.0]))
        proj = fit_pca(thin, 3)
        assert proj.padded
        gram = proj.basis @ proj.basis.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_orthonormality_enforced(self):
        with pytest.raises(ConfigurationError):
            ProjectionMatrix(basis=np.array([[1.0, 1.0]]), mean=np.zeros(2))

    def test_projection_applies_mean(self):
        proj = ProjectionMatrix(basis=np.eye(2), mean=np.array([1.0, 2.0]))
        np.testing.assert_allclose(proj.apply(np.array([1.0, 2.0])), [0.0, 0.0])


class TestCostMatrixProjection:
    def test_projection_applied_to_x_parts_only(self):
        proj = ProjectionMatrix(basis=np.array([[1.0, 0.0]]), mean=np.zeros(2))
        cfg = CostConfig(kind=NEG_DOT, projection=proj)
        x = np.array([[2.0, 5.0]])
        y = np.array([[3.0, -7.0]])
        # Projected rows are (2) and (3): neg-dot -6.
        out = cost_matrix(cfg, cfg.embed(x), cfg.embed(y))
        assert out[0, 0] == pytest.approx(-6.0)


_BASIS = np.eye(2)[:1]  # one orthonormal row in d=2


@pytest.mark.parametrize("build, match", [
    (lambda: ProjectionMatrix(basis=_BASIS, mean=np.zeros(3)), "matching mean"),
    (lambda: ProjectionMatrix(basis=_BASIS, mean=np.zeros(2)).apply(np.ones((4, 3))),
     "expects dimension 2, got 3"),
    (lambda: fit_pca(np.zeros(5), 1), r"data must be \(N, d\)"),
    (lambda: CostConfig(kind="cosine"), "unknown cost kind 'cosine'"),
], ids=["projection-mean-mismatch", "projection-apply-dimension",
        "fit-pca-1-d", "cost-kind-unknown"])
def test_refusals(build, match):
    with pytest.raises(ConfigurationError, match=match):
        build()

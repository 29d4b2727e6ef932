import tracemalloc
from functools import partial

import numpy as np
import pytest

from sdfm import artifacts, flow, semidual
from sdfm.cli import main
from sdfm.container import read_container, write_container
from sdfm.costs import NEG_DOT, ConfigurationError, CostConfig
from sdfm.coupling import assign_batch, couple_independent, couple_minibatch_ot
from sdfm.flow import (
    T_MAX_TRAIN,
    FlowModel,
    GuidanceConfig,
    TrainConfig,
    curvature,
    fm_loss_and_grad,
    gaussian_starts,
    guided_sample,
    integrate,
    run_flow,
    score_from_velocity,
    train_flow,
)
from sdfm.numerics import Rng
from sdfm.semidual import Potential, TargetMeasure

from conftest import GaussianFlow1D, Mixture1D
from oracles import (
    delta_eps_toy,
    fm_loss_and_grad_float64,
    score_eps_positive,
    train_flow_per_step,
    velocity_float32,
    velocity_float64,
)


def _make_batch(gen, b=6, d=2):
    x0 = gen.standard_normal((b, d))
    x1 = gen.standard_normal((b, d))
    return x0, x1


class TestFmLoss:
    def test_perfect_regression_zero_loss(self):
        # Zero weights and the displacement in the output bias: v == x1 - x0.
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(0))
        model.set_theta(np.zeros(model.theta.size))
        x0 = np.array([[1.0, 1.0]])
        x1 = np.array([[2.0, -1.0]])
        model.biases[-1][:] = (x1 - x0)[0]  # through the view, into theta
        loss, _ = fm_loss_and_grad(model, x0, x1, t=np.array([0.3]))
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        gen = Rng(1).generator()
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(1))
        # The float64 oracle that the library's float32 pass is checked
        # against below.
        x0, x1 = _make_batch(gen)
        t = gen.random(6) * 0.9
        _, grad = fm_loss_and_grad_float64(model, x0, x1, t)
        # The steps go into a float64 copy of theta, which the oracle takes
        # in place of the model's float32 vector: float32 would round them.
        theta = model.theta.astype(np.float64)
        h = 1e-6
        for i in gen.choice(theta.size, size=10, replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, _ = fm_loss_and_grad_float64(model, x0, x1, t, tp)
            lm, _ = fm_loss_and_grad_float64(model, x0, x1, t, tm)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-5 * max(abs(grad[i]), 1e-6)

    @pytest.mark.parametrize("steps", [0, 200])
    @pytest.mark.parametrize("dim, width, batch", [
        (2, 64, 256),  # desk-2d's model size and training batch
        (32, 128, 128),  # highdim-eps's
    ])
    def test_float32_pass_matches_the_float64_oracle(self, dim, width, batch,
                                                     steps):
        # Measured at these sizes over 20 seeds at initialisation and 8
        # after 200 and 1000 training steps: the gradient differs from the
        # oracle's by at most 8.5e-7 of its norm (2.7e-7 at initialisation)
        # and the loss by at most 2.1e-8 of itself (this test's cases:
        # 6.8e-7 and 1.7e-8, also with OpenBLAS's Haswell kernels; 6.6e-7
        # and 1.5e-8 since the models train with the float32 update). The
        # bounds leave a factor 2.3 and 4.7.
        for seed in range(4):
            gen = Rng(80 + seed).generator()
            target = TargetMeasure.from_points(
                3.0 * gen.standard_normal((1024, dim)))
            model = train_flow(
                FlowModel(dim=dim, hidden=(width,) * 3, rng=Rng(seed)), target,
                partial(couple_independent, target),
                TrainConfig(steps=steps, batch=batch), Rng(90 + seed))
            x0 = gen.standard_normal((batch, dim))
            x1 = target.points[gen.integers(0, len(target.points), batch)]
            t = gen.random(batch) * T_MAX_TRAIN
            loss, grad = fm_loss_and_grad(model, x0, x1, t)
            want_loss, want = fm_loss_and_grad_float64(model, x0, x1, t)
            assert grad.dtype == np.float32
            assert abs(loss - want_loss) <= 1e-7 * want_loss
            assert np.linalg.norm(grad - want) <= 2e-6 * np.linalg.norm(want)

    def test_parameters_beyond_float32_raise(self):
        # The range check of TestFloat32Velocity: set_theta, which loading
        # a model file runs, refuses them before a training step sees them.
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(75))
        x0, x1 = np.zeros((3, 2)), np.ones((3, 2))
        t = np.full(3, 0.5)
        model.set_theta(np.r_[np.finfo(np.float32).max, model.theta[1:]])
        loss, grad = fm_loss_and_grad(model, x0, x1, t)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        # Tier-1 turns RuntimeWarnings into errors, so this also checks
        # that the cast overflow does not warn.
        before = model.theta.copy()
        theta = before.astype(np.float64)
        theta[0] = 1e39
        with pytest.raises(FloatingPointError):
            model.set_theta(theta)
        np.testing.assert_array_equal(model.theta, before)

    def test_quadratic_homogeneity(self):
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(2))
        model.set_theta(np.zeros(model.theta.size))  # v == 0, residual = x1 - x0
        x0 = np.zeros((1, 2))
        x1 = np.array([[1.0, 2.0]])
        t = np.array([0.4])
        l1, _ = fm_loss_and_grad(model, x0, x1, t)
        l2, _ = fm_loss_and_grad(model, x0, 2 * x1, t)
        assert l2 == pytest.approx(4.0 * l1)

    def test_rejects_t_at_one(self):
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(3))
        x0, x1 = _make_batch(Rng(3).generator(), b=2)
        with pytest.raises(ValueError):
            fm_loss_and_grad(model, x0, x1, t=np.array([0.5, 1.0]))


def _per_layer(gen, sizes, biases=True):
    """Per-layer ``(weights, biases)`` as separate arrays: the weights drawn
    as the initialisation draws them, the biases random or zero."""
    return [(gen.standard_normal((a, b)) * np.sqrt(2.0 / (a + b)),
             gen.standard_normal(b) if biases else np.zeros(b))
            for a, b in zip(sizes[:-1], sizes[1:])]


def _concatenated(layers):
    """The flat vector that model files store: ``[w.ravel(), b]`` per layer."""
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


def _float32(layers):
    """``layers`` rounded to float32, as ``theta`` holds them."""
    return [(w.astype(np.float32), b.astype(np.float32)) for w, b in layers]


def _assert_views_of_theta(model):
    """``weights`` and ``biases`` are the layer slices of ``theta`` itself."""
    pos = 0
    for w, b in zip(model.weights, model.biases):
        for part in (w, b):
            assert np.shares_memory(part, model.theta)
            np.testing.assert_array_equal(part.ravel(),
                                          model.theta[pos:pos + part.size])
            pos += part.size
    assert pos == model.theta.size
    first = model.theta[0]
    model.theta[0] = first + 1.0
    assert model.weights[0][0, 0] == first + 1.0
    model.theta[0] = first


class TestParameterVector:
    SIZES = [3, 5, 4, 2]

    def test_init_matches_the_per_layer_draws(self):
        model = FlowModel(dim=2, hidden=(5, 4), rng=Rng(50))
        layers = _per_layer(Rng(50).generator(), self.SIZES, biases=False)
        assert model.theta.dtype == np.float32
        np.testing.assert_array_equal(model.theta,
                                      _concatenated(_float32(layers)))
        _assert_views_of_theta(model)

    def test_layout_is_weights_row_major_then_biases(self):
        model = FlowModel(dim=2, hidden=(5, 4), rng=Rng(51))
        layers = _per_layer(Rng(52).generator(), self.SIZES)
        model.set_theta(_concatenated(layers))
        for (w, b), mw, mb in zip(_float32(layers), model.weights,
                                  model.biases):
            np.testing.assert_array_equal(mw, w)
            np.testing.assert_array_equal(mb, b)
        _assert_views_of_theta(model)

    def test_copy_owns_its_vector(self):
        model = FlowModel(dim=2, hidden=(5, 4), rng=Rng(53))
        twin = model.copy()
        _assert_views_of_theta(twin)
        twin.theta[:] = 0.0
        assert not np.shares_memory(twin.theta, model.theta)
        assert np.any(model.theta != 0.0)

    def test_trained_model_keeps_views(self):
        target = TargetMeasure.from_points(Rng(54).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(5, 4), rng=Rng(54))
        out = train_flow(model, target, partial(couple_independent, target),
                         TrainConfig(steps=3, batch=8), Rng(55))
        _assert_views_of_theta(out)
        assert np.any(out.theta != model.theta)

    def test_trained_model_file_keeps_the_theta_bits(self, tmp_path,
                                                       monkeypatch):
        # The file stores float64, as before theta became float32; loading
        # it gives back the trained float32 theta bit for bit, and draws no
        # initial weights for set_theta to overwrite.
        target = TargetMeasure.from_points(
            Rng(58).generator().standard_normal((64, 2)))
        model = train_flow(FlowModel(dim=2, hidden=(16, 8), rng=Rng(58)),
                           target, partial(couple_independent, target),
                           TrainConfig(steps=20, batch=32), Rng(59))
        path = str(tmp_path / "m.sdfm")
        artifacts.save_model(path, model)
        stored = read_container(path)[2]["theta"]
        assert stored.dtype == np.float64
        np.testing.assert_array_equal(stored, model.theta)

        def draw(rng):
            raise AssertionError("loading a model draws no initial weights")

        monkeypatch.setattr(Rng, "generator", draw)
        loaded = artifacts.load_model(path)
        assert loaded.theta.dtype == np.float32
        assert loaded.theta.tobytes() == model.theta.tobytes()

    @pytest.mark.parametrize("bad", ["short", "long", "nan", "inf"])
    def test_set_theta_refuses_a_wrong_length_or_non_finite_vector(self, bad):
        model = FlowModel(dim=2, hidden=(5, 4), rng=Rng(56))
        before = model.theta.copy()
        theta = {"short": before[:-1], "long": np.r_[before, 0.0],
                 "nan": np.r_[before[:-1], np.nan],
                 "inf": np.r_[np.inf, before[1:]]}[bad]
        with pytest.raises(ConfigurationError):
            model.set_theta(theta)
        np.testing.assert_array_equal(model.theta, before)

    def test_model_file_in_the_per_layer_order_samples_as_its_layers(self, tmp_path):
        # A model file as per-layer storage wrote it: the concatenated
        # vector plus dim and sizes. Its sample dump holds exactly the Euler
        # endpoints of the float32 forward pass through those per-layer
        # arrays.
        layers = _per_layer(Rng(57).generator(), self.SIZES)
        path = str(tmp_path / "m.sdfm")
        write_container(path, "model", {"theta": _concatenated(layers)},
                        {"dim": 2, "sizes": self.SIZES})
        loaded = artifacts.load_model(path)
        layers32 = _float32(layers)
        for (w, b), mw, mb in zip(layers32, loaded.weights, loaded.biases):
            np.testing.assert_array_equal(mw, w)
            np.testing.assert_array_equal(mb, b)

        def field(t, x):
            h = np.empty((len(x), 3), dtype=np.float32)
            h[:, :2], h[:, 2] = x, t
            for w, b in layers32[:-1]:
                h = np.tanh(h @ w + b)
            return (h @ layers32[-1][0] + layers32[-1][1]).astype(np.float64)

        assert main(["sample", "--model", path, "--count", "16", "--steps", "4",
                     "--seed", "3", "--out", str(tmp_path / "s")]) == 0
        want, _ = integrate(field, gaussian_starts(Rng(3), 16, 2), steps=4)
        got = artifacts.load_sample_dump(str(tmp_path / "s"))
        assert got.tobytes() == want.tobytes()


def _fixed_stream(indices):
    """A coupling that returns the next row of ``indices`` for each batch,
    that is each step, of every call: one row per step of the chunk."""
    rows = iter(indices)
    return lambda noise, rngs: np.concatenate([next(rows) for _ in rngs])


def _random_biases(model, gen):
    """Standard normal biases in place of the initial zeros, which would
    leave every bias add untested."""
    for b in model.biases:
        b[...] = gen.standard_normal(b.shape)


class TestBlockedVelocity:
    @pytest.mark.parametrize("per_row_t", [False, True])
    @pytest.mark.parametrize("count", [None, 3, 5, 4 * 5 + 1, 23])
    def test_matches_unblocked_reference(self, monkeypatch, count, per_row_t):
        # Widest layer 16: blocks of 5 rows, so 5 rows are one whole
        # block, 21 are four and one row, 23 end in a ragged block of 3,
        # and 3 rows (or one 1-d row) sit below one block.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * 16 * 5)
        model = FlowModel(dim=3, hidden=(16, 12, 7), rng=Rng(40))
        gen = Rng(41).generator()
        rows = 1 if count is None else count
        x = gen.standard_normal((rows, 3))
        t = gen.random(rows) if per_row_t else 0.37
        if count is None:
            x = x[0]
        got = model.velocity(t, x)
        want = velocity_float32(model, t, x)
        assert got.shape == ((3,) if count is None else (rows, 3))
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("tile", [2, 4, 256])
    @pytest.mark.parametrize("per_row_t", [False, True])
    @pytest.mark.parametrize("count", [None, 3, 5, 4 * 5 + 1, 23])
    def test_bits_equal_the_plain_float32_loop(self, monkeypatch, count,
                                               per_row_t, tile):
        # Blocks of 5 rows, as above. Tiles of 2 rows leave one row of a
        # whole block and of the ragged block of 3; tiles of 4 leave one and
        # three; tiles of 256 never fit, so every row is broadcast.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * 16 * 5)
        monkeypatch.setattr(flow, "BIAS_TILE_ROWS", tile)
        model = FlowModel(dim=3, hidden=(16, 12, 7), rng=Rng(40))
        gen = Rng(44).generator()
        _random_biases(model, gen)
        rows = 1 if count is None else count
        x = gen.standard_normal((rows, 3))
        t = gen.random(rows) if per_row_t else 0.37
        if count is None:
            x = x[0]
        np.testing.assert_array_equal(
            model.velocity(t, x), velocity_float32(model, t, x).reshape(x.shape))

    @pytest.mark.parametrize("dim, width", [(2, 64), (32, 128)])
    def test_default_blocks_and_tiles_keep_the_bits(self, dim, width):
        # Two whole blocks (2048 rows at width 64, 1024 at 128) and a ragged
        # block of 300 rows: one 256-row tile and 44 rows left over.
        model = FlowModel(dim=dim, hidden=(width,) * 3, rng=Rng(45))
        gen = Rng(46).generator()
        _random_biases(model, gen)
        rows = 2 * semidual.SCORE_CHUNK_BYTES // (8 * width) + 300
        x = 3.0 * gen.standard_normal((rows, dim))
        t = gen.random(rows)
        np.testing.assert_array_equal(model.velocity(t, x),
                                      velocity_float32(model, t, x))

    def test_snapshot_keeps_the_bits_until_the_next_one(self, monkeypatch):
        # Blocks of 5 rows and tiles of 2, built once by the snapshot: 23
        # rows end in a ragged block of 3, whose last row is not tiled, and
        # 3 rows sit below one block.
        monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * 16 * 5)
        monkeypatch.setattr(flow, "BIAS_TILE_ROWS", 2)
        model = FlowModel(dim=3, hidden=(16, 12, 7), rng=Rng(40))
        gen = Rng(47).generator()
        _random_biases(model, gen)
        x = gen.standard_normal((23, 3))
        t = gen.random(23)
        snap = model.snapshot()
        assert snap.dim == 3
        for rows in (1, 3, 5, 23):
            got = snap(t[:rows], x[:rows])
            np.testing.assert_array_equal(got, model.velocity(t[:rows], x[:rows]))
            np.testing.assert_array_equal(
                got, velocity_float32(model, t[:rows], x[:rows]))
        np.testing.assert_array_equal(snap(0.3, x[0]), model.velocity(0.3, x[0]))
        # A snapshot does not follow a later write to theta; the next one does.
        before = snap(t, x)
        model.theta[0] += 1.0
        np.testing.assert_array_equal(snap(t, x), before)
        fresh = model.snapshot()
        np.testing.assert_array_equal(fresh(t, x), model.velocity(t, x))
        assert not np.array_equal(fresh(t, x), before)

    def test_peak_memory_is_bounded_by_the_block(self):
        # 65536 rows at width 64: each whole-batch activation would be
        # 32 MiB; the blocks reuse two 1 MiB buffers.
        model = FlowModel(dim=2, hidden=(64, 64, 64), rng=Rng(42))
        x = Rng(43).generator().standard_normal((65536, 2))
        tracemalloc.start()
        try:
            model.velocity(0.5, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestFloat32Velocity:
    @pytest.mark.parametrize("dim, width, steps, batch", [
        (2, 64, 200, 256),  # desk-2d's model size and training
        (32, 128, 150, 128),  # highdim-eps's
    ])
    def test_agrees_with_the_float64_forward_pass(self, dim, width, steps,
                                                  batch):
        # The float32 field against the float64 oracle's forward pass, on the
        # states of an Euler-8 run at the nine grid times. Measured at these
        # sizes over four seeds, after 0, 200 and 1000 training steps on
        # eight-gaussians (d=2), N(0, I) and 3 N(0, I) data (d=32): at most
        # 1.8e-6 (1 + |v|), at d=32 on 3 N(0, I) after 1000 steps (this
        # test's models, trained in float32: 4.4e-7 and 1.3e-6; 4.7e-7 and
        # 1.2e-6 with the float32 update). The bound 5e-6 leaves a factor
        # 2.7.
        gen = Rng(70).generator()
        target = TargetMeasure.from_points(3.0 * gen.standard_normal((1024, dim)))
        model = train_flow(FlowModel(dim=dim, hidden=(width,) * 3, rng=Rng(71)),
                           target, partial(couple_independent, target),
                           TrainConfig(steps=steps, batch=batch), Rng(72))
        x0 = gaussian_starts(Rng(73), 4096, dim)
        x1, _ = integrate(model, x0, steps=8)
        for t in np.linspace(0.0, 1.0, 9):
            x = (1.0 - t) * x0 + t * x1
            want = velocity_float64(model, t, x)
            got = model.velocity(t, x)
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 5e-6

    def test_parameters_beyond_float32_raise(self):
        # float32's largest value is a parameter; 1e39 and 1e200 are refused
        # by set_theta, the one cast into theta, and the field keeps its
        # parameters.
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(74))
        x = np.zeros((3, 2))
        model.set_theta(np.r_[np.finfo(np.float32).max, model.theta[1:]])
        assert np.all(np.isfinite(model.velocity(0.5, x)))
        before = model.velocity(0.5, x)
        # Tier-1 turns RuntimeWarnings into errors, so this also checks
        # that the cast overflow does not warn.
        for value in (1e39, 1e200):
            theta = model.theta.astype(np.float64)
            theta[0] = value
            with pytest.raises(FloatingPointError):
                model.set_theta(theta)
            np.testing.assert_array_equal(model.snapshot()(0.5, x), before)


class TestAdam:
    def test_float32_update_tracks_a_float64_one(self):
        # 200 desk-shaped steps (d=2, width 64³, batch 256): a float64 Adam
        # takes the same gradients as the float32 one that trains the model.
        # Measured over 20 seeds: theta differs by at most 6.2e-7 and by
        # 2.1e-6 of the float64 run's distance from the start, in norm; the
        # moments by 2.5e-7 (m) and 2.2e-6 (v) of their norms. The bounds
        # leave a factor 2.4.
        for seed in range(2):
            gen = Rng(500 + seed).generator()
            target = TargetMeasure.from_points(3.0 * gen.standard_normal((1024, 2)))
            model = FlowModel(dim=2, hidden=(64,) * 3, rng=Rng(seed))
            start = model.theta.astype(np.float64)
            theta = start.copy()
            opt32, opt64 = flow._Adam(), flow._Adam()
            for _ in range(200):
                x0 = gen.standard_normal((256, 2))
                x1 = target.points[gen.integers(0, 1024, 256)]
                t = gen.random(256) * T_MAX_TRAIN
                _, grad = fm_loss_and_grad(model, x0, x1, t)
                opt32.step(model.theta, grad)
                opt64.step(theta, grad.astype(np.float64))
            assert model.theta.dtype == opt32.m.dtype == opt32.v.dtype == np.float32
            err = model.theta - theta
            assert np.abs(err).max() <= 1.5e-6
            assert np.linalg.norm(err) <= 5e-6 * np.linalg.norm(theta - start)
            for got, want in ((opt32.m, opt64.m), (opt32.v, opt64.v)):
                assert np.linalg.norm(got - want) <= 5e-6 * np.linalg.norm(want)


class TestTrainFlow:
    def test_zero_steps_identity(self):
        target = TargetMeasure.from_points(Rng(4).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(4))
        pair = partial(couple_independent, target)
        out = train_flow(model, target, pair, TrainConfig(steps=0, batch=4),
                         Rng(5))
        np.testing.assert_array_equal(out.theta, model.theta)

    def test_determinism(self):
        target = TargetMeasure.from_points(Rng(6).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(6))
        cfg = TrainConfig(steps=20, batch=8)
        pair = partial(couple_independent, target)
        a = train_flow(model, target, pair, cfg, Rng(7))
        b = train_flow(model, target, pair, cfg, Rng(7))
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_coupling_interchangeability(self):
        # Identical injected index streams produce identical parameter
        # updates, whichever coupling function delivers them.
        gen = Rng(8).generator()
        target = TargetMeasure.from_points(gen.standard_normal((8, 2)))
        stream = gen.integers(0, 8, size=(5, 8))
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(8))
        cfg = TrainConfig(steps=5, batch=8)
        thetas = []
        for _ in ("independent", "sd", "minibatch-sinkhorn"):
            out = train_flow(model, target, _fixed_stream(stream), cfg, Rng(9))
            thetas.append(out.theta.copy())
        np.testing.assert_array_equal(thetas[0], thetas[1])
        np.testing.assert_array_equal(thetas[0], thetas[2])

    def test_metrics_rows_carry_wall_time(self, tmp_path):
        from sdfm.container import MetricsWriter

        target = TargetMeasure.from_points(Rng(6).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(6))
        path = tmp_path / "m.csv"
        with MetricsWriter(str(path), str(tmp_path / "m.json")) as metrics:
            train_flow(model, target, partial(couple_independent, target),
                       TrainConfig(steps=5, batch=8), Rng(7), metrics)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        # Five fm_loss rows and one chunk's time_per_pair_ms and pair_batch_ms.
        assert len(rows) == 5 + 2
        wall = [float(r[1]) for r in rows]
        assert wall == sorted(wall) and wall[-1] > 0.0

    @pytest.mark.parametrize("chunk_rows, steps", [
        (flow.PAIR_CHUNK_ROWS, 5),  # one chunk
        (3 * 8, 7),  # chunks of 3, 3 and 1 steps
        (5, 3),  # a batch larger than the chunk: one step per call
    ])
    @pytest.mark.parametrize("coupling", ["sd-eps0-ties", "sd-eps2",
                                          "independent", "hungarian",
                                          "sinkhorn"])
    def test_chunked_pairing_keeps_the_per_step_bits(
            self, monkeypatch, coupling, chunk_rows, steps):
        # Every step keeps its own noise, pairing and time streams, so
        # pairing a chunk of steps in one call gives the theta bits of
        # pairing each step alone.
        gen = Rng(40).generator()
        ys = np.vstack([[[1.0, 0.0], [-1.0, 0.0]], gen.standard_normal((6, 2))])
        target = TargetMeasure.from_points(ys)
        g = np.r_[0.0, 0.0, gen.standard_normal(6) - 5.0]

        def sd(eps):
            return partial(assign_batch, Potential(
                g=g, target=target, cost=CostConfig(kind=NEG_DOT, eps_raw=eps)))

        def tied(noise, rngs):
            # Rows 3, 7, ... of every 8-row step tie exactly between the
            # first two points at eps=0, as in test_prefix_stable.
            noise = noise.copy()
            noise[3::4] = [0.0, 1.0]
            return sd(0.0)(noise, rngs)

        pair = {"sd-eps0-ties": tied, "sd-eps2": sd(2.0),
                "independent": partial(couple_independent, target),
                "hungarian": partial(couple_minibatch_ot, target, 0.0),
                "sinkhorn": partial(couple_minibatch_ot, target, 0.5)}[coupling]
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(41))
        cfg = TrainConfig(steps=steps, batch=8)
        want = train_flow_per_step(model, target, pair, cfg, Rng(42))
        monkeypatch.setattr(flow, "PAIR_CHUNK_ROWS", chunk_rows)
        got = train_flow(model, target, pair, cfg, Rng(42))
        assert got.theta.tobytes() == want.theta.tobytes()

    def test_peak_memory_at_the_highdim_shape(self):
        # 20 steps at highdim-eps's shape (d=32, width 128³, batch 128) read
        # 2.18 MiB: float32 theta, gradient and Adam state (5 × 162 KiB),
        # the chunk's noise (640 KiB) and one step's passes. With float64
        # theta and Adam and the noise joined by np.concatenate it was 3.57.
        gen = Rng(64).generator()
        target = TargetMeasure.from_points(gen.standard_normal((4096, 32)))
        model = FlowModel(dim=32, hidden=(128,) * 3, rng=Rng(65))
        pair = partial(couple_independent, target)
        cfg = TrainConfig(steps=20, batch=128)
        train_flow(model, target, pair, TrainConfig(steps=1, batch=128), Rng(66))
        tracemalloc.start()
        try:
            train_flow(model, target, pair, cfg, Rng(66))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_nan_loss_aborts(self):
        points = Rng(10).generator().standard_normal((4, 2))
        target = TargetMeasure.from_points(points)
        # A target refuses a NaN point, so the NaN goes in after the checks.
        target.points[0, 0] = np.nan
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(10))
        with pytest.raises(FloatingPointError):
            train_flow(model, target, _fixed_stream([np.arange(4)]),
                       TrainConfig(steps=1, batch=4), Rng(11))

    def test_non_finite_gradient_aborts(self):
        # Output weights of 1e30 keep the loss finite (about 4e58), but the
        # float32 backward pass overflows. Tier-1 turns RuntimeWarnings into
        # errors, so this also checks that the overflow does not warn.
        target = TargetMeasure.from_points(Rng(15).generator().standard_normal((8, 2)))
        model = FlowModel(dim=2, hidden=(4,), rng=Rng(15))
        model.weights[-1][...] = 1e30
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            train_flow(model, target, partial(couple_independent, target),
                       TrainConfig(steps=1, batch=8), Rng(16))

    def test_training_reduces_loss_on_sd_map(self):
        gen = Rng(12).generator()
        data = np.array([[2.0, 0.0], [-2.0, 0.0]])
        target = TargetMeasure.from_points(data)
        pot = Potential(g=np.zeros(2), target=target,
                        cost=CostConfig(kind=NEG_DOT, eps_raw=0.0))
        model = FlowModel(dim=2, hidden=(16, 16), rng=Rng(12))
        trained = train_flow(model, target, partial(assign_batch, pot),
                             TrainConfig(steps=300, batch=64), Rng(13))
        probe = gen.standard_normal((256, 2))
        x1 = data[assign_batch(pot, probe, Rng(14))]
        t = np.full(256, 0.5)
        loss_before, _ = fm_loss_and_grad(model, probe, x1, t)
        loss_after, _ = fm_loss_and_grad(trained, probe, x1, t)
        assert loss_after < loss_before


class TestIntegrate:
    def test_constant_field_exact(self):
        c = np.array([0.5, -1.5])
        x1, _ = integrate(lambda t, x: np.broadcast_to(c, x.shape), np.zeros(2),
                          method="euler", steps=7)
        np.testing.assert_allclose(x1[0], c, atol=1e-15)

    def test_rk4_exponential(self):
        x0 = np.array([1.0, -2.0])
        x1, _ = integrate(lambda t, x: x, x0, method="rk4", steps=16)
        np.testing.assert_allclose(x1[0], np.e * x0, atol=1e-5)

    def test_euler_recurrence(self):
        x1, _ = integrate(lambda t, x: x, np.array([1.0]), method="euler", steps=4)
        assert x1[0][0] == pytest.approx((1 + 0.25) ** 4)

    def test_unit_time_grid(self):
        # Euler evaluates the field at the left points of a uniform grid
        # over [0, 1].
        calls = []

        def field(t, x):
            calls.append(t)
            return x

        integrate(field, np.array([1.0]), steps=5)
        assert calls == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8])

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_non_finite_endpoint_raises(self, method):
        # The overflow is reported as a FloatingPointError, not as warnings.
        with pytest.raises(FloatingPointError):
            integrate(lambda t, x: x * 1e300, np.ones((2, 2)), method=method,
                      steps=4)

    @pytest.mark.parametrize("rows, dim, width, method, steps, mib", [
        (65536, 2, 64, "euler", 4, 12),  # desk-2d eval: 20 MiB with states
        (3072, 32, 128, "rk4", 8, 15),  # highdim-eps sample: 25.7 MiB
    ])
    def test_keeps_no_states(self, rows, dim, width, method, steps, mib):
        # Only the endpoints and the (steps, B, d) velocities are returned:
        # no (steps + 1, B, d) state array bounds the peak of the sampler
        # and curvature together.
        model = FlowModel(dim=dim, hidden=(width,) * 3, rng=Rng(60))
        x0 = gaussian_starts(Rng(61), rows, dim)
        tracemalloc.start()
        try:
            x1, vels = integrate(model, x0, method=method, steps=steps)
            curvature(x0, x1, vels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x1.shape == x0.shape and vels.shape == (steps, *x0.shape)
        assert peak <= mib * 2**20


class TestCurvature:
    def test_straight_path_zero(self):
        c = np.array([1.0, 1.0])
        x0 = np.zeros(2)
        x1, vels = integrate(lambda t, x: np.broadcast_to(c, x.shape), x0,
                             method="euler", steps=8)
        assert curvature(x0, x1, vels) == pytest.approx(0.0, abs=1e-24)

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
        chord = states[-1, 0] - states[0, 0]

        def integrand(t):
            v = (np.pi / 2) * np.array([-np.sin(np.pi * t / 2), np.cos(np.pi * t / 2)])
            return float(np.sum((v - chord) ** 2))

        oracle, _ = quad(integrand, 0.0, 1.0)
        curv = curvature(states[0], states[-1], vels)
        assert curv == pytest.approx(oracle, rel=0.01)
        assert curv > 0

    def test_reduces_one_grid_step_at_a_time(self):
        # At the desk-2d eval shape (65536 rows, width 64, Euler-4) the
        # curvature holds the (B, d) chord and one (B, d) buffer, 2 MiB,
        # where a (steps, B, d) deviation array and its row sums took 6 MiB;
        # with the sampler the peak is 8.1 MiB (11.0 with those arrays).
        model = FlowModel(dim=2, hidden=(64,) * 3, rng=Rng(62))
        x0 = gaussian_starts(Rng(63), 65536, 2)
        tracemalloc.start()
        try:
            x1, vels = integrate(model, x0, steps=4)
            sampler_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            curvature(x0, x1, vels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 2.5 * 2**20
        assert max(sampler_peak, peak) <= 8.5 * 2**20

    def test_non_finite_result_raises(self):
        vels = np.full((2, 1, 2), 1e200)
        with pytest.raises(FloatingPointError):
            curvature(np.zeros(2), np.zeros((1, 2)), vels)

    def test_grid_refinement_stable(self):
        def field(t, x):
            return np.stack([-x[:, 1], x[:, 0]], axis=1)

        x0 = np.array([1.0, 0.0])
        c1 = curvature(x0, *integrate(field, x0, steps=64))
        c2 = curvature(x0, *integrate(field, x0, steps=128))
        assert abs(c2 - c1) / c1 < 0.05


class TestRunFlow:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_blocks_keep_the_whole_batch_bits(self, method):
        # Three field blocks of 2048 rows and a partial one: the streamed
        # endpoints are those of one whole-batch integrate bit for bit, and
        # the curvature, summed block by block, agrees to rounding.
        model = FlowModel(dim=2, hidden=(64, 64), rng=Rng(64))
        gen = np.random.default_rng(65)
        for b in model.biases:
            b[...] = gen.standard_normal(b.shape)
        count = 3 * model.block + 517
        x0 = gaussian_starts(Rng(66), count, 2)
        want, vels = integrate(model.snapshot(), x0, method=method, steps=4)
        x1, curv = run_flow(model, Rng(66), count, method=method, steps=4)
        np.testing.assert_array_equal(x1, want)
        assert abs(curv - curvature(x0, want, vels)) <= 1e-12 * curv
        none, again = run_flow(model, Rng(66), count, method=method,
                               steps=4, keep=False)
        assert none is None and again == curv

    def test_one_step_has_no_curvature(self):
        model = FlowModel(dim=2, hidden=(8,), rng=Rng(67))
        x1, curv = run_flow(model, Rng(68), 5, steps=1)
        assert curv is None
        np.testing.assert_array_equal(
            x1, integrate(model, gaussian_starts(Rng(68), 5, 2), steps=1)[0])
        with pytest.raises(ConfigurationError):
            run_flow(model, Rng(68), 0)

    def test_memory_beyond_the_endpoints_does_not_grow_with_count(self):
        # desk-2d's eval shape (width 64, Euler-4): the velocity history,
        # states and starts are one field block's, so only the (count, d)
        # endpoints grow between 8192 and 65536 rows.
        model = FlowModel(dim=2, hidden=(64,) * 3, rng=Rng(69))
        beyond = []
        for count in (8192, 65536):
            tracemalloc.start()
            try:
                run_flow(model, Rng(70), count, steps=4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            beyond.append(peak - count * 2 * 8)
        assert abs(beyond[1] - beyond[0]) <= 0.1 * beyond[0]
        assert max(beyond) <= 2 * 2**20


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
        corrected = score_eps_positive(model, x, t, delta)
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
        (sample,), (weights,) = guided_sample(flow1, flow2, cfg, Rng(23), 1)
        np.testing.assert_array_equal(weights, [0.0])
        x0 = Rng(23).generator().standard_normal((1, 1))
        x1, _ = integrate(flow1, x0, method="euler", steps=32)
        np.testing.assert_allclose(sample, x1[0], atol=1e-12)

    def test_gamma_zero_follows_model2(self):
        flow1 = GaussianFlow1D(1.0)
        flow2 = GaussianFlow1D(-1.0)
        cfg = GuidanceConfig(gamma=0.0, replicas=1, steps=32)
        (sample,), (weights,) = guided_sample(flow1, flow2, cfg, Rng(24), 1)
        np.testing.assert_array_equal(weights, [0.0])
        x0 = Rng(24).generator().standard_normal((1, 1))
        x1, _ = integrate(flow2, x0, method="euler", steps=32)
        np.testing.assert_allclose(sample, x1[0], atol=1e-12)

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
        _, (weights,) = guided_sample(flow1, flow2, cfg, Rng(26), 1)
        assert np.max(np.abs(weights - weights[0])) < 1e-9


@pytest.mark.parametrize("call, match", [
    (lambda: integrate(GaussianFlow1D(1.0), np.zeros((2, 1)), method="midpoint"),
     "unknown solver 'midpoint'"),
    (lambda: curvature(np.zeros((2, 1)), np.ones((2, 1)), np.ones((1, 2, 1))),
     "at least 2 grid velocities"),
], ids=["integrate-method-unknown", "curvature-one-velocity"])
def test_refusals(call, match):
    with pytest.raises(ConfigurationError, match=match):
        call()

"""Acceptance suite: one test per exit criterion, one PASS line each.

Each criterion pins its tolerance here. The heavy directional
reproductions (couplings on the eight-Gaussians target, pairing-overhead
accounting) sit at the end; run the file with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from sdfm.cli import main
from sdfm.costs import NEG_DOT, SQ_EUCLIDEAN, CostConfig, cost_matrix, estimate_cost_std
from sdfm.coupling import (
    assign_batch,
    couple_minibatch_ot,
    oracle_discrete_ot,
)
from sdfm.flow import (
    FlowModel,
    GuidanceConfig,
    IndependentCoupling,
    SDCoupling,
    TrainConfig,
    curvature,
    delta_eps_toy,
    guided_sample,
    integrate,
    score_from_velocity,
    train_flow,
)
from sdfm.numerics import Rng
from sdfm.semidual import (
    DiscreteNoise,
    Potential,
    TargetMeasure,
    chi2_estimator,
    chi2_exact,
    marginal_exact,
    semidual_value,
    stochastic_gradient,
    transport_cost,
)
from sdfm.solver import SolverConfig, solve_sdot

from conftest import GaussianFlow1D, Mixture1D, make_enumerated_instance


def _report(criterion: str, detail: str):
    print(f"\n[PASS] {criterion}: {detail}")


def _random_instance(gen, eps):
    n = int(gen.integers(2, 17))
    m = int(gen.integers(4, 65))
    d = int(gen.integers(1, 5))
    y = gen.standard_normal((n, d))
    b = gen.random(n) + 0.2
    b /= b.sum()
    atoms = gen.standard_normal((m, d))
    w = gen.random(m) + 0.2
    w /= w.sum()
    target = TargetMeasure.from_points(y, b)
    cost = CostConfig(kind=NEG_DOT, eps_raw=eps)
    return target, cost, DiscreteNoise(atoms, w, exact=True)


def test_criterion_1_gradient_identity():
    """Exact-mode gradient matches finite differences of the semidual."""
    t0 = time.time()
    gen = Rng(1001).generator()
    worst = 0.0
    for trial in range(20):
        eps = 0.05 if trial % 2 == 0 else 0.5
        target, cost, noise = _random_instance(gen, eps)
        atoms, w = noise.enumerate()
        g0 = gen.standard_normal(target.n) * 0.5
        pot = Potential(g=g0, target=target, cost=cost)
        grad = stochastic_gradient(pot, atoms, w)
        h = 1e-5
        scale = max(np.max(np.abs(grad)), 1e-3)
        for j in range(target.n):
            gp, gm = g0.copy(), g0.copy()
            gp[j] += h
            gm[j] -= h
            fd = (
                semidual_value(Potential(g=gp, target=target, cost=cost), atoms, w)
                - semidual_value(Potential(g=gm, target=target, cost=cost), atoms, w)
            ) / (2 * h)
            rel = abs(fd - grad[j]) / scale
            worst = max(worst, rel)
            assert rel <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("criterion 1 (gradient identity)",
            f"20 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_chi2_unbiasedness():
    """Batch estimator mean within 3 SE of the exact divergence."""
    t0 = time.time()
    reps, batch = 10_000, 32
    for inst in range(5):
        gen = Rng(2000 + inst).generator()
        target, cost, noise = _random_instance(gen, eps=0.3 if inst % 2 else 0.0)
        atoms, w = noise.enumerate()
        g = gen.standard_normal(target.n) * 0.4
        pot = Potential(g=g, target=target, cost=cost)
        exact = chi2_exact(marginal_exact(pot, noise), target.weights)
        # Vectorized batched estimator: responsibilities of every atom once.
        from sdfm.semidual import responsibilities_rows

        s_all = responsibilities_rows(pot, atoms)
        idx = Rng(2100 + inst).generator().choice(len(atoms), size=(reps, batch),
                                                  p=w)
        s_batches = s_all[idx]  # (reps, batch, N)
        col_sum = s_batches.sum(axis=1)
        col_sq = (s_batches**2).sum(axis=1)
        vals = ((col_sum**2 - col_sq) / target.weights).sum(axis=1) \
            / (batch * (batch - 1)) - 1.0
        mean = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(mean - exact) <= 3 * se, (mean, exact, se)
        # Spot-check the vectorization against the public estimator.
        direct = chi2_estimator(pot, atoms[idx[0]])
        assert direct == pytest.approx(vals[0], abs=1e-10)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 2 (chi2 unbiasedness)",
            f"5 instances x {reps} batches of B={batch}, {elapsed:.1f}s")


def test_criterion_3_oracle_dual_equivalence():
    """solve_sdot reproduces oracle duals and marginals on enumerations."""
    t0 = time.time()
    for inst, eps in enumerate([0.05, 0.5, 0.05, 0.5]):
        gen = Rng(3000 + inst).generator()
        n = int(gen.integers(4, 17))
        m = int(gen.integers(16, 65))
        y = gen.standard_normal((n, 3))
        b = gen.random(n) + 0.3
        b /= b.sum()
        atoms = gen.standard_normal((m, 3))
        w = gen.random(m) + 0.3
        w /= w.sum()
        target = TargetMeasure.from_points(y, b)
        cost = CostConfig(kind=NEG_DOT, eps_raw=eps)
        noise = DiscreteNoise(atoms, w, exact=True)
        cfg = SolverConfig(optimizer="adagrad", base_lr=1.0,
                           constant_phase=6000, decay_phase=3000,
                           averaging_window=2000, tau=1e-11,
                           check_interval=1000)
        pot = solve_sdot(target, cost, cfg, Rng(3100 + inst), noise=noise)
        costs = cost_matrix(cost, atoms, y)
        _, _, g_star, _ = oracle_discrete_ot(costs, w, b, eps)
        dual_err = np.max(np.abs(pot.g - g_star))
        assert dual_err <= 1e-2 * np.max(np.abs(g_star)) + 1e-3
        tv = 0.5 * np.abs(marginal_exact(pot, noise) - b).sum()
        assert tv <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("criterion 3 (oracle dual equivalence)",
            f"4 instances at eps in {{0.05, 0.5}}, {elapsed:.1f}s")


def test_criterion_4_theorem_decay():
    """Decaying-schedule chi2 shrinks like a power law and is monotone."""
    t0 = time.time()
    target, cost, noise_exact = make_enumerated_instance(
        4000, n_target=8, n_atoms=48, d=2, eps=0.1, uniform=True
    )
    atoms, w = noise_exact.enumerate()
    sampler = DiscreteNoise(atoms, w, exact=False)

    def run(iters, seed, track=False):
        cfg = SolverConfig(optimizer="sgd-decay", theory_delta=1.0,
                           theory_smoothness=1.0 / cost.eps,
                           constant_phase=iters, decay_phase=0,
                           averaging_window=max(1, iters // 4),
                           batch=32 if track else 8,
                           tau=1e-12, check_interval=100 if track else 10**6)
        series = []

        def grab(k, pot, chi2):
            series.append(chi2_exact(marginal_exact(pot, noise_exact),
                                     target.weights))

        pot = solve_sdot(target, cost, cfg, Rng(seed),
                         noise=DiscreteNoise(atoms, w, exact=False),
                         checkpoint_cb=grab if track else None)
        final = chi2_exact(marginal_exact(pot, noise_exact), target.weights)
        return final, series

    ratios = []
    k_short = 400
    for seed in range(5):
        chi_short, _ = run(k_short, 4100 + seed)
        chi_long, _ = run(4 * k_short, 4100 + seed)
        ratios.append(chi_short / chi_long)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio >= 1.5

    _, series = run(3000, 4999, track=True)
    smoothed = np.convolve(series, np.ones(10) / 10, mode="valid")
    diffs = np.diff(smoothed)
    assert np.all(diffs <= 1e-9), "smoothed chi2 series must be non-increasing"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("criterion 4 (learning-rate decay)",
            f"chi2(K)/chi2(4K) mean ratio {mean_ratio:.2f} over 5 seeds; "
            f"window-10 smoothed series monotone, {elapsed:.1f}s")


def test_criterion_5_cost_bound():
    """Primal suboptimality bounded by ||g|| ||grad F(g)|| on enumerations."""
    t0 = time.time()
    for inst in range(6):
        gen = Rng(5000 + inst).generator()
        eps = [0.05, 0.5, 0.2][inst % 3]
        target, cost, noise = _random_instance(gen, eps)
        atoms, w = noise.enumerate()
        costs = cost_matrix(cost, atoms, target.points)
        _, _, _, c_star = oracle_discrete_ot(costs, w, target.weights, eps)
        # Probe both random potentials and a lightly trained one.
        cfg = SolverConfig(constant_phase=300, decay_phase=0, base_lr=0.5,
                           averaging_window=75, tau=1e-12,
                           check_interval=10**6)
        pots = [
            Potential(g=gen.standard_normal(target.n) * 0.5, target=target,
                      cost=cost),
            solve_sdot(target, cost, cfg, Rng(5100 + inst), noise=noise),
        ]
        for pot in pots:
            # Off-optimum couplings carry the wrong second marginal, so
            # their cost may undercut the constrained optimum; only the
            # upper bound is asserted.
            primal = transport_cost(pot, atoms, w)
            grad = stochastic_gradient(pot, atoms, w)
            bound = np.linalg.norm(pot.g) * np.linalg.norm(grad) + 1e-6
            assert primal - c_star <= bound
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 5 (cost bound)",
            f"6 instances x 2 potentials, {elapsed:.1f}s")


def test_criterion_6_assignment_semantics():
    """Exhaustive-scan agreement at N=1000 and b-weighted tie-breaking."""
    t0 = time.time()
    gen = Rng(6000).generator()
    n, d, probes = 1000, 8, 10_000
    ys = gen.standard_normal((n, d))
    g = gen.standard_normal(n) * 0.3
    target = TargetMeasure.from_points(ys)
    pot = Potential(g=g, target=target, cost=CostConfig(kind=NEG_DOT, eps_raw=0.0))
    xs = gen.standard_normal((probes, d))
    got = assign_batch(pot, xs, Rng(6001)).indices
    # Independent exhaustive scan, blocked einsum plus explicit max.
    expect = np.empty(probes, dtype=np.int64)
    for lo in range(0, probes, 500):
        block = xs[lo: lo + 500]
        scores = np.einsum("id,nd->in", block, ys) + g[None, :]
        expect[lo: lo + 500] = scores.argmax(axis=1)
    assert np.array_equal(got, expect)

    # Constructed exact tie: orthogonal probe, equal potentials.
    tie_pot = Potential(
        g=np.zeros(2),
        target=TargetMeasure.from_points([[1.0, 0.0], [-1.0, 0.0]]),
        cost=CostConfig(kind=NEG_DOT, eps_raw=0.0),
    )
    x_tie = np.array([0.0, 1.0])
    draws = assign_batch(tie_pot, np.tile(x_tie, (10_000, 1)), Rng(6002)).indices
    freq = draws.mean()
    assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 10_000)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("criterion 6 (assignment semantics)",
            f"{probes} probes agree at N={n}; tie frequency {freq:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_7_tweedie_consistency():
    """Score recovery: mixture oracle, eps=0 map, vanishing corrections."""
    t0 = time.time()
    mix = Mixture1D([1.0, -1.0], [0.5, 0.5])
    grid = np.linspace(-2.5, 2.5, 101)[:, None]
    worst = 0.0
    for t in (0.05, 0.25, 0.5, 0.75, 0.95):
        got = score_from_velocity(lambda tt, xx: mix.velocity(tt, xx), grid, t)
        worst = max(worst, float(np.max(np.abs(got - mix.score(t, grid)))))
    assert worst <= 1e-3

    # eps=0 piecewise transport map with a tilted potential.
    ys = np.array([1.0, -1.0])
    g = np.array([0.3, 0.0])
    x_star = (g[1] - g[0]) / (ys[0] - ys[1])

    def map_velocity(t, xt):
        xt = np.atleast_2d(xt)
        x0_plus = (xt - t * ys[0]) / (1 - t)
        x0_minus = (xt - t * ys[1]) / (1 - t)
        x0 = np.where(x0_plus >= x_star, x0_plus, x0_minus)
        return (xt - x0) / t

    t = 0.6
    x0 = Rng(7000).generator().standard_normal((500, 1))
    xt = (1 - t) * x0 + t * np.where(x0 >= x_star, ys[0], ys[1])
    got = score_from_velocity(lambda tt, xx: map_velocity(tt, xx), xt, t)
    map_err = float(np.max(np.abs(got - (-x0 / (1 - t)))))
    assert map_err <= 1e-6

    target = TargetMeasure.from_points([[1.0], [-1.0]])
    pot_small = Potential(g=np.zeros(2), target=target,
                          cost=CostConfig(kind=NEG_DOT, eps_raw=1e-3))
    est = delta_eps_toy(pot_small, np.array([0.8]), t=0.5, samples=20_000,
                        rng=Rng(7001), bandwidth=0.05)
    assert np.linalg.norm(est.value) <= 1e-2
    pot_big = Potential(g=np.zeros(2), target=target,
                        cost=CostConfig(kind=NEG_DOT, eps_raw=1e6))
    est_big = delta_eps_toy(pot_big, np.array([0.8]), t=0.5, samples=20_000,
                            rng=Rng(7002))
    assert np.all(np.abs(est_big.value) <= 3 * est_big.std_error + 4.0 / 1e6)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 7 (Tweedie consistency)",
            f"mixture grid err {worst:.1e}, map err {map_err:.1e}, "
            f"corrections vanish at both eps extremes, {elapsed:.1f}s")


def test_criterion_8_guidance_correctness():
    """Degenerate gammas exact; gamma=2 endpoint mean matches quadrature."""
    t0 = time.time()
    sigma = 0.5
    flow1 = GaussianFlow1D(1.0, sigma)
    flow2 = GaussianFlow1D(-1.0, sigma)

    # gamma in {0, 1}: zero weights, flow follows the selected model.
    for gamma, ref in ((0.0, flow2), (1.0, flow1)):
        cfg = GuidanceConfig(gamma=gamma, replicas=1, steps=64)
        (sample,), (weights,) = guided_sample(flow1, flow2, cfg, Rng(8000),
                                              1, dim=1)
        assert np.all(weights == 0.0)
        x0 = Rng(8000).generator().standard_normal((1, 1))
        traj = integrate(ref, x0, method="euler", steps=64)
        np.testing.assert_allclose(sample, traj.endpoints[0], atol=1e-12)

    # Grid-quadrature oracle for the geometric-mixture mean at t=1.
    gamma = 2.0
    xs = np.linspace(-6.0, 10.0, 8001)
    var1 = sigma**2

    def log_gauss(x, mean):
        return -((x - mean) ** 2) / (2 * var1)

    log_mix = gamma * log_gauss(xs, 1.0) + (1 - gamma) * log_gauss(xs, -1.0)
    mix = np.exp(log_mix - log_mix.max())
    oracle_mean = float(np.sum(xs * mix) / np.sum(mix))

    reps = 1000
    cfg = GuidanceConfig(gamma=gamma, replicas=256, steps=64)
    ends = guided_sample(flow1, flow2, cfg, Rng(8100), reps, dim=1)[0][:, 0]
    se = ends.std(ddof=1) / np.sqrt(reps)
    assert abs(ends.mean() - oracle_mean) <= 3 * se + 0.02
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("criterion 8 (guidance correctness)",
            f"gamma 0/1 exact; gamma=2 endpoint mean {ends.mean():+.3f} vs "
            f"oracle {oracle_mean:+.3f} (3se={3*se:.3f}), {elapsed:.1f}s")


def straightening_probe(tmp_path, seed: int) -> dict:
    """I-FM and SD-FM on eight-gaussians (N=1024), through the CLI.

    An eps=0 solve of 400 iterations (it ends on the budget), 400 training
    steps of a 64x64x64 model per coupling, Euler-4 curvature over 2048
    starts, and W2 of 512 Euler-4 samples against a fresh 512-point draw
    of the dataset. Returns ``{coupling: (curvature, w2)}``.
    """
    def path(name):
        return str(tmp_path / f"{seed}-{name}")

    def run(*argv):
        code = main([str(a) for a in argv])
        assert code in (0, 3), argv  # 3: the solve ends on its budget
        return code

    run("dataset", "--name", "eight-gaussians", "--n", 1024, "--seed", seed,
        "--out", path("data.sdfm"))
    run("dataset", "--name", "eight-gaussians", "--n", 512,
        "--seed", seed + 10_000, "--out", path("ref.sdfm"))
    run("solve", "--data", path("data.sdfm"), "--eps", 0, "--iters", 400,
        "--batch", 256, "--seed", seed, "--out", path("pot.sdfm"))
    result = {}
    for coupling in ("independent", "sd"):
        model = path(f"{coupling}.sdfm")
        pot = ["--potential", path("pot.sdfm")] if coupling == "sd" else []
        run("train", "--data", path("data.sdfm"), "--coupling", coupling,
            *pot, "--steps", 400, "--batch", 256, "--hidden", 64, 64, 64,
            "--seed", seed, "--out", model)
        run("eval", "--model", model, "--count", 2048, "--steps", 4,
            "--seed", seed, "--out", path(f"{coupling}-curv.json"))
        run("sample", "--model", model, "--count", 512, "--steps", 4,
            "--seed", seed, "--out", path(f"{coupling}-samples"))
        run("eval", "--samples", path(f"{coupling}-samples.bin"),
            "--reference", path("ref.sdfm"),
            "--out", path(f"{coupling}-w2.json"))
        with open(path(f"{coupling}-curv.json")) as fh:
            curv = json.load(fh)["curvature"]
        with open(path(f"{coupling}-w2.json")) as fh:
            w2 = json.load(fh)["w2"]
        result[coupling] = (curv, w2)
    return result


def test_criterion_9_sdfm_straightens_flows(tmp_path, capsys):
    """SD-FM flows are straighter and closer to the data than I-FM's."""
    t0 = time.time()
    # Over seeds 0-19 the SD-FM/I-FM ratios were 0.030-0.373 (curvature)
    # and 0.488-0.889 (W2); every one of those seeds passes these bounds.
    max_curv_ratio, max_w2_ratio = 0.4, 0.9
    lines = []
    for seed in (0, 1, 2):
        res = straightening_probe(tmp_path, seed)
        (c_i, w_i), (c_sd, w_sd) = res["independent"], res["sd"]
        lines.append(f"seed {seed}: curvature {c_sd:.3f}/{c_i:.3f}, "
                     f"W2 {w_sd:.3f}/{w_i:.3f}")
        assert c_sd <= max_curv_ratio * c_i, lines[-1]
        assert w_sd <= max_w2_ratio * w_i, lines[-1]
    capsys.readouterr()  # the commands' own output lines
    elapsed = time.time() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _report("criterion 9 (SD-FM straightens flows)",
                "; ".join(lines) + f" (SD-FM/I-FM), {elapsed:.1f}s")

import json
import math
import re
import struct
import warnings

import numpy as np
import pytest

from sdfm import artifacts, cli, flow, semidual
from sdfm.cli import main
from sdfm.container import read_container, write_container
from sdfm.costs import (
    REFERENCE_BATCH_SIZE,
    SQ_EUCLIDEAN,
    CostConfig,
    estimate_cost_std,
)
from sdfm.coupling import assign_batch, couple_minibatch_ot
from sdfm.numerics import Rng

from oracles import transport_cost


@pytest.fixture
def two_atoms(tmp_path):
    path = str(tmp_path / "two.sdfm")
    artifacts.save_dataset(path, np.array([[1.0, 0.0], [-1.0, 0.0]]), None,
                           {"name": "two-atoms", "seed": 0})
    return path


@pytest.fixture
def blob(tmp_path):
    path = str(tmp_path / "blob.sdfm")
    assert main(["dataset", "--name", "gaussian-blob", "--n", "64",
                 "--d", "2", "--seed", "3", "--out", path]) == 0
    return path


def _solve(tmp_path, data, name="pot.sdfm", extra=()):
    out = str(tmp_path / name)
    code = main(["solve", "--data", data, "--eps", "0", "--tau", "0.05",
                 "--iters", "3000", "--batch", "128", "--seed", "1",
                 "--chi2-samples", "4096", "--out", out, *extra])
    return code, out


class TestSolveCommand:
    def test_two_atom_toy_reaches_tau(self, tmp_path, two_atoms, capsys):
        code, out = _solve(tmp_path, two_atoms)
        assert code == 0
        _, meta, arrays = read_container(out, expect_kind="potential")
        assert meta["provenance"]["stop_reason"] == "tau"
        assert int(meta["provenance"]["iterations"]) < 10_000
        assert (tmp_path / "pot.sdfm.metrics.csv").exists()

    def test_eps_zero_sqeuclid_rejected(self, tmp_path, two_atoms, capsys):
        code = main(["solve", "--data", two_atoms, "--eps", "0",
                     "--cost", "sqeuclid", "--out", str(tmp_path / "x.sdfm")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_rerun_payload_identical(self, tmp_path, two_atoms):
        _, out1 = _solve(tmp_path, two_atoms, "a.sdfm")
        _, out2 = _solve(tmp_path, two_atoms, "b.sdfm")
        _, _, arrays1 = read_container(out1)
        _, _, arrays2 = read_container(out2)
        assert arrays1["g"].tobytes() == arrays2["g"].tobytes()

    def test_budget_exit_code(self, tmp_path, blob, capsys):
        out = str(tmp_path / "short.sdfm")
        code = main(["solve", "--data", blob, "--eps", "0", "--tau", "1e-9",
                     "--iters", "50", "--batch", "16",
                     "--chi2-samples", "1024", "--out", out])
        assert code == 3
        read_container(out, expect_kind="potential")  # artifact still written
        # At g = 0, 8 evaluation rows over 4096 cells share none, so the
        # first check reads the estimator's floor of -1: that is no stop.
        data = str(tmp_path / "eight.sdfm")
        assert main(["dataset", "--name", "eight-gaussians",
                     "--out", data]) == 0
        capsys.readouterr()
        assert main(["solve", "--data", data, "--eps", "0", "--iters", "3",
                     "--batch", "4", "--chi2-samples", "8",
                     "--out", out]) == 3
        assert "stop=max_iterations" in capsys.readouterr().out

    def test_non_finite_solver_state_is_numeric_failure(self, tmp_path, blob,
                                                        capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--data", blob, "--eps", "0", "--lr", "1e308",
                         "--iters", "50", "--batch", "16",
                         "--chi2-samples", "256",
                         "--out", str(tmp_path / "x.sdfm")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and "\n" not in err.strip()

    def test_metrics_rows_reach_disk_on_budget_and_numeric_exits(
            self, tmp_path, blob):
        # Exit 3 (budget) finalizes the writer; exit 4 (numeric) leaves
        # through an exception after the rows of every check were logged.
        code, _ = _solve(tmp_path, blob, extra=["--iters", "2",
                                                  "--tau", "1e-12"])
        assert code == 3
        rows = (tmp_path / "pot.sdfm.metrics.csv").read_text().splitlines()
        assert {r.split(",")[2] for r in rows[1:]} == {
            "chi2", "semidual", "marginal_linf", "empty_cell_fraction", "lr"}
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--data", blob, "--eps", "0", "--lr", "1e308",
                         "--iters", "50", "--batch", "16",
                         "--chi2-samples", "256",
                         "--out", str(tmp_path / "x.sdfm")])
        assert code == 4
        rows = (tmp_path / "x.sdfm.metrics.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0"] * 5
        # A semidual collapse at a later check still logs that check's
        # rows and writes its checkpoint before the exit.
        code = main(["solve", "--data", blob, "--eps", "0", "--lr", "1e6",
                     "--iters", "2001", "--batch", "16",
                     "--chi2-samples", "256", "--checkpoint-every", "2000",
                     "--out", str(tmp_path / "y.sdfm")])
        assert code == 4
        rows = (tmp_path / "y.sdfm.metrics.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0"] * 5 + ["2000"] * 5
        assert (tmp_path / "y.sdfm.ckpt2000").exists()

    def test_check_rows_reach_disk_before_the_next_iteration(
            self, tmp_path, blob, monkeypatch):
        # The first ascent step runs right after the check at iteration 0:
        # that check's rows must already be readable from the CSV.
        import sdfm.solver

        seen = []
        step = sdfm.solver.stochastic_gradient

        def reading_step(*args, **kwargs):
            if not seen:
                seen.append((tmp_path / "pot.sdfm.metrics.csv").read_text())
            return step(*args, **kwargs)

        monkeypatch.setattr(sdfm.solver, "stochastic_gradient", reading_step)
        code, _ = _solve(tmp_path, blob, extra=["--iters", "3"])
        assert code == 3
        rows = seen[0].splitlines()
        assert rows[0] == "step,wall_ms,metric,value"
        assert [r.split(",")[0] for r in rows[1:]] == ["0"] * 5

    def test_summary_reports_final_diagnostics(self, tmp_path, blob):
        code, out = _solve(tmp_path, blob, extra=["--iters", "4"])
        assert code == 3
        prov = read_container(out)[1]["provenance"]
        with open(out + ".metrics.json") as fh:
            summary = json.load(fh)["summary"]
        for key in ("final_marginal_linf", "empty_cell_fraction",
                    "lr_halvings"):
            assert summary[key] == prov[key]
        assert summary["final_marginal_linf"] > 0.0
        assert 0.0 <= summary["empty_cell_fraction"] <= 1.0

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--data", str(tmp_path / "nope.sdfm"),
                     "--eps", "0", "--out", str(tmp_path / "x.sdfm")])
        assert code == 2

    def test_pca_smoke(self, tmp_path):
        path = str(tmp_path / "blob4.sdfm")
        main(["dataset", "--name", "gaussian-blob", "--n", "64", "--d", "4",
              "--seed", "5", "--out", path])
        out = str(tmp_path / "p.sdfm")
        code = main(["solve", "--data", path, "--eps", "0.1", "--pca", "2",
                     "--iters", "400", "--batch", "32",
                     "--chi2-samples", "1024", "--tau", "10", "--out", out])
        assert code == 0
        _, meta, arrays = read_container(out)
        assert arrays["projection_basis"].shape == (2, 4)
        assert meta["cost"]["eps_effective"] != meta["cost"]["eps_raw"]


class TestAssignCommand:
    def test_single_noise_row(self, tmp_path, two_atoms):
        _, pot = _solve(tmp_path, two_atoms)
        noise_path = str(tmp_path / "one.sdfm")
        artifacts.save_dataset(noise_path, np.array([[1.0, 0.0]]))
        out = str(tmp_path / "pairs.sdfm")
        code = main(["assign", "--potential", pot, "--data", two_atoms,
                     "--noise", noise_path, "--out", out])
        assert code == 0
        _, meta, arrays = read_container(out, expect_kind="pairs")
        assert arrays["indices"].shape == (1,)

    def test_sampled_noise_reproducible(self, tmp_path, two_atoms):
        _, pot = _solve(tmp_path, two_atoms)
        outs = []
        for name in ("p1.sdfm", "p2.sdfm"):
            out = str(tmp_path / name)
            assert main(["assign", "--potential", pot, "--data", two_atoms,
                         "--sample", "1000", "--seed", "9",
                         "--out", out]) == 0
            outs.append(read_container(out)[2]["indices"])
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_requires_noise_or_sample(self, tmp_path, two_atoms, capsys):
        _, pot = _solve(tmp_path, two_atoms)
        code = main(["assign", "--potential", pot, "--data", two_atoms,
                     "--out", str(tmp_path / "x.sdfm")])
        assert code == 2


class TestTrainSampleEval:
    def test_train_then_sample_then_eval(self, tmp_path, blob):
        model_path = str(tmp_path / "model.sdfm")
        code = main(["train", "--data", blob, "--coupling", "independent",
                     "--steps", "30", "--batch", "32",
                     "--hidden", "16", "16", "--seed", "2",
                     "--out", model_path])
        assert code == 0
        dump = str(tmp_path / "samples")
        assert main(["sample", "--model", model_path, "--count", "64",
                     "--solver", "euler", "--steps", "4", "--seed", "3",
                     "--out", dump]) == 0
        samples = artifacts.load_sample_dump(dump + ".bin")
        assert samples.shape == (64, 2)
        report = str(tmp_path / "eval.json")
        assert main(["eval", "--samples", dump + ".bin",
                     "--reference", dump + ".bin", "--out", report]) == 0
        assert json.loads(open(report).read())["w2"] <= 1e-9

    def test_one_step_sample_sidecar_is_strict_json(self, tmp_path, blob):
        model_path = str(tmp_path / "model.sdfm")
        assert main(["train", "--data", blob, "--coupling", "independent",
                     "--steps", "5", "--batch", "16", "--hidden", "8",
                     "--out", model_path]) == 0
        dump = str(tmp_path / "one")
        assert main(["sample", "--model", model_path, "--count", "4",
                     "--steps", "1", "--out", dump]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        with open(dump + ".json") as fh:
            sidecar = json.load(fh, parse_constant=reject)
        assert sidecar["curvature"] is None

    def test_train_sd_requires_potential(self, tmp_path, blob):
        assert main(["train", "--data", blob, "--coupling", "sd",
                     "--steps", "5", "--out", str(tmp_path / "m.sdfm")]) == 2

    def test_train_sd_and_minibatch(self, tmp_path, blob):
        code, pot = _solve(tmp_path, blob, "bp.sdfm")
        model_path = str(tmp_path / "sdmodel.sdfm")
        assert main(["train", "--data", blob, "--coupling", "sd",
                     "--potential", pot, "--steps", "10", "--batch", "16",
                     "--hidden", "8", "--out", model_path]) == 0
        assert main(["train", "--data", blob, "--coupling",
                     "minibatch-hungarian", "--steps", "5", "--batch", "16",
                     "--hidden", "8",
                     "--out", str(tmp_path / "mb.sdfm")]) == 0

    @pytest.mark.parametrize("coupling", ["sd", "independent"])
    def test_train_summary_reports_pairing_share(self, tmp_path, blob,
                                                 coupling):
        _, pot = _solve(tmp_path, blob, "bp.sdfm", extra=["--iters", "50"])
        out = str(tmp_path / "m.sdfm")
        assert main(["train", "--data", blob, "--coupling", coupling,
                     "--potential", pot, "--steps", "3", "--batch", "8",
                     "--hidden", "4", "--seed", "2", "--out", out]) == 0
        with open(out + ".metrics.json") as fh:
            summary = json.load(fh)["summary"]
        rows = [r.split(",") for r in
                (tmp_path / "m.sdfm.metrics.csv").read_text().splitlines()[1:]]
        logged = [float(r[3]) for r in rows if r[2] == "pair_batch_ms"]
        assert len(logged) == 1  # the three steps pair in one chunk
        assert summary["pair_ms"] == pytest.approx(sum(logged), rel=1e-12)
        assert 0.0 < summary["pair_share"] < 1.0
        # Three steps of 8 rows pair at most 24 of the 64 points.
        assert 0.0 < summary["paired_fraction"] <= 24 / 64
        if coupling == "independent":
            # Step k pairs with rng.child(101).child(k).child(1): the
            # fraction counts the distinct indices of those draws.
            drawn = {int(j) for k in range(3) for j in
                     Rng(2).child(101).child(k).child(1).generator()
                     .choice(64, size=8, p=np.full(64, 1 / 64))}
            assert summary["paired_fraction"] == len(drawn) / 64

    def test_sd_training_pairs_a_chunk_of_steps_per_scan(
            self, tmp_path, blob, monkeypatch):
        # 200 steps of 256 rows make ceil(200 / 64) assign_batch calls, one
        # per chunk of PAIR_CHUNK_ROWS // 256 steps, not one per step.
        calls = []

        def counting(pot, noise, rngs):
            calls.append(len(rngs))
            return assign_batch(pot, noise, rngs)

        pot = _quick_potential(tmp_path, blob)
        monkeypatch.setattr(cli, "assign_batch", counting)
        assert main(["train", "--data", blob, "--coupling", "sd",
                     "--potential", pot, "--steps", "200", "--batch", "256",
                     "--hidden", "4", "--out", str(tmp_path / "m.sdfm")]) == 0
        per_chunk = flow.PAIR_CHUNK_ROWS // 256
        assert len(calls) == math.ceil(200 / per_chunk)
        assert sum(calls) == 200

    def test_train_sd_echoes_the_potential_state(self, tmp_path, blob, capsys):
        _, pot = _solve(tmp_path, blob, "bp.sdfm", extra=["--iters", "50"])
        provenance = read_container(pot, expect_kind="potential")[1]["provenance"]
        for coupling in ("sd", "independent"):
            out = str(tmp_path / f"{coupling}.sdfm")
            capsys.readouterr()
            assert main(["train", "--data", blob, "--coupling", coupling,
                         "--potential", pot, "--steps", "2", "--batch", "8",
                         "--hidden", "4", "--out", out]) == 0
            stdout = capsys.readouterr().out
            with open(out + ".metrics.json") as fh:
                summary = json.load(fh)["summary"]
            for key in ("stop_reason", "final_chi2", "empty_cell_fraction"):
                echoed = f"potential_{key}={provenance[key]} "
                if coupling == "sd":
                    assert summary["potential_" + key] == provenance[key]
                    assert echoed in stdout
                else:
                    assert "potential_" + key not in summary
                    assert "potential_" not in stdout
        assert provenance["stop_reason"] == "max_iterations"

    def test_only_sd_training_hashes_the_dataset(self, tmp_path, blob,
                                                  monkeypatch):
        # The target's fingerprint binds a stored potential to its dataset:
        # a training run without a potential never reads it.
        hashed = []
        fingerprint = semidual._fingerprint

        def recording(points, weights):
            hashed.append(len(points))
            return fingerprint(points, weights)

        monkeypatch.setattr(semidual, "_fingerprint", recording)
        pot = _quick_potential(tmp_path, blob)
        hashed.clear()
        for coupling in ("independent", "minibatch-sinkhorn",
                         "minibatch-hungarian"):
            assert main(["train", "--data", blob, "--coupling", coupling,
                         "--steps", "2", "--batch", "8", "--hidden", "4",
                         "--out", str(tmp_path / "m.sdfm")]) == 0
        assert hashed == []
        assert main(["train", "--data", blob, "--coupling", "sd",
                     "--potential", pot, "--steps", "2", "--batch", "8",
                     "--hidden", "4", "--out", str(tmp_path / "m.sdfm")]) == 0
        assert hashed == [64]

    def test_sinkhorn_ot_eps_is_relative_to_reference_cost_std(
            self, tmp_path, blob, monkeypatch):
        passed = []

        def recording(target, eps, noise, rng):
            passed.append(eps)
            return couple_minibatch_ot(target, eps, noise, rng)

        monkeypatch.setattr(cli, "couple_minibatch_ot", recording)
        out = str(tmp_path / "sk.sdfm")
        assert main(["train", "--data", blob, "--coupling",
                     "minibatch-sinkhorn", "--ot-eps", "0.2", "--steps", "2",
                     "--batch", "16", "--hidden", "4", "--seed", "5",
                     "--out", out]) == 0
        # The reference draw from rng.child(12): as many noise rows as data
        # rows, at most REFERENCE_BATCH_SIZE, the data rows without
        # replacement.
        points = artifacts.load_dataset(blob)[0]
        n_ref = min(REFERENCE_BATCH_SIZE, len(points))
        gen = Rng(5).child(12).generator()
        noise = gen.standard_normal((n_ref, 2))
        rows = points[gen.choice(len(points), size=n_ref, replace=False)]
        std = estimate_cost_std(CostConfig(kind=SQ_EUCLIDEAN), noise, rows)
        cost = read_container(out, expect_kind="model")[1]["cost"]
        assert cost["cost_std"] == std
        assert cost["eps_raw"] == 0.2
        assert cost["eps_effective"] == 0.2 * std
        assert passed == [0.2 * std]  # the two steps pair in one call

    def test_eval_identical_clouds_w2_zero(self, tmp_path):
        data = Rng(11).generator().standard_normal((40, 3))
        a = str(tmp_path / "a")
        artifacts.save_sample_dump(a, data)
        code = main(["eval", "--samples", a + ".bin", "--reference", a + ".bin"])
        assert code == 0

    def test_eval_unequal_sizes_rejected(self, tmp_path):
        gen = Rng(12).generator()
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        artifacts.save_sample_dump(a, gen.standard_normal((8, 2)))
        artifacts.save_sample_dump(b, gen.standard_normal((9, 2)))
        assert main(["eval", "--samples", a + ".bin",
                     "--reference", b + ".bin"]) == 2

    def test_eval_nan_dump_is_numeric_failure(self, tmp_path, capsys):
        # A dump from a diverged model: one row holds a NaN.
        gen = Rng(13).generator()
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        samples = gen.standard_normal((8, 2))
        samples[5, 1] = np.nan
        artifacts.save_sample_dump(a, samples)
        artifacts.save_sample_dump(b, gen.standard_normal((8, 2)))
        capsys.readouterr()
        assert main(["eval", "--samples", a + ".bin",
                     "--reference", b + ".bin"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("fault", ["conditions", "fingerprint", "kind"])
    def test_eval_reports_container_refusal(self, tmp_path, blob, capsys,
                                            fault):
        # A container the loader refuses is reported as such, never read
        # as the sample dump "<path>.bin" that does not exist.
        if fault == "conditions":
            _rewritten(blob, {"conditions": np.zeros((64, 1))})
            reason = "condition per point"
        elif fault == "fingerprint":
            raw = bytearray(open(blob, "rb").read())
            raw[-1] ^= 0xFF  # the last payload byte
            open(blob, "wb").write(bytes(raw))
            reason = "fingerprint mismatch"
        else:
            blob = _quick_model(tmp_path, blob)
            reason = "container kind 'model'"
        ref = _dump(tmp_path, "ref", (64, 2))
        capsys.readouterr()
        assert main(["eval", "--samples", blob, "--reference", ref]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err

    def test_eval_reads_dataset_and_bare_dump_paths(self, tmp_path, blob):
        points = artifacts.load_dataset(blob)[0]
        ref = str(tmp_path / "ref")
        artifacts.save_sample_dump(ref, points)
        report = str(tmp_path / "r.json")
        assert main(["eval", "--samples", blob, "--reference", ref,
                     "--out", report]) == 0
        assert json.loads(open(report).read())["w2"] == 0.0

    def test_eval_model_curvature(self, tmp_path, blob):
        model_path = str(tmp_path / "m.sdfm")
        main(["train", "--data", blob, "--coupling", "independent",
              "--steps", "10", "--batch", "16", "--hidden", "8",
              "--out", model_path])
        report = str(tmp_path / "r.json")
        assert main(["eval", "--model", model_path, "--count", "32",
                     "--steps", "4", "--out", report]) == 0
        assert "curvature" in json.loads(open(report).read())


class TestMetricsFiles:
    def test_failed_train_leaves_no_file(self, tmp_path, capsys):
        # Sinkhorn on a 2-point d=1 blob does not converge (exit 4); the
        # metrics CSV and JSON opened before training are removed.
        data = str(tmp_path / "two.sdfm")
        assert main(["dataset", "--name", "gaussian-blob", "--n", "2",
                     "--d", "1", "--seed", "0", "--out", data]) == 0
        assert main(["train", "--data", data, "--coupling",
                     "minibatch-sinkhorn", "--steps", "2", "--batch", "4",
                     "--hidden", "4", "--out", str(tmp_path / "m.sdfm")]) == 4
        assert capsys.readouterr().err.startswith("error: no convergence")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two.sdfm"]

    def test_summaries_record_the_memory_high_water_mark(self, tmp_path,
                                                         blob):
        # solve's and train's metrics JSON hold ru_maxrss in MiB; no other
        # artifact does, so their payloads and eval's report keep their bytes.
        _, pot = _solve(tmp_path, blob, extra=["--iters", "4"])
        model = _quick_model(tmp_path, blob)
        for out in (pot, model):
            with open(out + ".metrics.json") as fh:
                hwm = json.load(fh)["summary"]["rss_hwm_mb"]
            assert isinstance(hwm, float) and hwm > 0.0
            assert "rss_hwm_mb" not in json.dumps(read_container(out)[1])
        report, dump = str(tmp_path / "r.json"), str(tmp_path / "s")
        assert main(["sample", "--model", model, "--count", "8",
                     "--out", dump]) == 0
        assert main(["eval", "--model", model, "--count", "8",
                     "--out", report]) == 0
        for path in (report, dump + ".json"):
            with open(path) as fh:
                assert "rss_hwm_mb" not in fh.read()


class TestGuideCommand:
    def test_gamma_one_matches_sample(self, tmp_path, blob):
        m1 = str(tmp_path / "m1.sdfm")
        m2 = str(tmp_path / "m2.sdfm")
        main(["train", "--data", blob, "--coupling", "independent",
              "--steps", "10", "--batch", "16", "--hidden", "8",
              "--seed", "1", "--out", m1])
        main(["train", "--data", blob, "--coupling", "independent",
              "--steps", "10", "--batch", "16", "--hidden", "8",
              "--seed", "2", "--out", m2])
        guided = str(tmp_path / "guided")
        plain = str(tmp_path / "plain")
        assert main(["guide", "--model1", m1, "--model2", m2,
                     "--gamma", "1.0", "--replicas", "1", "--count", "16",
                     "--steps", "8", "--seed", "7", "--out", guided]) == 0
        assert main(["sample", "--model", m1, "--count", "16",
                     "--solver", "euler", "--steps", "8", "--seed", "7",
                     "--out", plain]) == 0
        np.testing.assert_allclose(
            artifacts.load_sample_dump(guided + ".bin"),
            artifacts.load_sample_dump(plain + ".bin"),
            atol=1e-12,
        )


class TestPrefixStableStarts:
    """A larger --count extends a smaller one, row for row."""

    @pytest.mark.parametrize("command, small, large",
                             [("sample", 8, 16), ("eval", 8, 16),
                              ("guide", 3, 5)])
    def test_larger_count_extends_smaller(self, tmp_path, blob, monkeypatch,
                                          command, small, large):
        models = [str(tmp_path / f"m{seed}.sdfm") for seed in (1, 2)]
        for seed, path in enumerate(models, start=1):
            assert main(["train", "--data", blob, "--coupling", "independent",
                         "--steps", "5", "--batch", "16", "--hidden", "8",
                         "--seed", str(seed), "--out", path]) == 0
        starts = []
        integrate = flow.integrate

        def recording_integrate(model, x0, **kwargs):
            starts.append(x0)
            return integrate(model, x0, **kwargs)

        # The model run of sample and eval integrates through flow.integrate.
        monkeypatch.setattr(flow, "integrate", recording_integrate)
        rows = []
        for count in (small, large):
            out = str(tmp_path / f"{command}{count}")
            argv = {
                "sample": ["sample", "--model", models[0], "--out", out],
                "eval": ["eval", "--model", models[0]],
                "guide": ["guide", "--model1", models[0], "--model2",
                          models[1], "--replicas", "4", "--gamma", "2",
                          "--out", out],
            }[command]
            assert main([*argv, "--count", str(count), "--seed", "5"]) == 0
            rows.append(starts[-1] if command == "eval"
                        else artifacts.load_sample_dump(out + ".bin"))
        assert rows[1].shape[0] == large
        np.testing.assert_allclose(rows[1][:small], rows[0], atol=1e-12)


    def test_whole_blocks_are_bit_equal(self, tmp_path, blob):
        # Velocity blocks start at fixed multiples of the block size, so a
        # row of a whole block has the same bits at any --count.
        model = str(tmp_path / "m.sdfm")
        assert main(["train", "--data", blob, "--coupling", "independent",
                     "--steps", "5", "--batch", "16", "--hidden", "64", "64",
                     "64", "--seed", "5", "--out", model]) == 0
        rows = []
        for count in (3000, 65536):
            out = str(tmp_path / f"s{count}")
            assert main(["sample", "--model", model, "--count", str(count),
                         "--seed", "5", "--out", out]) == 0
            rows.append(artifacts.load_sample_dump(out + ".bin"))
        block = semidual.SCORE_CHUNK_BYTES // (8 * 64)
        assert 0 < block <= 3000
        np.testing.assert_array_equal(rows[1][:block], rows[0][:block])


class TestChisqCommand:
    def test_reports_estimate(self, tmp_path, two_atoms, capsys):
        _, pot = _solve(tmp_path, two_atoms)
        capsys.readouterr()
        assert main(["chisq", "--potential", pot, "--data", two_atoms,
                     "--samples", "4096", "--batch", "1024",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "estimate=" in out

    def test_single_batch_and_one_row_tail(self, tmp_path, two_atoms, capsys):
        _, pot = _solve(tmp_path, two_atoms)
        base = ["chisq", "--potential", pot, "--data", two_atoms,
                "--batch", "4096", "--seed", "4"]
        capsys.readouterr()
        assert main(base + ["--samples", "4096"]) == 0
        out = capsys.readouterr().out
        assert "stderr=n/a samples=4096\n" in out
        # A 1-row tail joins the batch before it: every row is used.
        assert main(base + ["--samples", "4097"]) == 0
        assert "stderr=n/a samples=4097\n" in capsys.readouterr().out

    @pytest.mark.parametrize("eps, cost", [("0", "negdot"), ("0.5", "negdot"),
                                           ("0.5", "sqeuclid")])
    def test_transport_cost_matches_oracle(self, tmp_path, blob, capsys, eps,
                                           cost):
        pot_path = str(tmp_path / "p.sdfm")
        assert main(["solve", "--data", blob, "--eps", eps, "--cost", cost,
                     "--iters", "50", "--batch", "32", "--chi2-samples", "256",
                     "--tau", "1e-9", "--seed", "2", "--out", pot_path]) in (0, 3)
        capsys.readouterr()
        assert main(["chisq", "--potential", pot_path, "--data", blob,
                     "--samples", "1000", "--batch", "256", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"estimate=\S+ transport_cost=\S+ stderr=", out)
        printed = float(re.search(r"transport_cost=(\S+)", out).group(1))
        # The same draws: chisq's batch k comes from Rng(seed).child(k).
        pot = artifacts.load_potential(pot_path, cli._load_target(blob))
        noise = semidual.GaussianNoise(pot.target)
        x = np.vstack([noise.sample(Rng(4).child(k), min(256, 1000 - lo))
                       for k, lo in enumerate(range(0, 1000, 256))])
        assert printed == pytest.approx(transport_cost(pot, x), abs=1e-6)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_dataset_unknown_name(self, tmp_path):
        assert main(["dataset", "--name", "nope",
                     "--out", str(tmp_path / "x.sdfm")]) == 2


class TestPcaEndToEnd:
    """``--pca K`` scores in the projection; pairs and training use raw rows."""

    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize("eps", ["0", "0.1"])
    def test_solve_train_assign_chisq(self, tmp_path, k, eps):
        data = str(tmp_path / "blob6.sdfm")
        assert main(["dataset", "--name", "gaussian-blob", "--n", "64",
                     "--d", "6", "--seed", "5", "--out", data]) == 0
        pot = str(tmp_path / "p.sdfm")
        assert main(["solve", "--data", data, "--eps", eps, "--pca", str(k),
                     "--iters", "200", "--batch", "32",
                     "--chi2-samples", "1024", "--tau", "0.05",
                     "--out", pot]) in (0, 3)
        assert main(["train", "--data", data, "--coupling", "sd",
                     "--potential", pot, "--steps", "5", "--batch", "32",
                     "--hidden", "8", "--out", str(tmp_path / "m.sdfm")]) == 0
        pairs = str(tmp_path / "pairs.sdfm")
        assert main(["assign", "--potential", pot, "--data", data,
                     "--sample", "200", "--seed", "2", "--out", pairs]) == 0
        assert main(["chisq", "--potential", pot, "--data", data,
                     "--samples", "2048", "--batch", "512"]) == 0
        points = artifacts.load_dataset(data)[0]
        arrays = read_container(pairs, expect_kind="pairs")[2]
        assert arrays["points"].shape == (200, 6)
        np.testing.assert_array_equal(arrays["points"],
                                      points[arrays["indices"]])


def _quick_potential(tmp_path, data):
    out = str(tmp_path / "quick.sdfm")
    assert main(["solve", "--data", data, "--eps", "0", "--iters", "20",
                 "--batch", "16", "--chi2-samples", "256", "--tau", "100",
                 "--out", out]) == 0
    return out


def _quick_model(tmp_path, data, name="m.sdfm"):
    out = str(tmp_path / name)
    assert main(["train", "--data", data, "--coupling", "independent",
                 "--steps", "2", "--batch", "8", "--hidden", "4",
                 "--out", out]) == 0
    return out


def _saved(tmp_path, name, points, weights=None):
    path = str(tmp_path / name)
    artifacts.save_dataset(path, np.asarray(points, dtype=np.float64), weights)
    return path


def _non_finite_potential(tmp_path, data):
    pot = _quick_potential(tmp_path, data)
    _, meta, arrays = read_container(pot)
    arrays["g"] = arrays["g"].copy()
    arrays["g"][0] = np.nan
    write_container(pot, "potential", arrays, meta)
    return pot


def _rewritten(path, arrays=None, **meta):
    """Rewrite a container with extra arrays and metadata keys."""
    kind, old_meta, old_arrays = read_container(path)
    write_container(path, kind, {**old_arrays, **(arrays or {})},
                    {**old_meta, **meta})
    return path


def _without(path, key):
    """Rewrite a container without the array or metadata key ``key``."""
    kind, meta, arrays = read_container(path)
    arrays.pop(key, None)
    meta.pop(key, None)
    write_container(path, kind, arrays, meta)
    return path


def _model_theta(tmp_path, data, edit):
    """A quick model whose stored theta is ``edit(theta)``."""
    path = _quick_model(tmp_path, data)
    return _rewritten(path, {"theta": edit(read_container(path)[2]["theta"])})


def _cost_edited(tmp_path, data, **fields):
    """A quick potential whose stored cost metadata has ``fields`` set."""
    pot = _quick_potential(tmp_path, data)
    cost = read_container(pot)[1]["cost"]
    return _rewritten(pot, cost={**cost, **fields})


def _eps_potential(tmp_path, data):
    """An eps=0.1 potential and its stored cost metadata."""
    out = str(tmp_path / "eps.sdfm")
    assert main(["solve", "--data", data, "--eps", "0.1", "--iters", "20",
                 "--batch", "16", "--chi2-samples", "256", "--tau", "100",
                 "--out", out]) == 0
    return out, read_container(out)[1]["cost"]


def _eps_disagreeing_potential(tmp_path, data):
    out, cost = _eps_potential(tmp_path, data)
    return _rewritten(out, cost={**cost,
                                 "eps_effective": 2 * cost["eps_effective"]})


def _cost_std_potential(tmp_path, data, cost_std):
    """An eps=0.1 potential whose stored cost std is ``cost_std``, stored
    with the effective eps that agrees with it."""
    out, cost = _eps_potential(tmp_path, data)
    return _rewritten(out, cost={**cost, "cost_std": cost_std,
                                 "eps_effective": 0.1 * cost_std})


def _with_nan(tmp_path, name, weights=None):
    """Eight distinct points, the first point NaN unless ``weights`` is given."""
    points = np.arange(16.0).reshape(8, 2)
    if weights is None:
        points[0, 0] = np.nan
    return _saved(tmp_path, name, points, weights)


def _dump(tmp_path, name, shape):
    path = str(tmp_path / name)
    artifacts.save_sample_dump(path, np.zeros(shape))
    return path + ".bin"


def _truncated_dump(tmp_path):
    """A 15-value dump whose sidecar says 8 rows of 2."""
    path = _dump(tmp_path, "t", (8, 2))
    with open(path, "r+b") as fh:
        fh.truncate(15 * 8)
    return path


def _dump_sidecar(tmp_path, edit):
    """An 8 x 2 dump whose sidecar dict went through ``edit``."""
    path = _dump(tmp_path, "k", (8, 2))
    sidecar = path[:-4] + ".json"
    meta = json.load(open(sidecar))
    edit(meta)
    json.dump(meta, open(sidecar, "w"))
    return path


# Each case builds its inputs and returns the argv of one command.
_USAGE_CASES = {
    "chisq-batch-0": lambda tmp, blob: [
        "chisq", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--batch", "0"],
    "chisq-batch-negative": lambda tmp, blob: [
        "chisq", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--batch", "-5"],
    "chisq-samples-1": lambda tmp, blob: [
        "chisq", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--samples", "1"],
    "chisq-batch-1": lambda tmp, blob: [
        "chisq", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--batch", "1"],
    "train-batch-0": lambda tmp, blob: [
        "train", "--data", blob, "--coupling", "independent", "--steps", "2",
        "--batch", "0", "--hidden", "4", "--out", str(tmp / "m.sdfm")],
    "assign-sample-negative": lambda tmp, blob: [
        "assign", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--sample", "-2", "--out", str(tmp / "x.sdfm")],
    "assign-noise-and-sample": lambda tmp, blob: [
        "assign", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--noise", blob, "--sample", "4", "--out", str(tmp / "x.sdfm")],
    "pca-k-above-dim": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--pca", "3",
        "--out", str(tmp / "x.sdfm")],
    "pca-k-zero": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--pca", "0",
        "--out", str(tmp / "x.sdfm")],
    "target-weight-zero": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "w.sdfm", [[0.0, 1.0], [1.0, 0.0]],
                                  np.array([1.0, 0.0])),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "potential-non-finite": lambda tmp, blob: [
        "chisq", "--potential", _non_finite_potential(tmp, blob),
        "--data", blob],
    "cost-std-one-entry": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "one.sdfm", [[1.0, 2.0]]),
        "--eps", "0.1", "--out", str(tmp / "x.sdfm")],
    "w2-shape-mismatch": lambda tmp, blob: [
        "eval", "--samples", _dump(tmp, "a", (8, 2)),
        "--reference", _dump(tmp, "b", (8, 3))],
    "sample-steps-0": lambda tmp, blob: [
        "sample", "--model", _quick_model(tmp, blob), "--steps", "0",
        "--out", str(tmp / "s")],
    "sample-count-0": lambda tmp, blob: [
        "sample", "--model", _quick_model(tmp, blob), "--count", "0",
        "--out", str(tmp / "s")],
    "eval-curvature-one-step": lambda tmp, blob: [
        "eval", "--model", _quick_model(tmp, blob), "--steps", "1"],
    # Half a W2 request is refused, not dropped beside the curvature.
    "eval-samples-without-reference": lambda tmp, blob: [
        "eval", "--samples", _dump(tmp, "a", (8, 2)),
        "--model", _quick_model(tmp, blob)],
    "eval-reference-without-samples": lambda tmp, blob: [
        "eval", "--reference", _dump(tmp, "b", (8, 2)),
        "--model", _quick_model(tmp, blob)],
    "guide-replicas-0": lambda tmp, blob: [
        "guide", "--model1", _quick_model(tmp, blob, "a.sdfm"),
        "--model2", _quick_model(tmp, blob, "b.sdfm"), "--replicas", "0",
        "--out", str(tmp / "g")],
    "guide-count-0": lambda tmp, blob: [
        "guide", "--model1", _quick_model(tmp, blob, "a.sdfm"),
        "--model2", _quick_model(tmp, blob, "b.sdfm"), "--count", "0",
        "--out", str(tmp / "g")],
    "guide-count-negative": lambda tmp, blob: [
        "guide", "--model1", _quick_model(tmp, blob, "a.sdfm"),
        "--model2", _quick_model(tmp, blob, "b.sdfm"), "--count", "-1",
        "--out", str(tmp / "g")],
    # The solver's step rule is not a CLI option.
    "solve-optimizer-flag": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--optimizer", "adagrad",
        "--out", str(tmp / "x.sdfm")],
    # Point arrays that are not rows of at least one coordinate.
    "dataset-0-rows": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "e.sdfm", np.zeros((0, 2))),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "dataset-1-d": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "v.sdfm", np.arange(5.0)),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "dataset-0-columns": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "c0.sdfm", np.zeros((3, 0))),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "dataset-3-d": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "t.sdfm", np.arange(8.0).reshape(2, 2, 2)),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "assign-noise-1-d": lambda tmp, blob: [
        "assign", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--noise", _saved(tmp, "n1.sdfm", np.zeros(2)),
        "--out", str(tmp / "x.sdfm")],
    "assign-noise-0-rows": lambda tmp, blob: [
        "assign", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--noise", _saved(tmp, "n0.sdfm", np.zeros((0, 2))),
        "--out", str(tmp / "x.sdfm")],
    "eval-dump-0-rows": lambda tmp, blob: [
        "eval", "--samples", _dump(tmp, "a", (0, 2)),
        "--reference", _dump(tmp, "b", (0, 2))],
    "eval-dump-0-columns": lambda tmp, blob: [
        "eval", "--samples", _dump(tmp, "a", (3, 0)),
        "--reference", _dump(tmp, "b", (3, 0))],
    "target-weights-negative": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "wn.sdfm", [[0.0, 1.0], [1.0, 0.0]],
                                  np.array([-1.0, -1.0])),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "target-weights-all-zero": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "w0.sdfm", [[0.0, 1.0], [1.0, 0.0]],
                                  np.zeros(2)),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "assign-noise-dimension": lambda tmp, blob: [
        "assign", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--noise", _saved(tmp, "n3.sdfm", np.zeros((4, 3))),
        "--out", str(tmp / "x.sdfm")],
    # Conditional generation is gone: its flag and the containers that
    # earlier versions wrote for it are refused, never reinterpreted.
    "solve-beta-flag": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--beta", "1",
        "--out", str(tmp / "x.sdfm")],
    "dataset-with-conditions": lambda tmp, blob: [
        "solve", "--data", _rewritten(
            _saved(tmp, "c.sdfm", np.zeros((4, 2)) + np.arange(4)[:, None]),
            {"conditions": np.eye(4)[:, :2]}),
        "--eps", "0", "--out", str(tmp / "x.sdfm")],
    "potential-beta-1": lambda tmp, blob: [
        "chisq", "--potential", _cost_edited(tmp, blob, beta=1.0),
        "--data", blob],
    "model-cond-dim-2": lambda tmp, blob: [
        "sample", "--model", _rewritten(_quick_model(tmp, blob), cond_dim=2),
        "--out", str(tmp / "s")],
    # Flags out of range are refused, not read as a default or run.
    "solve-batch-0": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "10",
        "--batch", "0", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-chi2-samples-0": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "10",
        "--batch", "16", "--chi2-samples", "0", "--out", str(tmp / "x.sdfm")],
    "solve-iters-0": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "0",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-iters-negative": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "-5",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-lr-0": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "10", "--lr", "0",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-lr-negative": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "10", "--lr", "-1",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-checkpoint-every-negative": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "10",
        "--batch", "16", "--chi2-samples", "256", "--checkpoint-every", "-1",
        "--out", str(tmp / "x.sdfm")],
    "train-steps-negative": lambda tmp, blob: [
        "train", "--data", blob, "--coupling", "independent", "--steps", "-3",
        "--batch", "8", "--hidden", "4", "--out", str(tmp / "m.sdfm")],
    "train-hidden-0": lambda tmp, blob: [
        "train", "--data", blob, "--coupling", "independent", "--steps", "2",
        "--batch", "8", "--hidden", "0", "--out", str(tmp / "m.sdfm")],
    "dataset-n-0": lambda tmp, blob: [
        "dataset", "--name", "gaussian-blob", "--n", "0",
        "--out", str(tmp / "d.sdfm")],
    "dataset-d-0": lambda tmp, blob: [
        "dataset", "--name", "gaussian-blob", "--d", "0",
        "--out", str(tmp / "d.sdfm")],
    "dataset-n-negative": lambda tmp, blob: [
        "dataset", "--name", "gaussian-blob", "--n", "-3",
        "--out", str(tmp / "d.sdfm")],
    "train-ot-eps-0": lambda tmp, blob: [
        "train", "--data", blob, "--coupling", "minibatch-sinkhorn",
        "--ot-eps", "0", "--steps", "2", "--batch", "8", "--hidden", "4",
        "--out", str(tmp / "m.sdfm")],
    # A stored effective eps must be eps_raw * cost_std.
    "potential-eps-effective-disagrees": lambda tmp, blob: [
        "chisq", "--potential", _eps_disagreeing_potential(tmp, blob),
        "--data", blob],
    # A sample dump must hold the rows x cols values its sidecar names.
    "eval-truncated-dump": lambda tmp, blob: [
        "eval", "--samples", _truncated_dump(tmp),
        "--reference", _saved(tmp, "ref.sdfm", np.zeros((8, 2)))],
    "eval-dump-sidecar-lacks-cols": lambda tmp, blob: [
        "eval", "--samples", _dump_sidecar(tmp, lambda m: m.pop("cols")),
        "--reference", _saved(tmp, "ref.sdfm", np.zeros((8, 2)))],
    "eval-dump-rows-string": lambda tmp, blob: [
        "eval", "--samples", _dump_sidecar(tmp, lambda m: m.update(rows="x")),
        "--reference", _saved(tmp, "ref.sdfm", np.zeros((8, 2)))],
    "eval-dump-rows-null": lambda tmp, blob: [
        "eval", "--samples", _dump_sidecar(tmp, lambda m: m.update(rows=None)),
        "--reference", _saved(tmp, "ref.sdfm", np.zeros((8, 2)))],
    "train-ot-eps-negative": lambda tmp, blob: [
        "train", "--data", blob, "--coupling", "minibatch-sinkhorn",
        "--ot-eps", "-0.5", "--steps", "2", "--batch", "8", "--hidden", "4",
        "--out", str(tmp / "m.sdfm")],
    # Non-finite eps values and cost scales are refused before any scan.
    "solve-eps-inf": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "inf", "--iters", "10",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-eps-nan": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "nan", "--iters", "10",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-eps-overflows": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "1.7e308", "--iters", "10",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "train-ot-eps-inf": lambda tmp, blob: [
        "train", "--data", blob, "--coupling", "minibatch-sinkhorn",
        "--ot-eps", "inf", "--steps", "2", "--batch", "8", "--hidden", "4",
        "--out", str(tmp / "m.sdfm")],
    "chisq-cost-std-negative": lambda tmp, blob: [
        "chisq", "--potential", _cost_std_potential(tmp, blob, -1.0),
        "--data", blob],
    "assign-cost-std-negative": lambda tmp, blob: [
        "assign", "--potential", _cost_std_potential(tmp, blob, -1.0),
        "--data", blob, "--sample", "4", "--out", str(tmp / "x.sdfm")],
    "chisq-cost-std-inf": lambda tmp, blob: [
        "chisq", "--potential", _cost_std_potential(tmp, blob, np.inf),
        "--data", blob],
    "assign-cost-std-inf": lambda tmp, blob: [
        "assign", "--potential", _cost_std_potential(tmp, blob, np.inf),
        "--data", blob, "--sample", "4", "--out", str(tmp / "x.sdfm")],
    # Non-finite data and noise rows are refused, never paired or solved.
    "solve-target-weight-nan": lambda tmp, blob: [
        "solve", "--data", _with_nan(tmp, "w.sdfm", np.r_[np.nan, np.ones(7)]),
        "--eps", "0", "--iters", "10", "--batch", "16",
        "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-target-point-nan": lambda tmp, blob: [
        "solve", "--data", _with_nan(tmp, "p.sdfm"), "--eps", "0",
        "--iters", "10", "--batch", "16", "--chi2-samples", "256",
        "--out", str(tmp / "x.sdfm")],
    "train-target-point-nan": lambda tmp, blob: [
        "train", "--data", _with_nan(tmp, "p.sdfm"), "--coupling",
        "independent", "--steps", "2", "--batch", "8", "--hidden", "4",
        "--out", str(tmp / "m.sdfm")],
    "assign-noise-nan": lambda tmp, blob: [
        "assign", "--potential", _quick_potential(tmp, blob), "--data", blob,
        "--noise", _saved(tmp, "nn.sdfm", [[np.nan, 0.0], [0.0, 1.0]]),
        "--out", str(tmp / "x.sdfm")],
    # Solver and guidance floats that are not finite are refused, never run.
    "solve-tau-nan": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "10", "--tau", "nan",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "solve-lr-inf": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--iters", "10", "--lr", "inf",
        "--batch", "16", "--chi2-samples", "256", "--out", str(tmp / "x.sdfm")],
    "guide-gamma-nan": lambda tmp, blob: [
        "guide", "--model1", _quick_model(tmp, blob, "a.sdfm"),
        "--model2", _quick_model(tmp, blob, "b.sdfm"), "--gamma", "nan",
        "--count", "4", "--out", str(tmp / "g")],
    "guide-gamma-inf": lambda tmp, blob: [
        "guide", "--model1", _quick_model(tmp, blob, "a.sdfm"),
        "--model2", _quick_model(tmp, blob, "b.sdfm"), "--gamma", "inf",
        "--count", "4", "--out", str(tmp / "g")],
    # A container that lacks a field its loader reads, or a model whose
    # parameters do not fit its sizes or are not finite, is refused.
    "sample-model-theta-short": lambda tmp, blob: [
        "sample", "--model", _model_theta(tmp, blob,
                                          lambda th: th[:len(th) // 2]),
        "--out", str(tmp / "s")],
    "sample-model-theta-nan": lambda tmp, blob: [
        "sample", "--model", _model_theta(tmp, blob,
                                          lambda th: np.r_[np.nan, th[1:]]),
        "--out", str(tmp / "s")],
    "sample-model-no-theta": lambda tmp, blob: [
        "sample", "--model", _without(_quick_model(tmp, blob), "theta"),
        "--out", str(tmp / "s")],
    "sample-model-no-sizes": lambda tmp, blob: [
        "sample", "--model", _without(_quick_model(tmp, blob), "sizes"),
        "--out", str(tmp / "s")],
    "chisq-potential-no-g": lambda tmp, blob: [
        "chisq", "--potential", _without(_quick_potential(tmp, blob), "g"),
        "--data", blob],
    "chisq-potential-no-cost": lambda tmp, blob: [
        "chisq", "--potential", _without(_quick_potential(tmp, blob), "cost"),
        "--data", blob],
    # Metadata fields of the wrong type are refused, not raised or truncated.
    "chisq-potential-eps-raw-string": lambda tmp, blob: [
        "chisq", "--potential", _cost_edited(tmp, blob, eps_raw="x"),
        "--data", blob],
    "chisq-potential-eps-raw-null": lambda tmp, blob: [
        "chisq", "--potential", _cost_edited(tmp, blob, eps_raw=None),
        "--data", blob],
    "chisq-potential-cost-std-string": lambda tmp, blob: [
        "chisq", "--potential", _cost_edited(tmp, blob, cost_std="x"),
        "--data", blob],
    "chisq-potential-beta-string": lambda tmp, blob: [
        "chisq", "--potential", _cost_edited(tmp, blob, beta="x"),
        "--data", blob],
    "sample-model-dim-string": lambda tmp, blob: [
        "sample", "--model", _rewritten(_quick_model(tmp, blob), dim="x"),
        "--out", str(tmp / "s")],
    "sample-model-dim-2.5": lambda tmp, blob: [
        "sample", "--model", _rewritten(_quick_model(tmp, blob), dim=2.5),
        "--out", str(tmp / "s")],
    "sample-model-sizes-string": lambda tmp, blob: [
        "sample", "--model", _rewritten(_quick_model(tmp, blob), sizes="abc"),
        "--out", str(tmp / "s")],
    "sample-model-sizes-entry-string": lambda tmp, blob: [
        "sample", "--model", _rewritten(_quick_model(tmp, blob),
                                        sizes=[3, "a", 2]),
        "--out", str(tmp / "s")],
}


class TestExitCodes:
    @pytest.mark.parametrize("case", [*_USAGE_CASES, "internal-value-error"])
    def test_only_validation_errors_exit_2(self, tmp_path, blob, capsys,
                                           monkeypatch, case):
        if case == "internal-value-error":
            # A defect inside a command is not a usage error: it propagates.
            def broken(*args, **kwargs):
                raise ValueError("operands could not be broadcast together")

            monkeypatch.setattr(cli, "assign_batch", broken)
            argv = ["assign", "--potential", _quick_potential(tmp_path, blob),
                    "--data", blob, "--sample", "4",
                    "--out", str(tmp_path / "x.sdfm")]
            with pytest.raises(ValueError, match="broadcast"):
                main(argv)
            return
        argv = _USAGE_CASES[case](tmp_path, blob)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("case", [
        "guide-gamma-1e200", "guide-gamma-1e154", "train-ot-eps-1e-300",
        *(f"{command}-theta-{value}" for command in ("sample", "eval", "guide")
          for value in ("1e39", "1e200")),
        "sample-theta-all-3e38", "eval-theta-all-3e38", "train-theta-1e39"])
    def test_numeric_failures_exit_4(self, tmp_path, blob, capsys,
                                     monkeypatch, case):
        command, kind, value = case.split("-", 2)
        if case.startswith("train-theta"):
            # Initial parameters beyond float32's finite range, which
            # set_theta refuses as loading a model file does.
            init = cli.FlowModel

            def scaled(*args, **kwargs):
                model = init(*args, **kwargs)
                model.set_theta(model.theta.astype(np.float64) * float(value))
                return model

            monkeypatch.setattr(cli, "FlowModel", scaled)
            argv = ["train", "--data", blob, "--coupling", "independent",
                    "--steps", "2", "--batch", "8", "--hidden", "4",
                    "--out", str(tmp_path / "m.sdfm")]
        elif kind == "theta":
            # Parameters scaled beyond float32's finite range, which the
            # velocity refuses; or all 3e38, finite in float32, where the
            # output layer overflows and so do the endpoints.
            edit = ((lambda theta: np.full_like(theta, 3e38))
                    if value == "all-3e38" else (lambda theta: theta * float(value)))
            model = _model_theta(tmp_path, blob, edit)
            argv = {
                "sample": ["sample", "--model", model,
                           "--out", str(tmp_path / "s")],
                "eval": ["eval", "--model", model],
                "guide": ["guide", "--model1", model, "--model2",
                          _quick_model(tmp_path, blob, "b.sdfm"),
                          "--out", str(tmp_path / "g")],
            }[command] + ["--count", "4"]
        elif command == "guide":
            # Guidance weights or states that overflow float64.
            argv = ["guide", "--model1", _quick_model(tmp_path, blob, "a.sdfm"),
                    "--model2", _quick_model(tmp_path, blob, "b.sdfm"),
                    "--gamma", value, "--count", "4",
                    "--out", str(tmp_path / "g")]
        else:
            # Sinkhorn cannot reach its tolerance at this eps: its kernel
            # underflows at every anchor, and the sweep budget runs out.
            argv = ["train", "--data", blob, "--coupling", "minibatch-sinkhorn",
                    "--ot-eps", "1e-300", "--steps", "2", "--batch", "16",
                    "--hidden", "4", "--out", str(tmp_path / "m.sdfm")]
        capsys.readouterr()
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_training_data_beyond_float32_exits_4_without_warnings(
            self, tmp_path, capsys):
        # Data beyond float32's range overflows the float32 forward pass:
        # one error line and exit 4, with no RuntimeWarning on the way. At
        # these draws every interpolant row overflows to +-inf, the hidden
        # tanh saturates, so the loss is finite (about 1.7e78) and backprop
        # overflows.
        data = str(tmp_path / "big.sdfm")
        points = Rng(7).generator().standard_normal((64, 2)) * 1e39
        artifacts.save_dataset(data, points, None, {"name": "big", "seed": 0})
        argv = ["train", "--data", data, "--coupling", "independent",
                "--steps", "2", "--batch", "8", "--hidden", "4",
                "--out", str(tmp_path / "m.sdfm")]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 4
        assert not caught
        err = capsys.readouterr().err
        assert err == "error: non-finite gradient at step 0\n"

    def test_non_finite_gradient_exits_4_without_warnings(
            self, tmp_path, blob, capsys, monkeypatch):
        # Output weights of 1e30: a finite loss whose float32 backward pass
        # overflows. The model is refused before it is saved.
        init = cli.FlowModel

        def heavy(*args, **kwargs):
            model = init(*args, **kwargs)
            model.weights[-1][...] = 1e30
            return model

        monkeypatch.setattr(cli, "FlowModel", heavy)
        out = tmp_path / "m.sdfm"
        argv = ["train", "--data", blob, "--coupling", "independent",
                "--steps", "1", "--batch", "8", "--hidden", "4",
                "--out", str(out)]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 4
        assert not caught and not out.exists()
        assert capsys.readouterr().err == "error: non-finite gradient at step 0\n"


def _cut(tmp_path, data, where):
    """``data`` cut inside its version, its metadata length, or the last
    dimension of its only array (``where``)."""
    raw = open(data, "rb").read()
    kind_len = struct.unpack("<I", raw[8:12])[0]
    payload = artifacts.load_dataset(data)[0].nbytes
    cut = {"version": 6, "meta-length": 12 + kind_len + 2,
           "dimension": len(raw) - payload - 3}[where]
    path = tmp_path / f"cut-{where}.sdfm"
    path.write_bytes(raw[:cut])
    return str(path)


def _spliced(tmp_path, data, kind=None, meta=None):
    """``data`` with its kind tag or metadata bytes replaced."""
    raw = open(data, "rb").read()
    kind_len = struct.unpack("<I", raw[8:12])[0]
    at = 12 + kind_len
    meta_len = struct.unpack("<I", raw[at:at + 4])[0]
    kind = raw[12:at] if kind is None else kind
    meta = raw[at + 4:at + 4 + meta_len] if meta is None else meta
    path = tmp_path / "spliced.sdfm"
    path.write_bytes(raw[:8] + struct.pack("<I", len(kind)) + kind
                     + struct.pack("<I", len(meta)) + meta
                     + raw[at + 4 + meta_len:])
    return str(path)


class TestMalformedFiles:
    """A short or malformed input file exits 2 with one error line, before
    any output file is opened."""

    @pytest.mark.parametrize("case", [
        "cut-version", "cut-meta-length", "cut-dimension",
        "metadata-json-list", "kind-not-utf8", "metadata-not-json"])
    def test_solve_refuses_malformed_data(self, tmp_path, blob, capsys, case):
        if case.startswith("cut-"):
            data = _cut(tmp_path, blob, case[len("cut-"):])
        elif case == "metadata-json-list":
            data = _spliced(tmp_path, blob, meta=b"[]")
        elif case == "kind-not-utf8":
            data = _spliced(tmp_path, blob, kind=b"data\xffset")
        else:
            data = _spliced(tmp_path, blob, meta=b'{"name": ')
        out = tmp_path / "pot.sdfm"
        capsys.readouterr()
        assert main(["solve", "--data", data, "--eps", "0", "--iters", "10",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert data in err and "Traceback" not in err
        assert not any(p.name.startswith("pot.sdfm") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("sidecar", [b'{"rows": 8, ', b'["rows", "cols"]', b"\xff"])
    def test_eval_refuses_a_malformed_sidecar(self, tmp_path, capsys, sidecar):
        samples = _dump(tmp_path, "a", (8, 2))
        with open(samples[:-4] + ".json", "wb") as fh:
            fh.write(sidecar)
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["eval", "--samples", samples,
                     "--reference", _dump(tmp_path, "b", (8, 2)),
                     "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert "JSON" in err and not report.exists()


class TestDumpNames:
    @pytest.mark.parametrize("samples, reference", [("s.json", "s.bin"),
                                                    ("s.bin", "s.json"),
                                                    ("s.json", "s")])
    def test_eval_takes_the_json_name_of_a_dump(self, tmp_path, samples,
                                                reference):
        artifacts.save_sample_dump(str(tmp_path / "s"),
                                   Rng(14).generator().standard_normal((6, 2)))
        report = str(tmp_path / "r.json")
        assert main(["eval", "--samples", str(tmp_path / samples),
                     "--reference", str(tmp_path / reference),
                     "--out", report]) == 0
        assert json.loads(open(report).read())["w2"] == 0.0

    def test_sample_out_json_writes_the_bin_and_the_json(self, tmp_path, blob,
                                                         capsys):
        model = _quick_model(tmp_path, blob)
        capsys.readouterr()
        assert main(["sample", "--model", model, "--count", "8",
                     "--steps", "2", "--out", str(tmp_path / "x.json")]) == 0
        assert capsys.readouterr().out.strip().endswith(
            f"out={tmp_path / 'x.bin'}")
        assert sorted(p.name for p in tmp_path.glob("x*")) == ["x.bin",
                                                                "x.json"]
        assert artifacts.load_sample_dump(str(tmp_path / "x")).shape == (8, 2)

    @pytest.mark.parametrize("shapes", [((8, 2), (9, 2)), ((8, 2), (8, 3))])
    def test_w2_clouds_of_two_shapes_name_both(self, tmp_path, capsys, shapes):
        a, b = (_dump(tmp_path, name, shape)
                for name, shape in zip("ab", shapes))
        capsys.readouterr()
        assert main(["eval", "--samples", a, "--reference", b]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert str(shapes[0]) in err and str(shapes[1]) in err

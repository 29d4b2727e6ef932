import json

import numpy as np
import pytest

from sdfm import artifacts, cli
from sdfm.cli import main
from sdfm.container import read_container, write_container
from sdfm.numerics import Rng


@pytest.fixture
def two_atoms(tmp_path):
    path = str(tmp_path / "two.sdfm")
    assert main(["dataset", "--name", "two-atoms", "--d", "2",
                 "--out", path]) == 0
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

    def test_budget_exit_code(self, tmp_path, blob):
        out = str(tmp_path / "short.sdfm")
        code = main(["solve", "--data", blob, "--eps", "0", "--tau", "1e-9",
                     "--iters", "50", "--batch", "16",
                     "--chi2-samples", "1024", "--out", out])
        assert code == 3
        read_container(out, expect_kind="potential")  # artifact still written

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
        # through an exception after the step-0 check rows were logged.
        code, _ = _solve(tmp_path, blob, extra=["--iters", "2",
                                                  "--tau", "1e-12"])
        assert code == 3
        rows = (tmp_path / "pot.sdfm.metrics.csv").read_text().splitlines()
        assert {r.split(",")[2] for r in rows[1:]} == {"chi2", "semidual", "lr"}
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--data", blob, "--eps", "0", "--lr", "1e308",
                         "--iters", "50", "--batch", "16",
                         "--chi2-samples", "256",
                         "--out", str(tmp_path / "x.sdfm")])
        assert code == 4
        rows = (tmp_path / "x.sdfm.metrics.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "0", "0"]

    def test_summary_reports_final_diagnostics(self, tmp_path, blob):
        code, out = _solve(tmp_path, blob, extra=["--iters", "4"])
        assert code == 3
        prov = read_container(out)[1]["provenance"]
        with open(out + ".metrics.json") as fh:
            summary = json.load(fh)["summary"]
        for key in ("final_marginal_linf", "empty_cell_fraction"):
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
        integrate = cli.integrate

        def recording_integrate(model, x0, **kwargs):
            starts.append(x0)
            return integrate(model, x0, **kwargs)

        monkeypatch.setattr(cli, "integrate", recording_integrate)
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


class TestChisqCommand:
    def test_reports_estimate(self, tmp_path, two_atoms, capsys):
        _, pot = _solve(tmp_path, two_atoms)
        capsys.readouterr()
        assert main(["chisq", "--potential", pot, "--data", two_atoms,
                     "--samples", "4096", "--batch", "1024",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "estimate=" in out

    def test_single_batch_and_dropped_tail(self, tmp_path, two_atoms, capsys):
        _, pot = _solve(tmp_path, two_atoms)
        base = ["chisq", "--potential", pot, "--data", two_atoms,
                "--batch", "4096", "--seed", "4"]
        capsys.readouterr()
        assert main(base + ["--samples", "4096"]) == 0
        out = capsys.readouterr().out
        assert "stderr=n/a samples=4096\n" in out
        # The 1-row tail has no estimate: it is reported, not hidden.
        assert main(base + ["--samples", "4097"]) == 0
        assert "stderr=n/a samples=4096 dropped=1\n" in capsys.readouterr().out


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
    arrays["g"][0] = np.nan
    write_container(pot, "potential", arrays, meta)
    return pot


def _rewritten(path, arrays=None, **meta):
    """Rewrite a container with extra arrays and metadata keys."""
    kind, old_meta, old_arrays = read_container(path)
    write_container(path, kind, {**old_arrays, **(arrays or {})},
                    {**old_meta, **meta})
    return path


def _beta_potential(tmp_path, data):
    pot = _quick_potential(tmp_path, data)
    cost = read_container(pot)[1]["cost"]
    return _rewritten(pot, cost={**cost, "beta": 1.0})


def _dump(tmp_path, name, shape):
    path = str(tmp_path / name)
    artifacts.save_sample_dump(path, np.zeros(shape))
    return path + ".bin"


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
    "pca-k-above-dim": lambda tmp, blob: [
        "solve", "--data", blob, "--eps", "0", "--pca", "3",
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
    "smoothness-duplicate-points": lambda tmp, blob: [
        "solve", "--data", _saved(tmp, "dup.sdfm",
                                  [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "--eps", "0", "--optimizer", "sgd-constant", "--iters", "10",
        "--out", str(tmp / "x.sdfm")],
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
        "chisq", "--potential", _beta_potential(tmp, blob), "--data", blob],
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

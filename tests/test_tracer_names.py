"""The benchmark tracer resolves every package name it wraps and counts.

``perfbench/tracing.py`` looks up each ``(module, attribute)`` of its
``NAMED`` table and every entry of the traced modules' ``__all__`` by
name, so a renamed or deleted function breaks the traced benchmark run.
Its counters read positional arguments and return values of the traced
calls, so a changed signature breaks them too; the tiny recipe below
runs every counter the per-layer metrics rely on. ``perfbench`` is not a
package: the module is loaded from its path.
"""

import importlib.util
from pathlib import Path

from sdfm import semidual
from sdfm.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_resolves_every_traced_name():
    _tracing().Tracer()  # raises AttributeError on a stale name


def _tiny_recipe_stats(tmp_path):
    """Per-name counters of the tiny traced recipe of every command."""
    def path(name):
        return str(tmp_path / name)

    data, pot, pot_eps = path("data.sdfm"), path("pot.sdfm"), path("eps.sdfm")
    train = ["train", "--data", data, "--steps", "5", "--batch", "16",
             "--hidden", "8", "--seed", "5"]
    recipe = [
        ("dataset", 0, ["dataset", "--name", "eight-gaussians", "--n", "64",
                        "--out", data]),
        ("solve", 3, ["solve", "--data", data, "--eps", "0", "--tau", "1e-9",
                      "--iters", "20", "--batch", "32", "--chi2-samples",
                      "256", "--out", pot]),
        ("assign", 0, ["assign", "--potential", pot, "--data", data,
                       "--sample", "32", "--out", path("pairs.sdfm")]),
        ("solve", 3, ["solve", "--data", data, "--eps", "0.5", "--tau",
                      "1e-9", "--iters", "20", "--batch", "32",
                      "--chi2-samples", "256", "--out", pot_eps]),
        ("assign", 0, ["assign", "--potential", pot_eps, "--data", data,
                       "--sample", "32", "--out", path("pairs_eps.sdfm")]),
        ("train_ifm", 0, [*train, "--coupling", "independent",
                          "--out", path("ifm.sdfm")]),
        ("train_sd", 0, [*train, "--coupling", "sd", "--potential", pot,
                         "--out", path("sd.sdfm")]),
        ("train_sinkhorn", 0, [*train, "--coupling", "minibatch-sinkhorn",
                               "--ot-eps", "0.3", "--out", path("sk.sdfm")]),
        ("train_hungarian", 0, [*train, "--coupling", "minibatch-hungarian",
                                "--out", path("hu.sdfm")]),
        ("sample", 0, ["sample", "--model", path("sd.sdfm"), "--count", "64",
                       "--steps", "4", "--out", path("s")]),
        ("eval", 0, ["eval", "--model", path("sd.sdfm"), "--count", "64",
                     "--steps", "4", "--out", path("report.json")]),
        ("guide", 0, ["guide", "--model1", path("sd.sdfm"), "--model2",
                      path("ifm.sdfm"), "--replicas", "4", "--count", "16",
                      "--steps", "4", "--out", path("g")]),
    ]
    tracer = _tracing().Tracer()
    for label, code, argv in recipe:
        assert tracer.command(label, main, argv) == code, label
    return tracer.stats


def test_tiny_traced_recipe_counts_every_layer(tmp_path):
    stats = _tiny_recipe_stats(tmp_path)
    # Four trainings of 5 steps x 16 rows; 2 x 32 assigned rows plus
    # SD-FM's 80.
    assert stats["flow.fm_loss_and_grad"]["rows"] == 4 * 5 * 16
    assert stats["flow.train_flow"]["steps"] == 4 * 5
    assert stats["coupling.assign_batch"]["pairs"] == 2 * 32 + 5 * 16
    # Only the eps>0 solve and assign take the softmax: 20 steps of 32
    # rows, a 256-row check at iterations 0 and 20, and 32 assigned rows,
    # each row scored against the 64 points.
    eps_entries = (20 * 32 + 2 * 256 + 32) * 64
    assert stats["numerics.softmax_rows"]["calls"] > 0
    assert stats["numerics.softmax_rows"]["entries"] == eps_entries
    # The eps>0 exponents come from the traced score matmul too: its
    # entries hold those rows, the eps=0 solve's and assign's as many, and
    # SD-FM's 80, plus any float64 re-check of eps=0 near-ties.
    assert stats["semidual.coupling_scores"]["entries"] >= \
        2 * eps_entries + 5 * 16 * 64
    # The eps=0 solve and assign reduce through the traced eps=0 reducer.
    assert stats["numerics.eps0_column_stats"]["calls"] > 0
    assert stats["coupling.hungarian"]["calls"] == 5
    assert stats["coupling.hungarian"]["n"] == 5 * 16
    assert stats["coupling.sinkhorn"]["calls"] == 5
    # The five minibatch solves' sweep count, pinned: the scaling form runs
    # the log-domain loop's iterates, and a change to them shows up here.
    # It is pinned to the training streams too, which draw each step's
    # noise and times from one generator.
    assert stats["coupling.sinkhorn"]["sweeps"] == 233
    assert stats["solver.solve_sdot"]["iterations"] == 2 * 20
    # sample and eval: 4 Euler steps of 64 rows; guide: 4 steps of two
    # models on 16 x 4 replica rows.
    assert stats["flow.velocity"]["calls"] == 16
    assert stats["flow.velocity"]["rows"] == 1024


def test_velocity_counts_one_call_per_run_block_at_any_block_size(
        tmp_path, monkeypatch):
    # Width 8: blocks of 3 rows. sample and eval run their 64 rows in 22
    # blocks of the field's size, one call per block and Euler step; a
    # call is counted once however many field blocks it spans (guide's 16
    # x 4 replica rows, one call per step and model), and every row once.
    monkeypatch.setattr(semidual, "SCORE_CHUNK_BYTES", 8 * 8 * 3)
    stats = _tiny_recipe_stats(tmp_path)
    assert stats["flow.velocity"]["calls"] == 2 * 22 * 4 + 2 * 4
    assert stats["flow.velocity"]["rows"] == 1024

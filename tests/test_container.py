import struct
import tracemalloc

import numpy as np
import pytest

from sdfm import artifacts, cli
from sdfm.container import (
    CONTAINER_VERSION,
    ContainerError,
    MetricsWriter,
    read_container,
    write_container,
)
from sdfm.costs import NEG_DOT, CostConfig, ProjectionMatrix, fit_pca
from sdfm.flow import FlowModel
from sdfm.numerics import Rng
from sdfm.semidual import Potential, TargetMeasure


class TestContainerRoundTrip:
    def test_bit_exact_arrays(self, tmp_path):
        path = str(tmp_path / "x.sdfm")
        gen = Rng(0).generator()
        arrays = {
            "a": gen.standard_normal((7, 3)),
            "b": gen.integers(0, 100, size=11).astype(np.int64),
            "c": gen.standard_normal(5).astype(np.float32),
        }
        write_container(path, "dataset", arrays, {"note": "hello"})
        kind, meta, out = read_container(path)
        assert kind == "dataset" and meta["note"] == "hello"
        for name, arr in arrays.items():
            assert out[name].dtype == arr.dtype
            np.testing.assert_array_equal(out[name], arr)

    @pytest.mark.parametrize("dtype", ["int32", "bool", "float16", ">f8"])
    def test_other_dtypes_are_stored_as_float64(self, tmp_path, dtype):
        # The fingerprint hashes the stored bytes, not the array passed in.
        path = str(tmp_path / "x.sdfm")
        points = np.arange(12).reshape(6, 2).astype(dtype)
        write_container(path, "dataset", {"points": points})
        out = read_container(path)[2]["points"]
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, points.astype(np.float64))
        artifacts.save_dataset(path, points)
        np.testing.assert_array_equal(artifacts.load_dataset(path)[0], out)

    def test_reads_are_read_only_views(self, tmp_path):
        path = str(tmp_path / "x.sdfm")
        write_container(path, "dataset", {"points": np.ones((4, 2)),
                                          "weights": np.full(4, 0.25)})
        for arr in read_container(path)[2].values():
            assert not arr.flags.writeable
        prefix = str(tmp_path / "s")
        artifacts.save_sample_dump(prefix, np.ones((3, 2)))
        assert not artifacts.load_sample_dump(prefix).flags.writeable

    def test_rewrite_is_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.sdfm")
        b = str(tmp_path / "b.sdfm")
        arrays = {"g": np.linspace(0, 1, 17)}
        write_container(a, "potential", arrays, {"k": 1})
        write_container(b, "potential", arrays, {"k": 1})
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sdfm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ContainerError, match="magic"):
            read_container(str(path))

    def test_version_mismatch_fails_closed(self, tmp_path):
        path = str(tmp_path / "v.sdfm")
        write_container(path, "dataset", {"points": np.zeros((2, 2))})
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = struct.pack("<I", CONTAINER_VERSION + 1)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ContainerError, match="version"):
            read_container(path)

    def test_payload_tamper_detected(self, tmp_path):
        path = str(tmp_path / "t.sdfm")
        write_container(path, "dataset", {"points": np.ones((4, 2))})
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ContainerError, match="fingerprint"):
            read_container(path)

    def test_kind_check(self, tmp_path):
        path = str(tmp_path / "k.sdfm")
        write_container(path, "model", {"theta": np.zeros(3)})
        with pytest.raises(ContainerError, match="kind"):
            read_container(path, expect_kind="dataset")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ContainerError):
            write_container(str(tmp_path / "u.sdfm"), "mystery", {})


class TestArtifacts:
    def test_potential_round_trip(self, tmp_path):
        gen = Rng(1).generator()
        raw = gen.standard_normal((32, 6))
        proj = fit_pca(raw, 3)
        target = TargetMeasure.from_points(raw)
        cost = CostConfig(kind=NEG_DOT, eps_raw=0.1,
                          projection=proj).with_rescaled_eps(2.0)
        pot = Potential(g=gen.standard_normal(32), target=target, cost=cost,
                        provenance={"iterations": 5})
        path = str(tmp_path / "pot.sdfm")
        artifacts.save_potential(path, pot)
        loaded = artifacts.load_potential(path, target)
        np.testing.assert_array_equal(loaded.g, pot.g)
        assert loaded.cost.eps == pytest.approx(0.2)
        np.testing.assert_array_equal(loaded.cost.projection.basis, proj.basis)
        assert loaded.provenance["iterations"] == 5

    def test_unconditional_containers_of_earlier_versions_load(self, tmp_path):
        # Earlier versions wrote "beta": 0.0 and "cond_dim": 0 metadata.
        target = TargetMeasure.from_points([[0.0, 1.0], [2.0, 3.0]])
        pot_path = str(tmp_path / "pot.sdfm")
        cost = {"kind": NEG_DOT, "beta": 0.0, "eps_raw": 0.0,
                "eps_effective": 0.0, "cost_std": None, "projection_k": None}
        write_container(pot_path, "potential", {"g": np.array([0.5, -0.5])},
                        {"target_fingerprint": target.fingerprint,
                         "cost": cost})
        pot = artifacts.load_potential(pot_path, target)
        np.testing.assert_array_equal(pot.g, [0.5, -0.5])
        model = FlowModel(dim=2, hidden=(3,), rng=Rng(6))
        model_path = str(tmp_path / "m.sdfm")
        write_container(model_path, "model", {"theta": model.theta},
                        {"dim": 2, "cond_dim": 0, "sizes": model.sizes})
        np.testing.assert_array_equal(
            artifacts.load_model(model_path).theta, model.theta)

    def test_potential_fingerprint_guard(self, tmp_path):
        target = TargetMeasure.from_points([[0.0], [1.0]])
        other = TargetMeasure.from_points([[0.0], [2.0]])
        pot = Potential(g=np.zeros(2), target=target,
                        cost=CostConfig(kind=NEG_DOT))
        path = str(tmp_path / "pot.sdfm")
        artifacts.save_potential(path, pot)
        with pytest.raises(ContainerError, match="fingerprint"):
            artifacts.load_potential(path, other)

    def test_model_round_trip(self, tmp_path):
        model = FlowModel(dim=3, hidden=(8, 4), rng=Rng(3))
        path = str(tmp_path / "m.sdfm")
        artifacts.save_model(path, model)
        loaded = artifacts.load_model(path)
        assert loaded.sizes == model.sizes
        np.testing.assert_array_equal(loaded.theta, model.theta)

    def test_sample_dump_round_trip(self, tmp_path):
        data = Rng(4).generator().standard_normal((9, 2))
        prefix = str(tmp_path / "samples")
        bin_path, json_path = artifacts.save_sample_dump(prefix, data,
                                                         {"seed": 4})
        out = artifacts.load_sample_dump(bin_path)
        np.testing.assert_array_equal(out, data)

    def test_dataset_round_trip(self, tmp_path):
        gen = Rng(5).generator()
        pts = gen.standard_normal((6, 2))
        path = str(tmp_path / "d.sdfm")
        artifacts.save_dataset(path, pts)
        out_pts, out_w, _ = artifacts.load_dataset(path)
        np.testing.assert_array_equal(out_pts, pts)
        assert out_w is None


def _traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_io_makes_no_payload_copies(tmp_path):
    # A 16384 x 32 dataset holds 4 MiB of points. Saving it hashes and
    # writes that buffer; loading the target holds the bytes read and the
    # (d + 1, N) lifted support, 4 + 4.125 MiB, with no third copy.
    mib = 2**20
    points = Rng(7).generator().standard_normal((16384, 32))
    path = str(tmp_path / "d.sdfm")
    assert _traced_peak(artifacts.save_dataset, path, points) <= 1 * mib
    assert _traced_peak(cli._load_target, path) <= 9 * mib


class TestMetricsWriter:
    def test_schema_and_rows(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        w = MetricsWriter(str(csv_path), str(tmp_path / "m.json"))
        w.log(0, "loss", 1.5)
        w.log(10, "loss", 0.5, wall_ms=3.2)
        w.finalize({"cfg": {"seed": 1}})
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "step,wall_ms,metric,value"
        assert len(lines) == 3
        assert lines[2].startswith("10,3.200,loss,")

    def test_monotone_step_enforced(self, tmp_path):
        w = MetricsWriter(str(tmp_path / "m.csv"), str(tmp_path / "m.json"))
        w.log(5, "chi2", 1.0)
        with pytest.raises(ValueError, match="monotone"):
            w.log(4, "chi2", 0.9)
        w.log(5, "other", 2.0)  # independent series unaffected

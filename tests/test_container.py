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


def _hand_built(kind=b"dataset", meta=b"{}", tail=b"\x00\x00\x00\x00"):
    """Container bytes up to the array count, then ``tail``."""
    return (b"SDFM" + struct.pack("<II", CONTAINER_VERSION, len(kind)) + kind
            + struct.pack("<I", len(meta)) + meta + tail)


def _one_array(dims, data=b"", ndim=None):
    """Container bytes of one float64 array ``x`` that claims ``ndim``
    dimensions (default ``len(dims)``), then ``dims`` and ``data``."""
    ndim = len(dims) if ndim is None else ndim
    return _hand_built(tail=struct.pack("<II", 1, 1) + b"x"
                       + struct.pack(f"<BI{len(dims)}Q", 8, ndim, *dims) + data)


class TestMalformedContainers:
    def test_every_truncation_is_refused(self, tmp_path):
        # Cut at every offset, inside the header fields and the payload
        # alike: each read fails closed, never with a struct or numpy error.
        path = tmp_path / "d.sdfm"
        artifacts.save_dataset(str(path), np.arange(6.0).reshape(3, 2),
                               np.full(3, 1 / 3), {"name": "cut"})
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ContainerError):
                read_container(str(path))

    # The shape cells hold every byte their shape implies (none at zero
    # size), so only numpy's own limits on an array refuse them.
    @pytest.mark.parametrize("raw, reason", [
        (_hand_built(meta=b"[]"), "not an object"),
        (_hand_built(meta=b'{"a": '), "malformed JSON"),
        (_hand_built(meta=b'{"\xff": 1}'), "malformed JSON"),
        (_hand_built(kind=b"\xffdataset"), "not UTF-8"),
        (_hand_built(tail=struct.pack("<II", 1, 2) + b"\xff\xfe"), "not UTF-8"),
        (_one_array((1,) * 65, b"\x00" * 8), "numpy cannot hold"),
        (_one_array((0, 2**63)), "numpy cannot hold"),
        (_one_array((0, 2**62, 4)), "numpy cannot hold"),
    ], ids=["meta-list", "meta-cut", "meta-not-utf8", "kind-not-utf8",
            "name-not-utf8", "shape-65-dims", "shape-zero-size-dim-2**63",
            "shape-zero-size-extent-2**65"])
    def test_malformed_fields_are_refused(self, tmp_path, raw, reason):
        path = tmp_path / "m.sdfm"
        path.write_bytes(raw)
        with pytest.raises(ContainerError, match=reason):
            read_container(str(path))

    @pytest.mark.parametrize("ndim, dims", [(2, (2**40, 2**40)),
                                            (2**32 - 1, ())])
    def test_claimed_sizes_are_checked_before_the_read(self, tmp_path, ndim,
                                                       dims):
        # A shape of 2**80 float64 values, or 2**32 - 1 dimensions, in a
        # file of a few dozen bytes: refused as truncated, with nothing
        # of the claimed size allocated.
        path = tmp_path / "big.sdfm"
        path.write_bytes(_one_array(dims, ndim=ndim))
        assert _traced_peak(self._refused, str(path)) < 2**20

    @staticmethod
    def _refused(path):
        with pytest.raises(ContainerError, match="truncated"):
            read_container(path)


class TestSampleDumpNames:
    @pytest.mark.parametrize("name", ["s", "s.bin", "s.json"])
    def test_every_dump_name_reaches_the_same_two_files(self, tmp_path, name):
        data = np.arange(6.0).reshape(3, 2)
        stem = str(tmp_path / "s")
        assert artifacts.save_sample_dump(str(tmp_path / name), data) == (
            stem + ".bin", stem + ".json")
        for other in ("s", "s.bin", "s.json"):
            np.testing.assert_array_equal(
                artifacts.load_sample_dump(str(tmp_path / other)), data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.bin", "s.json"]

"""Binary artifact container and run-metrics emission.

One container format carries every artifact kind behind a ``kind`` tag.
Byte layout (all integers little-endian):

    magic      4 bytes  b"SDFM"
    version    u32      format version (currently 1)
    kind_len   u32      length of the kind tag
    kind       UTF-8    one of dataset | potential | model | pairs
    meta_len   u32      length of the JSON metadata block
    metadata   UTF-8    JSON object; carries the payload fingerprint
    n_arrays   u32
    per array:
        name_len u32, name UTF-8
        dtype    u8     4 = float32, 8 = float64, 1 = int64
        ndim     u32, dims u64 * ndim
        data     raw little-endian array bytes (row-major)

Round trips are bit-exact; the metadata fingerprint is the sha256 of the
concatenated payload bytes, so corrupt or mismatched payloads fail
closed. Version mismatches raise, they never misread payloads.

Run metrics are a CSV of ``step, wall_ms, metric, value`` rows (step is
monotone per metric name) plus a JSON summary echoing the config.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = [
    "ContainerError",
    "write_container",
    "read_container",
    "is_container",
    "MetricsWriter",
    "CONTAINER_VERSION",
    "KINDS",
]

MAGIC = b"SDFM"
CONTAINER_VERSION = 1
KINDS = ("dataset", "potential", "model", "pairs")

_DTYPE_CODES = {
    np.dtype(np.float32): 4,
    np.dtype(np.float64): 8,
    np.dtype(np.int64): 1,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class ContainerError(ValueError):
    """Malformed, mismatched, or corrupt container file."""


def _payload_fingerprint(arrays: Dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def write_container(path: str, kind: str, arrays: Dict[str, np.ndarray],
                    metadata: Optional[dict] = None) -> None:
    """Atomically write a container (temp file + rename)."""
    if kind not in KINDS:
        raise ContainerError(f"unknown container kind {kind!r}")
    meta = dict(metadata or {})
    meta["fingerprint"] = _payload_fingerprint(arrays)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    kind_bytes = kind.encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sdfm-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", CONTAINER_VERSION))
            fh.write(struct.pack("<I", len(kind_bytes)))
            fh.write(kind_bytes)
            fh.write(struct.pack("<I", len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                a = np.ascontiguousarray(arrays[name])
                if a.dtype not in _DTYPE_CODES:
                    a = a.astype(np.float64)
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<B", _DTYPE_CODES[a.dtype]))
                fh.write(struct.pack("<I", a.ndim))
                for dim in a.shape:
                    fh.write(struct.pack("<Q", dim))
                fh.write(a.astype(a.dtype.newbyteorder("<")).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def is_container(path: str) -> bool:
    """Whether ``path`` is a file that starts with the container magic."""
    if not os.path.isfile(path):
        return False
    with open(path, "rb") as fh:
        return fh.read(len(MAGIC)) == MAGIC


def read_container(path: str, expect_kind: Optional[str] = None):
    """Read ``(kind, metadata, arrays)``; validates magic, version, hash."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ContainerError(f"{path}: bad magic, not a container file")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CONTAINER_VERSION:
            raise ContainerError(
                f"{path}: unsupported container version {version} "
                f"(expected {CONTAINER_VERSION})"
            )
        (kind_len,) = struct.unpack("<I", fh.read(4))
        kind = fh.read(kind_len).decode("utf-8")
        (meta_len,) = struct.unpack("<I", fh.read(4))
        metadata = json.loads(fh.read(meta_len).decode("utf-8"))
        (n_arrays,) = struct.unpack("<I", fh.read(4))
        arrays = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<I", fh.read(4))
            name = fh.read(name_len).decode("utf-8")
            (code,) = struct.unpack("<B", fh.read(1))
            if code not in _CODE_DTYPES:
                raise ContainerError(f"{path}: unknown dtype code {code}")
            dtype = _CODE_DTYPES[code]
            (ndim,) = struct.unpack("<I", fh.read(4))
            shape = struct.unpack("<" + "Q" * ndim, fh.read(8 * ndim))
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise ContainerError(f"{path}: truncated payload for {name!r}")
            arrays[name] = np.frombuffer(raw, dtype=dtype.newbyteorder("<")) \
                .astype(dtype).reshape(shape)
    stored = metadata.get("fingerprint")
    actual = _payload_fingerprint(arrays)
    if stored != actual:
        raise ContainerError(f"{path}: payload fingerprint mismatch")
    if expect_kind is not None and kind != expect_kind:
        raise ContainerError(
            f"{path}: container kind {kind!r}, expected {expect_kind!r}"
        )
    return kind, metadata, arrays


@dataclass
class MetricsWriter:
    """Appends ``step, wall_ms, metric, value`` rows; JSON summary at close.

    Steps must be monotone per metric name; violations raise, keeping
    emitted series plot-ready without sorting. The CSV stays open between
    rows: :meth:`finalize`, :meth:`close` or leaving a ``with`` block
    flushes every logged row to disk and closes it.
    """

    csv_path: str
    json_path: Optional[str] = None
    _last_step: Dict[str, int] = field(default_factory=dict)
    _n_rows: int = 0

    def __post_init__(self):
        self._fh = open(self.csv_path, "w", newline="")
        self._csv = csv.writer(self._fh)
        self._csv.writerow(["step", "wall_ms", "metric", "value"])

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def log(self, step: int, metric: str, value: float,
            wall_ms: float = 0.0) -> None:
        last = self._last_step.get(metric)
        if last is not None and step < last:
            raise ValueError(
                f"non-monotone step for metric {metric!r}: {step} < {last}"
            )
        self._last_step[metric] = step
        self._n_rows += 1
        self._csv.writerow([step, f"{wall_ms:.3f}", metric, repr(float(value))])

    def close(self) -> None:
        self._fh.close()

    def finalize(self, summary: Optional[dict] = None) -> None:
        self.close()
        if self.json_path is None:
            return
        payload = {"summary": summary or {}, "n_rows": self._n_rows}
        with open(self.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)

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

Round trips are bit-exact (other dtypes are stored as float64); the
sha256 fingerprint of the stored payload bytes makes corrupt payloads
fail closed, as do version mismatches. Reads return read-only views.

Run metrics are a CSV of ``step, wall_ms, metric, value`` rows (step is
monotone per metric name) plus a JSON summary echoing the config.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
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

_DTYPE_CODES = {np.dtype("<f4"): 4, np.dtype("<f8"): 8, np.dtype("<i8"): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
# The arrays numpy can hold: at most this many dimensions, and a product
# of the nonzero dimensions and the item size that fits a signed index.
_MAX_NDIM = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32
_MAX_EXTENT = np.iinfo(np.intp).max


class ContainerError(ValueError):
    """Malformed, mismatched, or corrupt container file."""


def _stored(a) -> np.ndarray:
    """``a`` as the C-ordered array it is stored as: a view if it is one."""
    dtype = np.asarray(a).dtype.newbyteorder("<")
    return np.ascontiguousarray(a, dtype=dtype if dtype in _DTYPE_CODES else "<f8")


def _payload_fingerprint(arrays: Dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(str(arrays[name].shape).encode())
        h.update(arrays[name])
    return h.hexdigest()


def write_container(path: str, kind: str, arrays: Dict[str, np.ndarray],
                    metadata: Optional[dict] = None) -> None:
    """Atomically write a container (temp file + rename) of stored buffers."""
    if kind not in KINDS:
        raise ContainerError(f"unknown container kind {kind!r}")
    stored = {name: _stored(arrays[name]) for name in sorted(arrays)}
    meta = dict(metadata or {})
    meta["fingerprint"] = _payload_fingerprint(stored)
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
            fh.write(struct.pack("<I", len(stored)))
            for name, a in stored.items():
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<B", _DTYPE_CODES[a.dtype]))
                fh.write(struct.pack("<I", a.ndim))
                for dim in a.shape:
                    fh.write(struct.pack("<Q", dim))
                fh.write(a)
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


def _json_object(path: str, raw: bytes) -> dict:
    """``raw`` parsed as a UTF-8 JSON object; anything else is refused."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ContainerError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ContainerError(f"{path}: JSON {type(value).__name__}, not an object")
    return value


def read_container(path: str, expect_kind: Optional[str] = None):
    """Read ``(kind, metadata, arrays)``; validates magic, version, hash.
    The arrays are read-only views: a caller that writes must copy first.

    Every field is cut by one helper that refuses to read past the end of
    the file, so the byte count a header or shape implies is checked before
    it is read. A short file, text that is not UTF-8 and metadata that is
    not a JSON object all raise :class:`ContainerError`, as does a shape
    that numpy cannot hold, even one of zero size. Each array is its
    own read, so its data is as aligned as a ``bytes`` object's; views into
    one read of the whole file would sit at the header's odd offsets, where
    numpy sums in other blocks and so gives other bits.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ContainerError(f"{path}: bad magic, not a container file")
        left = os.fstat(fh.fileno()).st_size - len(MAGIC)

        def take(n: int) -> bytes:
            nonlocal left
            if n > left:
                raise ContainerError(
                    f"{path}: truncated, {n} bytes wanted and {left} left")
            left -= n
            return fh.read(n)

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        version = u32()
        if version != CONTAINER_VERSION:
            raise ContainerError(
                f"{path}: unsupported container version {version} "
                f"(expected {CONTAINER_VERSION})"
            )
        try:
            kind = take(u32()).decode("utf-8")
            metadata = _json_object(path, take(u32()))
            arrays = {}
            for _ in range(u32()):
                name = take(u32()).decode("utf-8")
                code = take(1)[0]
                if code not in _CODE_DTYPES:
                    raise ContainerError(f"{path}: unknown dtype code {code}")
                dtype = _CODE_DTYPES[code]
                ndim = u32()
                shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
                raw = take(math.prod(shape) * dtype.itemsize)
                extent = math.prod(max(n, 1) for n in shape) * dtype.itemsize
                if ndim > _MAX_NDIM or extent > _MAX_EXTENT:
                    raise ContainerError(f"{path}: array {name!r} has a shape "
                                         f"numpy cannot hold ({ndim} dimensions)")
                arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        except UnicodeDecodeError as exc:
            raise ContainerError(f"{path}: text field is not UTF-8: {exc}") from None
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
    emitted series plot-ready without sorting; ``totals`` sums each
    metric's rows. The CSV stays open between rows: :meth:`flush` puts
    them on disk, :meth:`finalize`, :meth:`close` or leaving a ``with``
    block also closes it. The summary gains ``rss_hwm_mb``, the process's
    resident-memory high-water mark at :meth:`finalize` (``ru_maxrss``) in
    MiB.
    """

    csv_path: str
    json_path: str
    _last_step: Dict[str, int] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)
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
        self.totals[metric] = self.totals.get(metric, 0.0) + float(value)
        self._n_rows += 1
        self._csv.writerow([step, f"{wall_ms:.3f}", metric, repr(float(value))])

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def finalize(self, summary: Optional[dict] = None) -> None:
        self.close()
        hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        payload = {"summary": {**(summary or {}), "rss_hwm_mb": hwm},
                   "n_rows": self._n_rows}
        with open(self.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)

"""Typed save/load of package objects on top of the container format.

Containers written by earlier versions for conditional generation (a
dataset with a condition per point, a potential of a condition-augmented
cost, a model with condition inputs) are refused with a
:class:`~sdfm.container.ContainerError`, never read as unconditional.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

import numpy as np

from .container import (
    ContainerError,
    _json_object,
    read_container,
    write_container,
)
from .costs import CostConfig, ProjectionMatrix
from .flow import FlowModel
from .semidual import Potential, TargetMeasure

__all__ = [
    "save_dataset",
    "load_dataset",
    "save_potential",
    "load_potential",
    "save_model",
    "load_model",
    "save_pairs",
    "save_sample_dump",
    "load_sample_dump",
]


def _unsupported(path: str, what: str) -> ContainerError:
    return ContainerError(f"{path}: {what}; conditional generation is not supported")


def _require(path: str, what: str, fields: dict, *keys: str) -> None:
    """Refuse a container whose ``what`` lacks one of ``keys``."""
    for key in keys:
        if key not in fields:
            raise ContainerError(f"{path}: {what} lacks {key!r}")


def _number(path: str, key: str, value, integral: bool = False):
    """Metadata field ``key``: a JSON number, integral if ``integral``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integral and not float(value).is_integer()):
        raise ContainerError(f"{path}: {key} is {value!r}, not a "
                             f"{'whole ' if integral else ''}number")
    return int(value) if integral else float(value)


def _rows(path: str, what: str, points: np.ndarray) -> np.ndarray:
    """``points``, refused unless a 2-D array of at least one row and column."""
    if points.ndim != 2 or 0 in points.shape:
        raise ContainerError(f"{path}: {what} have shape {points.shape}, not "
                             f"at least one row of at least one coordinate")
    return points


def save_dataset(path: str, points: np.ndarray, weights=None,
                 metadata: Optional[dict] = None) -> None:
    arrays = {"points": np.asarray(points)}
    if weights is not None:
        arrays["weights"] = np.asarray(weights)
    write_container(path, "dataset", arrays, metadata)


def load_dataset(path: str):
    """Returns ``(points, weights or None, metadata)``; the arrays are
    read-only views of the container's bytes (copy before writing)."""
    _, meta, arrays = read_container(path, expect_kind="dataset")
    _require(path, "dataset container", arrays, "points")
    if "conditions" in arrays:
        raise _unsupported(path, "dataset has a condition per point")
    points = np.asarray(arrays["points"], dtype=np.float64)
    return _rows(path, "points", points), arrays.get("weights"), meta


def _projection_arrays(proj: Optional[ProjectionMatrix]) -> dict:
    if proj is None:
        return {}
    return {
        "projection_basis": proj.basis,
        "projection_mean": proj.mean,
        "projection_explained": proj.explained_variance,
    }


def _projection_from_arrays(arrays: dict, meta: dict) -> Optional[ProjectionMatrix]:
    if "projection_basis" not in arrays:
        return None
    return ProjectionMatrix(
        basis=arrays["projection_basis"],
        mean=arrays["projection_mean"],
        explained_variance=arrays.get(
            "projection_explained", np.zeros(arrays["projection_basis"].shape[0])
        ),
        padded=bool(meta.get("projection_padded", False)),
    )


def save_potential(path: str, pot: Potential) -> None:
    arrays = {"g": pot.g, **_projection_arrays(pot.cost.projection)}
    meta = {
        "target_fingerprint": pot.target.fingerprint,
        "cost": pot.cost.metadata(),
        "provenance": json.loads(json.dumps(pot.provenance, default=str)),
        "projection_padded": bool(
            pot.cost.projection.padded if pot.cost.projection else False
        ),
    }
    write_container(path, "potential", arrays, meta)


def load_potential(path: str, target: TargetMeasure) -> Potential:
    """Rebind a stored potential to its raw target (fingerprints must match)."""
    _, meta, arrays = read_container(path, expect_kind="potential")
    if meta.get("target_fingerprint") != target.fingerprint:
        raise ContainerError(
            f"{path}: potential was fitted to a different dataset "
            f"(fingerprint mismatch)"
        )
    _require(path, "potential container", {**meta, **arrays}, "g", "cost")
    cmeta = meta["cost"]
    _require(path, "potential cost", cmeta, "kind", "eps_raw")
    if _number(path, "cost.beta", cmeta.get("beta", 0.0)) > 0.0:
        raise _unsupported(path, "potential has a condition-augmented cost")
    std = cmeta.get("cost_std")
    cost = CostConfig(
        kind=cmeta["kind"],
        eps_raw=_number(path, "cost.eps_raw", cmeta["eps_raw"]),
        projection=_projection_from_arrays(arrays, meta),
        cost_std=None if std is None else _number(path, "cost.cost_std", std),
    )
    if cmeta.get("eps_effective") != cost.eps:
        raise ContainerError(
            f"{path}: stored eps_effective {cmeta.get('eps_effective')} is not "
            f"eps_raw * cost_std = {cost.eps}"
        )
    return Potential(g=arrays["g"], target=target, cost=cost,
                     provenance=meta.get("provenance", {}))


def save_model(path: str, model: FlowModel, metadata: Optional[dict] = None) -> None:
    meta = dict(metadata or {})
    meta.update(dim=model.dim, sizes=model.sizes)
    write_container(path, "model", {"theta": model.theta.astype(np.float64)},
                    meta)


def load_model(path: str) -> FlowModel:
    _, meta, arrays = read_container(path, expect_kind="model")
    if meta.get("cond_dim", 0):
        raise _unsupported(path, "model takes condition inputs")
    _require(path, "model container", {**meta, **arrays}, "theta", "dim", "sizes")
    if not isinstance(meta["sizes"], list):
        raise ContainerError(f"{path}: sizes is {meta['sizes']!r}, not a list")
    sizes = [_number(path, "sizes", s, integral=True) for s in meta["sizes"]]
    return FlowModel(dim=_number(path, "dim", meta["dim"], integral=True),
                     hidden=tuple(sizes[1:-1]), theta=arrays["theta"])


def save_pairs(path: str, noise: np.ndarray, indices: np.ndarray,
               points: np.ndarray, metadata: Optional[dict] = None) -> None:
    """Noise rows, their target indices, and the target points of those."""
    arrays = {"indices": np.asarray(indices, dtype=np.int64),
              "noise": noise, "points": points}
    write_container(path, "pairs", arrays, metadata)


def _dump_paths(name: str) -> Tuple[str, str]:
    """The ``.bin`` and ``.json`` files of the sample dump ``name``: ``X``,
    ``X.bin`` and ``X.json`` all name ``X.bin`` and ``X.json``."""
    stem = name[:-4] if name.endswith(".bin") else name.removesuffix(".json")
    return stem + ".bin", stem + ".json"


def save_sample_dump(name: str, samples: np.ndarray,
                     metadata: Optional[dict] = None) -> Tuple[str, str]:
    """Raw little-endian float64 matrix plus a JSON sidecar, at the two
    files of :func:`_dump_paths` (``name``), which are returned."""
    samples = np.ascontiguousarray(samples, dtype="<f8")
    bin_path, json_path = _dump_paths(name)
    with open(bin_path, "wb") as fh:
        fh.write(samples)
    sidecar = {
        "rows": int(samples.shape[0]),
        "cols": int(samples.shape[1]),
        "dtype": "float64-le",
        "order": "row-major",
    }
    sidecar.update(metadata or {})
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
    return bin_path, json_path


def load_sample_dump(name: str) -> np.ndarray:
    """The matrix of the sample dump ``name`` (``X``, ``X.bin`` or
    ``X.json``), a read-only view of the bytes read (copy before writing).
    A sidecar that is not a JSON object with whole ``rows`` and ``cols``,
    or a dump that disagrees with it, is refused."""
    bin_path, json_path = _dump_paths(name)
    with open(json_path, "rb") as fh:
        sidecar = _json_object(json_path, fh.read())
    with open(bin_path, "rb") as fh:
        raw = fh.read()
    _require(json_path, "sidecar", sidecar, "rows", "cols")
    rows, cols = (_number(json_path, key, sidecar[key], integral=True)
                  for key in ("rows", "cols"))
    if min(rows, cols) < 0 or len(raw) != rows * cols * 8:
        raise ContainerError(
            f"{bin_path}: {len(raw)} bytes, not the {rows} x {cols} float64 "
            f"values of its sidecar"
        )
    return _rows(bin_path, "samples",
                 np.frombuffer(raw, dtype="<f8").reshape(rows, cols))

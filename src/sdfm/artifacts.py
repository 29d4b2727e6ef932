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

from .container import ContainerError, read_container, write_container
from .costs import CostConfig, ProjectionMatrix
from .coupling import PairBatch
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


def save_dataset(path: str, points: np.ndarray, weights=None,
                 metadata: Optional[dict] = None) -> None:
    arrays = {"points": np.asarray(points)}
    if weights is not None:
        arrays["weights"] = np.asarray(weights)
    write_container(path, "dataset", arrays, metadata)


def load_dataset(path: str):
    """Returns ``(points, weights or None, metadata)``."""
    _, meta, arrays = read_container(path, expect_kind="dataset")
    if "points" not in arrays:
        raise ContainerError(f"{path}: dataset container lacks 'points'")
    if "conditions" in arrays:
        raise _unsupported(path, "dataset has a condition per point")
    return (
        np.asarray(arrays["points"], dtype=np.float64),
        arrays.get("weights"),
        meta,
    )


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
        "target_fingerprint": pot.target_fingerprint,
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
    cmeta = meta["cost"]
    if cmeta.get("beta", 0.0) > 0.0:
        raise _unsupported(path, "potential has a condition-augmented cost")
    cost = CostConfig(
        kind=cmeta["kind"],
        eps_raw=float(cmeta["eps_raw"]),
        eps_effective=float(cmeta["eps_effective"]),
        projection=_projection_from_arrays(arrays, meta),
        cost_std=cmeta.get("cost_std"),
    )
    return Potential(g=arrays["g"], target=target, cost=cost,
                     provenance=meta.get("provenance", {}))


def save_model(path: str, model: FlowModel, metadata: Optional[dict] = None) -> None:
    meta = dict(metadata or {})
    meta.update(dim=model.dim, sizes=model.sizes)
    write_container(path, "model", {"theta": model.get_theta()}, meta)


def load_model(path: str) -> FlowModel:
    _, meta, arrays = read_container(path, expect_kind="model")
    if meta.get("cond_dim", 0):
        raise _unsupported(path, "model takes condition inputs")
    sizes = [int(s) for s in meta["sizes"]]
    hidden = tuple(sizes[1:-1])
    model = FlowModel(dim=int(meta["dim"]), hidden=hidden)
    model.set_theta(arrays["theta"])
    return model


def save_pairs(path: str, batch: PairBatch, metadata: Optional[dict] = None) -> None:
    arrays = {
        "indices": batch.indices,
        "noise": batch.noise,
        "points": batch.points,
    }
    meta = dict(metadata or {})
    meta.update(provenance=batch.provenance, time_per_pair=batch.time_per_pair)
    write_container(path, "pairs", arrays, meta)


def save_sample_dump(prefix: str, samples: np.ndarray,
                     metadata: Optional[dict] = None) -> Tuple[str, str]:
    """Raw little-endian float64 matrix plus a JSON sidecar."""
    samples = np.ascontiguousarray(np.asarray(samples, dtype="<f8"))
    bin_path = prefix if prefix.endswith(".bin") else prefix + ".bin"
    json_path = bin_path[:-4] + ".json"
    with open(bin_path, "wb") as fh:
        fh.write(samples.tobytes())
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


def load_sample_dump(path: str) -> np.ndarray:
    bin_path = path if path.endswith(".bin") else path + ".bin"
    json_path = bin_path[:-4] + ".json"
    with open(json_path) as fh:
        sidecar = json.load(fh)
    with open(bin_path, "rb") as fh:
        raw = fh.read()
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return data.reshape(int(sidecar["rows"]), int(sidecar["cols"]))

"""Problem instances: a forward operator, a measurement, its noise levels,
and (optionally) the ground truth, with JSON + TNSR serialization."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from . import tnsr
from .config import config_dict, read_config, read_fields, require
from .noise import NoiseParams

__all__ = ["ProblemInstance", "operator_from_spec", "operator_to_spec",
           "save_instance", "load_instance"]


@dataclass
class ProblemInstance:
    op: ops.OperatorHandle
    y: np.ndarray
    noise: NoiseParams
    x: np.ndarray | None = None
    seed: int = 0


# a manifest's keys, each with a default of its type; operator, noise and
# data must be present
_MANIFEST = {"operator": {}, "noise": {}, "seed": 0, "data": "", "has_ground_truth": False}


def operator_to_spec(op: ops.OperatorHandle) -> tuple[dict, dict]:
    """Split an operator into a JSON-serializable spec and its defining
    arrays (stored separately in a TNSR container).  Only factory-built
    handles, those with a content key, define themselves this way."""
    if op.key is None:
        raise ValueError(f"operator kind {op.kind!r} is not serializable: only "
                         "factory-built operators, not derived ones, have a definition")
    kind = ops.KINDS[op.kind]
    spec = {"kind": op.kind, "domain_shape": list(op.domain_shape)}
    spec.update((f, op.spec[f]) for f in kind.spec_fields)
    arrays = {f"op.{name}": op.arrays[name] for name in kind.array_names}
    return spec, arrays


def operator_from_spec(spec: dict, arrays: dict, range_shape) -> ops.OperatorHandle:
    """Build the operator a spec and its arrays define.  The spec holds
    exactly ``kind`` (a name in :data:`operators.KINDS`), ``domain_shape``
    (three positive integers, matching the shape the arrays give) and that
    kind's spec fields, each of its type; anything else is a ValueError.
    The kind's range is checked against ``range_shape``, the shape of the
    measurement, before anything is built: a spec claiming a large domain
    for a small measurement costs nothing."""
    kind_name = spec.get("kind")
    if not (isinstance(kind_name, str) and kind_name in ops.KINDS):
        raise ValueError(f"unknown operator kind {kind_name!r}")
    kind = ops.KINDS[kind_name]
    fields = {"kind": kind_name, "domain_shape": (0,), **kind.spec_fields}
    what = f"{kind_name} operator"
    spec = require(read_fields(spec, fields, what), fields, what)
    shape = spec["domain_shape"]
    if not (len(shape) == 3 and min(shape) > 0):
        raise ValueError(f"domain_shape must be three positive integers, got {list(shape)}")
    arrays = {name: arrays[f"op.{name}"] for name in kind.array_names}
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"operator array {name!r} holds non-finite values")
    if kind.range_shape(shape, spec, arrays) != tuple(range_shape):
        raise ValueError("measurement shape inconsistent with operator spec")
    op = kind.build(shape, spec, arrays)
    if op.domain_shape != shape:
        raise ValueError(f"domain_shape {list(shape)} does not match the operator's "
                         f"{list(op.domain_shape)}")
    return op


def save_instance(path, inst: ProblemInstance) -> None:
    """Write a JSON manifest plus a sibling TNSR data file."""
    path = str(path)
    data_path = os.path.splitext(path)[0] + ".tnsr"
    op_spec, arrays = operator_to_spec(inst.op)
    entries = dict(arrays)
    entries["y"] = inst.y
    if inst.x is not None:
        entries["x"] = inst.x
    manifest = {"operator": op_spec, "noise": config_dict(inst.noise), "seed": inst.seed,
                "data": os.path.basename(data_path), "has_ground_truth": inst.x is not None}
    tnsr.save_tensors(data_path, entries)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    path = str(path)
    with open(path) as fh:
        manifest = require(read_fields(json.load(fh), _MANIFEST, "manifest"),
                           ("operator", "noise", "data"), "manifest")
    noise = read_config(NoiseParams, require(manifest["noise"], ("sigma", "gamma"), "noise"),
                        "noise")
    seed = manifest.get("seed", 0)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    entries = tnsr.load_tensors(os.path.join(os.path.dirname(path) or ".", manifest["data"]))
    y = entries["y"]
    op = operator_from_spec(manifest["operator"], entries, y.shape)
    x = entries.get("x")
    if x is not None and x.shape != op.domain_shape:
        raise ValueError("ground-truth shape inconsistent with operator spec")
    return ProblemInstance(op=op, y=y, noise=noise, x=x, seed=seed)

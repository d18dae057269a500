"""Configurations and the other outside documents (manifests, noise levels,
operator specs, task files) read from JSON objects and checkpoints.

A configuration's readable fields are its ``init`` dataclass fields, each
with a default; a value must have its default's type.  An int also passes
for a float (and becomes one; floats must be finite), a list for a tuple
(each item of the type of the default's first item), and a bool never
passes for a number.  Fields with ``init=False`` are run-time attributes
the caller sets, such as output paths, and are neither read nor written.
"""

from __future__ import annotations

import dataclasses
import sys

__all__ = ["config_dict", "read_config", "read_fields", "require", "typed"]


def config_dict(cfg) -> dict:
    """The readable fields of a configuration, by name."""
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.init}


def read_config(cls, d, what: str):
    """Build ``cls`` from a mapping of field names to values; fields left
    out keep their defaults."""
    return cls(**read_fields(d, config_dict(cls()), what))


def read_fields(d, defaults: dict, what: str) -> dict:
    """The entries of mapping ``d``, each typed by the default of its key.
    A non-mapping, an unknown key or a value of the wrong type raises
    ValueError naming ``what``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}; known keys {sorted(defaults)}")
    return {k: typed(v, defaults[k], f"{what} {k!r}") for k, v in d.items()}


def require(d: dict, keys, what: str) -> dict:
    """``d``, once it holds all of ``keys``; else ValueError naming ``what``."""
    missing = sorted(set(keys) - set(d))
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    return d


def typed(v, default, what: str):
    """``v`` as a value of ``default``'s type, by the rules above."""
    if isinstance(default, tuple) and isinstance(v, (list, tuple)):
        return tuple(typed(item, default[0], what) for item in v)
    if isinstance(default, float) and isinstance(v, (int, float)) and not isinstance(v, bool):
        if abs(v) <= sys.float_info.max:  # false for NaN, infinities and huge ints
            return float(v)
        raise ValueError(f"{what} must be a finite number, got {v!r}")
    if type(v) is type(default):
        return v
    raise ValueError(f"{what} must be {type(default).__name__}, got {v!r}")

"""Single-file binary tensor container and simple image export.

Layout: magic ``TNSR``, a version byte, a little-endian u32 entry count,
then per entry a u16 name length, the UTF-8 name, a dtype byte (0 = f32,
1 = f64), an ndim byte, u32 extents, and the raw row-major little-endian
data.  Round trips are bit-exact for float64 payloads.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

__all__ = ["save_tensors", "load_tensors", "write_pgm", "write_ppm"]

_MAGIC = b"TNSR"
_VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


def save_tensors(path, entries: dict) -> None:
    """Write a name -> array mapping; keys are stored in sorted order so
    output bytes are reproducible."""
    names = sorted(entries)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            # ascontiguousarray would promote 0-d scalars to shape (1,)
            arr = np.asarray(entries[name])
            arr = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
            if arr.dtype not in _CODES:
                arr = arr.astype(np.float64)
            code = _CODES[arr.dtype]
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError("entry name too long")
            if arr.ndim > 255:
                raise ValueError("too many axes")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", code, arr.ndim))
            for ext in arr.shape:
                fh.write(struct.pack("<I", ext))
            fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def _read(fh, size: int) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise ValueError("truncated file")
    return buf


def load_tensors(path) -> dict:
    """Read a file written by :func:`save_tensors`.  A truncated or
    malformed file raises ``ValueError``; each payload size is checked
    against the bytes left in the file before anything is allocated."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if _read(fh, 4) != _MAGIC:
            raise ValueError("not a TNSR file")
        (version,) = struct.unpack("<B", _read(fh, 1))
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        (count,) = struct.unpack("<I", _read(fh, 4))
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read(fh, 2))
            name = _read(fh, nlen).decode("utf-8")
            code, ndim = struct.unpack("<BB", _read(fh, 2))
            if code not in _DTYPES:
                raise ValueError(f"unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim))
            dt = _DTYPES[code]
            size = math.prod(shape) * dt.itemsize
            if size > end - fh.tell():
                raise ValueError("truncated file")
            out[name] = np.frombuffer(_read(fh, size), dtype=dt).reshape(shape).copy()
        return out


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Binary PGM (P5) from a (H, W) or (1, H, W) image in [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3 and img.shape[0] == 1:
        img = img[0]
    if img.ndim != 2:
        raise ValueError("PGM export expects a single-channel image")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_quantize(img).tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """Binary PPM (P6) from a (3, H, W) image in [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError("PPM export expects a 3-channel image")
    _, h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_quantize(np.moveaxis(img, 0, 2)).tobytes())

"""Trained-parameter serialization: versioned flat binary with a named-tensor
table."""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"MGKT"
VERSION = 1

_DTYPES = {"f8": np.float64, "f4": np.float32}
_CODES = {np.dtype(t): code.encode("ascii") for code, t in _DTYPES.items()}


class ParamsIOError(ValueError):
    pass


def save_params(path, values, meta=None):
    """Layout: magic, u32 version, u32 meta length + UTF-8 JSON meta,
    u32 tensor count, then per tensor: name (u16 len + bytes), dtype code
    (2 bytes), u8 ndim, u64 dims, raw little-endian data."""
    meta_blob = json.dumps(meta or {}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(values)))
        for name in sorted(values):
            arr = np.ascontiguousarray(values[name])
            code = _CODES.get(arr.dtype)
            if code is None:
                raise ParamsIOError(f"unsupported dtype {arr.dtype} for {name!r}")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(code)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def _read(fh, n):
    blob = fh.read(n)
    if len(blob) != n:
        raise ParamsIOError("truncated params file")
    return blob


def load_params(path):
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ParamsIOError("bad magic bytes")
        (version,) = struct.unpack("<I", _read(fh, 4))
        if version != VERSION:
            raise ParamsIOError(f"unsupported version {version}")
        (meta_len,) = struct.unpack("<I", _read(fh, 4))
        try:
            meta = json.loads(_read(fh, meta_len).decode("utf-8"))
            (count,) = struct.unpack("<I", _read(fh, 4))
            values = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", _read(fh, 2))
                name = _read(fh, name_len).decode("utf-8")
                code = _read(fh, 2).decode("ascii")
                if code not in _DTYPES:
                    raise ParamsIOError(f"unknown dtype code {code!r}")
                dtype = np.dtype(_DTYPES[code]).newbyteorder("<")
                (ndim,) = struct.unpack("<B", _read(fh, 1))
                shape = tuple(struct.unpack("<Q", _read(fh, 8))[0]
                              for _ in range(ndim))
                n_items = int(np.prod(shape)) if shape else 1
                raw = _read(fh, n_items * dtype.itemsize)
                values[name] = np.frombuffer(raw, dtype=dtype).reshape(
                    shape).astype(_DTYPES[code])
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParamsIOError(f"corrupt params file: {exc}") from exc
    return values, meta


def check_table(values, table):
    """Require `values` to hold exactly the tensors that the (name, shape)
    pairs of `table` list, each with its shape.

    The table is read lazily and rejected at its first name that `values`
    lacks, so a table far larger than the stored one is never built whole.
    """
    listed = set()
    wrong = []
    for name, shape in table:
        if name not in values:
            raise ParamsIOError(f"params do not match the model: missing {name}")
        listed.add(name)
        if np.shape(values[name]) != tuple(shape):
            wrong.append(f"{name} {np.shape(values[name])} != {tuple(shape)}")
    unexpected = sorted(set(values) - listed)
    if unexpected or wrong:
        raise ParamsIOError(f"params do not match the model: unexpected "
                            f"{unexpected}, wrong shape {wrong}")

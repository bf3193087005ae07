"""Versioned binary container: a JSON header followed by named arrays.

Model checkpoints are stored in it. Arrays are float64. Writing is fully
deterministic (sorted JSON keys, insertion-ordered tensors, little-endian
payloads), so identical state produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import IngestError

MAGIC = b"HSTN"
VERSION = 1

# Every array is stored as little-endian float64; its dtype code byte is 0.
_FLOAT64 = np.dtype("<f8")
_FLOAT64_CODE = 0


def write_container(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            canonical = np.ascontiguousarray(arr, dtype=_FLOAT64)
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<B", _FLOAT64_CODE))
            fh.write(struct.pack("<B", canonical.ndim))
            for dim in canonical.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(canonical.tobytes(order="C"))


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    view = memoryview(blob)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise IngestError(f"{path}: truncated container")
        chunk = view[offset:offset + n]
        offset += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise IngestError(f"{path}: not a container file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise IngestError(f"{path}: unsupported container version {version}")
    (header_len,) = struct.unpack("<Q", take(8))
    try:
        header = json.loads(bytes(take(header_len)).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise IngestError(f"{path}: corrupt container header: {exc}") from None
    if not isinstance(header, dict):
        raise IngestError(f"{path}: container header is not a JSON object")
    (n_arrays,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise IngestError(f"{path}: corrupt array name") from None
        (code,) = struct.unpack("<B", take(1))
        (ndim,) = struct.unpack("<B", take(1))
        if ndim > 32:  # numpy's dimension limit before 2.0
            raise IngestError(f"{path}: array {name!r} has {ndim} dimensions")
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        if code != _FLOAT64_CODE:
            raise IngestError(f"{path}: unknown dtype code {code} for array {name!r}")
        count = math.prod(shape)
        data = np.frombuffer(take(count * _FLOAT64.itemsize), dtype=_FLOAT64).reshape(shape)
        arrays[name] = data.copy()
    return header, arrays

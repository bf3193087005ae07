"""Versioned binary container: a JSON header, named arrays and a sha256 trailer.

Checkpoints and the grid caches of record files are stored in it. Arrays
are float64. Writing is deterministic (sorted JSON keys, insertion-ordered
tensors, little-endian payloads), so identical state gives identical bytes.
The trailer hashes every byte before it: a changed, cut or added byte, like
a file of another version, is an `IngestError`.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import IngestError

MAGIC = b"HSTN"
VERSION = 2

# Every array is stored as little-endian float64; its dtype code byte is 0.
_FLOAT64 = np.dtype("<f8")
_FLOAT64_CODE = 0


def write_container(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    with Path(path).open("wb") as fh:
        def put(data) -> None:  # bytes, or an array's buffer, hashed as written
            digest.update(data)
            fh.write(data)

        put(MAGIC + struct.pack("<IQ", VERSION, len(header_bytes)) + header_bytes
            + struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            canonical = np.ascontiguousarray(arr, dtype=_FLOAT64)
            name_bytes = name.encode("utf-8")
            put(struct.pack(f"<H{len(name_bytes)}sBB{canonical.ndim}Q", len(name_bytes),
                            name_bytes, _FLOAT64_CODE, canonical.ndim, *canonical.shape))
            put(canonical)
        fh.write(digest.digest())


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
        raise IngestError(f"{path}: unsupported container version {version}; expected {VERSION}")
    (header_len,) = struct.unpack("<Q", take(8))
    try:
        header = json.loads(bytes(take(header_len)).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
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
    body, trailer = offset, bytes(take(32))  # the sha256 trailer
    if offset != len(view):
        raise IngestError(f"{path}: {len(view) - offset} bytes after the container's end")
    if hashlib.sha256(view[:body]).digest() != trailer:
        raise IngestError(f"{path}: container checksum mismatch: the file is damaged")
    return header, arrays

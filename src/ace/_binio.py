"""Self-describing checksummed binary container.

Layout: 8-byte magic, 32-byte sha256 of everything that follows, 8-byte
little-endian header length, JSON header, raw little-endian array
payload in header order. Arrays are float64 or int64, C order. Used for
dataset files, model manifests, and trainer checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

MAGIC = b"ACEBIN01"

_DTYPES = {"float64": "<f8", "int64": "<i8"}


class ContainerError(ValueError):
    """Corrupt, truncated, or foreign container file."""


def write_container(path, meta: dict, arrays: dict) -> None:
    """Write ``meta`` (JSON-able) plus named arrays; deterministic bytes."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        shape = np.asarray(arr).shape
        arr = np.ascontiguousarray(arr).reshape(shape)
        if arr.dtype == np.int64:
            dtype = "int64"
        else:
            arr = arr.astype(np.float64, copy=False)
            dtype = "float64"
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        blobs.append(arr.astype(_DTYPES[dtype]).tobytes(order="C"))
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    body = len(header).to_bytes(8, "little") + header + b"".join(blobs)
    digest = hashlib.sha256(body).digest()
    # renamed over ``path`` only once complete: an interrupted write leaves
    # the previous file as it was
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + digest + body)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_container(path):
    """Return (meta, arrays) after magic and checksum validation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 48 or raw[:8] != MAGIC:
        raise ContainerError(f"{path}: not an ACE container (bad magic)")
    digest, body = raw[8:40], raw[40:]
    if hashlib.sha256(body).digest() != digest:
        raise ContainerError(f"{path}: checksum mismatch, payload corrupt")
    header_len = int.from_bytes(body[:8], "little")
    try:
        header = json.loads(body[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: unreadable header ({exc})") from exc
    arrays = {}
    offset = 8 + header_len
    for entry in header["arrays"]:
        dtype = _DTYPES[entry["dtype"]]
        count = int(np.prod(entry["shape"], dtype=np.int64)) if entry["shape"] else 1
        nbytes = count * 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ContainerError(f"{path}: truncated payload at array {entry['name']}")
        arr = np.frombuffer(chunk, dtype=dtype).reshape(entry["shape"]).copy()
        if entry["dtype"] == "int64":
            arr = arr.astype(np.int64)
        arrays[entry["name"]] = arr
        offset += nbytes
    if offset != len(body):
        raise ContainerError(f"{path}: {len(body) - offset} trailing bytes")
    return header["meta"], arrays

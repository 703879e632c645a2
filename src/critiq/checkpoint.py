"""Binary checkpoint container: an ordered bag of named float tensors.

Layout (all integers little-endian):

    magic           4 bytes  b"VILA"
    version         u32      currently 1
    tensor count    u32
    per tensor:
        name length u32, UTF-8 name
        rank        u32, dims u32 each
        dtype tag   u8 (0 = float32, 1 = float64)
        raw little-endian values

The same container backs model checkpoints (with optimizer state under the
reserved "opt/" prefix and scalar metadata under "meta/"), adapter states,
and prompt embedding caches (tensor name = prompt text).
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Callable

import numpy as np

from .util import write_atomic

MAGIC = b"VILA"
VERSION = 1

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint file."""


def serialize(tensors: dict[str, np.ndarray]) -> bytes:
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _TAG_FOR:
            raise CheckpointError(f"tensor '{name}': unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(struct.pack("<B", _TAG_FOR[arr.dtype]))
        parts.append(arr.astype(f"<f{arr.itemsize}", copy=False).tobytes())
    return b"".join(parts)


def save(tensors: dict[str, np.ndarray], path: str) -> None:
    write_atomic(path, serialize(tensors))


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = memoryview(blob)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated file "
                                  f"(wanted {n} bytes at offset {self.pos})")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def load(path: str) -> dict[str, np.ndarray]:
    """The tensors of a container file, as read-only views of its bytes: a
    caller that keeps or changes one copies it."""
    with open(path, "rb") as fh:
        return _parse(fh.read(), path)


def read(path: str) -> tuple[dict[str, np.ndarray], Callable[[], bytes]]:
    """`load`, plus a function giving the SHA-256 of the bytes parsed. Hashing
    costs about as much as reading, so only a caller that binds an artifact to
    the file calls it; the function holds the bytes until it is dropped."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return _parse(blob, path), lambda: hashlib.sha256(blob).digest()


def _parse(blob: bytes, path: str) -> dict[str, np.ndarray]:
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint container)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    count = r.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            name = str(r.take(r.u32()), "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: tensor name is not UTF-8 ({e})") from None
        rank = r.u32()
        dims = tuple(r.u32() for _ in range(rank))
        tag = r.u8()
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"{path}: tensor '{name}' has unknown dtype tag {tag}")
        dtype = _DTYPE_TAGS[tag]
        n = int(np.prod(dims, dtype=np.int64)) if dims else 1
        raw = r.take(n * dtype.itemsize)
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor name '{name}'")
        # bytes are immutable, so the view is read-only
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(dims)
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes after last tensor")
    return tensors


def validate_names(tensors: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]],
                   path: str, allowed_prefixes: tuple[str, ...] = ("opt/", "meta/")) -> None:
    """Check a loaded container against an expected name -> shape registry."""
    for name in expected:
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor '{name}'")
        if tensors[name].shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor '{name}' has shape {tensors[name].shape}, "
                f"expected {expected[name]}")
    for name in tensors:
        if name not in expected and not name.startswith(allowed_prefixes):
            raise CheckpointError(f"{path}: unknown tensor name '{name}'")

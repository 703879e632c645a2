"""Minimal 8-bit PNG encoder with per-row adaptive filtering.

Real corpora imported through `critiq.convert` arrive as PNGs whose rows use
all five scanline filters, so the benchmark transcodes its synthetic rasters
the way a typical encoder would: for each row it filters with None, Sub, Up,
Average and Paeth and keeps the candidate with the smallest sum of absolute
values of the filtered bytes read as signed (the libpng heuristic).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
COLOR_TYPES = {1: 0, 3: 2, 4: 6}


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(pixels: np.ndarray) -> np.ndarray:
    """All five filtered versions of every row: (5, H, W*C) uint8."""
    h, w, c = pixels.shape
    x = pixels.reshape(h, w * c).astype(np.int32)
    up = np.vstack([np.zeros((1, w * c), np.int32), x[:-1]])
    left = np.hstack([np.zeros((h, c), np.int32), x[:, :-c]])
    up_left = np.hstack([np.zeros((h, c), np.int32), up[:, :-c]])
    preds = (np.zeros_like(x), left, up, (left + up) >> 1, _paeth(left, up, up_left))
    return np.stack([(x - p) & 0xFF for p in preds]).astype(np.uint8)


def choose_filters(candidates: np.ndarray) -> np.ndarray:
    """Per-row filter type minimising the sum of |filtered byte as int8|."""
    cost = np.abs(candidates.view(np.int8).astype(np.int32)).sum(axis=2)
    return np.argmin(cost, axis=0)


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF))


def encode_png(pixels: np.ndarray, filter_type: int | None = None) -> tuple[bytes, np.ndarray]:
    """Encode uint8 (H, W, C) pixels; returns (png bytes, filter type per row).

    `filter_type` forces one filter on every row; None chooses per row."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] not in COLOR_TYPES:
        raise ValueError(f"encode_png: expected uint8 (H, W, 1|3|4), got "
                         f"{pixels.dtype} {pixels.shape}")
    h, w, c = pixels.shape
    candidates = filter_rows(pixels)
    if filter_type is None:
        types = choose_filters(candidates)
    elif 0 <= filter_type <= 4:
        types = np.full(h, filter_type)
    else:
        raise ValueError(f"encode_png: filter type {filter_type} outside 0..4")
    rows = candidates[types, np.arange(h)]
    raw = np.hstack([types.astype(np.uint8)[:, None], rows]).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, COLOR_TYPES[c], 0, 0, 0)
    blob = (SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(raw))
            + _chunk(b"IEND", b""))
    return blob, types

"""Image decoding: a minimal uncompressed raster format plus 8-bit PNG.

Raw raster layout (what the synthetic generator emits):

    magic   4 bytes  b"IMG1"
    height  u32 LE
    width   u32 LE
    channels u32 LE
    pixels  height * width * channels bytes, row-major uint8

Pixels decode to float32 in [0, 1]. The PNG reader handles non-interlaced
8-bit grayscale, RGB, and RGBA with all five scanline filters; that covers
deterministic test fixtures without an external decoder. It checks every
chunk's CRC, and a damaged file (cut short, corrupt, or missing a chunk it
needs) raises ImageFormatError naming the file.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .util import write_atomic

RAW_MAGIC = b"IMG1"
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ImageFormatError(ValueError):
    """Unreadable or unsupported image file."""


def encode_raw(pixels: np.ndarray) -> bytes:
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.dtype != np.uint8:
        raise ImageFormatError(f"encode_raw: expected uint8 (H, W, C), got "
                               f"{pixels.dtype} {pixels.shape}")
    h, w, c = pixels.shape
    return RAW_MAGIC + struct.pack("<III", h, w, c) + pixels.tobytes()


def write_raw(pixels: np.ndarray, path: str) -> None:
    write_atomic(path, encode_raw(pixels))


def decode_raw(blob: bytes, path: str = "<bytes>") -> np.ndarray:
    if blob[:4] != RAW_MAGIC:
        raise ImageFormatError(f"{path}: bad raw raster magic")
    if len(blob) < 16:
        raise ImageFormatError(f"{path}: truncated raw raster header")
    h, w, c = struct.unpack("<III", blob[4:16])
    expected = 16 + h * w * c
    if len(blob) != expected:
        raise ImageFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(h, w, c).copy()


_PNG_CHANNELS = {0: 1, 2: 3, 6: 4}


def _average_row(line: list[int], up: list[int], c: int) -> list[int]:
    """Undo the Average filter: each byte adds the floored mean of its left
    neighbour (already decoded) and the byte above. Each channel is its own
    left-to-right chain, so the chains run one after another."""
    cur = [0] * len(line)
    for k in range(c):
        a, chain = 0, []
        for x, b in zip(line[k::c], up[k::c]):
            a = (x + ((a + b) >> 1)) & 0xFF
            chain.append(a)
        cur[k::c] = chain
    return cur


def _paeth_row(line: list[int], up: list[int], c: int) -> list[int]:
    """Undo the Paeth filter: each byte adds whichever of left (a), above (b)
    and upper-left (cc) is nearest to a + b - cc, ties going a, then b."""
    cur = [0] * len(line)
    for k in range(c):
        a, cc, chain = 0, 0, []
        for x, b in zip(line[k::c], up[k::c]):
            pa, pb, pc = abs(b - cc), abs(a - cc), abs(a + b - 2 * cc)
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = cc
            a, cc = (x + pred) & 0xFF, b
            chain.append(a)
        cur[k::c] = chain
    return cur


def _unfilter(raw: bytes, h: int, w: int, c: int, path: str) -> np.ndarray:
    """Reverse the per-row PNG filters of `h` scanlines of `w * c` bytes.

    Rows are decoded in runs of one filter type. None, Sub and Up runs are
    whole-array operations on wrapping uint8; only Average and Paeth, whose
    predictor needs the decoded byte to the left, loop in Python."""
    stride = w * c
    if len(raw) < h * (1 + stride):
        raise ImageFormatError(f"{path}: truncated PNG scanline data")
    rows = np.frombuffer(raw, dtype=np.uint8, count=h * (1 + stride)).reshape(h, 1 + stride)
    types, lines = rows[:, 0], rows[:, 1:]
    bad = np.flatnonzero(types > 4)
    if bad.size:
        raise ImageFormatError(f"{path}: unknown PNG filter type {types[bad[0]]}")
    out = np.empty((h, stride), dtype=np.uint8)
    bounds = [0, *(np.flatnonzero(types[1:] != types[:-1]) + 1).tolist(), h]
    for y0, y1, ftype in zip(bounds, bounds[1:], types[bounds[:-1]].tolist()):
        run = lines[y0:y1]
        if ftype == 0:
            out[y0:y1] = run
        elif ftype == 1:
            out[y0:y1] = np.cumsum(run.reshape(-1, w, c), axis=1,
                                   dtype=np.uint8).reshape(-1, stride)
        elif ftype == 2:
            np.cumsum(run, axis=0, dtype=np.uint8, out=out[y0:y1])
            if y0:
                out[y0:y1] += out[y0 - 1]
        else:
            unfilter_row = _average_row if ftype == 3 else _paeth_row
            up = out[y0 - 1].tolist() if y0 else [0] * stride
            for y in range(y0, y1):
                out[y] = up = unfilter_row(lines[y].tolist(), up, c)
    return out.reshape(h, w, c)


def decode_png(blob: bytes, path: str = "<bytes>") -> np.ndarray:
    if blob[:8] != PNG_SIGNATURE:
        raise ImageFormatError(f"{path}: bad PNG signature")
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(blob):
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        name = ctype.decode("latin-1")
        end = pos + 8 + length
        if end + 4 > len(blob):
            raise ImageFormatError(f"{path}: PNG {name} chunk of {length} bytes runs past "
                                   f"the end of the file")
        body = blob[pos + 4:end]
        if zlib.crc32(body) != struct.unpack_from(">I", blob, end)[0]:
            raise ImageFormatError(f"{path}: PNG {name} chunk CRC mismatch")
        data = body[4:]
        pos = end + 4
        if ctype == b"IHDR":
            if length != 13:
                raise ImageFormatError(f"{path}: PNG IHDR chunk of {length} bytes, need 13")
            ihdr = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat.append(data)
        elif ctype == b"IEND":
            break
    if ihdr is None:
        raise ImageFormatError(f"{path}: PNG missing IHDR")
    w, h, depth, color, _, _, interlace = ihdr
    if depth != 8 or color not in _PNG_CHANNELS or interlace != 0:
        raise ImageFormatError(f"{path}: unsupported PNG (depth={depth}, color type="
                               f"{color}, interlace={interlace}); need non-interlaced 8-bit")
    if w == 0 or h == 0:
        raise ImageFormatError(f"{path}: PNG has zero size ({w}x{h})")
    if not idat:
        raise ImageFormatError(f"{path}: PNG missing IDAT")
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as e:
        raise ImageFormatError(f"{path}: corrupt PNG image data: {e}") from None
    return _unfilter(raw, h, w, _PNG_CHANNELS[color], path)


def read_image(path: str) -> np.ndarray:
    """Decode a raw raster or PNG file to float32 pixels in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == RAW_MAGIC:
        pixels = decode_raw(blob, path)
    elif blob[:8] == PNG_SIGNATURE:
        pixels = decode_png(blob, path)
    else:
        raise ImageFormatError(f"{path}: not a raw raster or PNG file")
    return pixels.astype(np.float32) / 255.0

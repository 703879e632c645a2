"""PNG decoding against the per-byte oracle, and damaged PNGs: each one fails
as ImageFormatError naming the file, never as a zlib or struct error."""

import re
import struct
import zlib

import numpy as np
import pytest

from critiq import data, imageio
from critiq.synth import SynthSpec, generate_synthetic_corpus
from oracles import brute_force_unfilter
from perfbench import pngenc


def chunk(ctype: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))


def png(w: int, h: int, idat: list[bytes], color: int = 2) -> bytes:
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (imageio.PNG_SIGNATURE + chunk(b"IHDR", ihdr)
            + b"".join(chunk(b"IDAT", d) for d in idat) + chunk(b"IEND", b""))


def scanlines(blob: bytes) -> bytes:
    """The decompressed IDAT stream of a well-formed PNG."""
    pos, idat = 8, b""
    while pos < len(blob):
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        if ctype == b"IDAT":
            idat += blob[pos + 8:pos + 8 + length]
        pos += 12 + length
    return zlib.decompress(idat)


def assert_matches_oracle(blob: bytes, pixels: np.ndarray) -> None:
    h, w, c = pixels.shape
    expected = brute_force_unfilter(scanlines(blob), h, w, c)
    decoded = imageio.decode_png(blob)
    assert decoded.dtype == np.uint8 and decoded.shape == (h, w, c)
    assert np.array_equal(decoded, expected)
    assert np.array_equal(decoded, pixels)


class TestUnfilterOracle:
    @pytest.mark.parametrize("channels", [1, 3, 4])
    @pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 6), (5, 1), (3, 7), (6, 13)])
    def test_forced_filter(self, channels, filter_type, h, w):
        rng = np.random.default_rng([channels, filter_type, h, w])
        pixels = rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)
        blob, types = pngenc.encode_png(pixels, filter_type)
        assert set(types.tolist()) == {filter_type}
        assert_matches_oracle(blob, pixels)

    def test_adaptive_mix_on_synthetic_corpus(self, tmp_path):
        manifest = generate_synthetic_corpus(SynthSpec(count=8), str(tmp_path), 4)
        rows = np.zeros(5, dtype=np.int64)
        for rec in data.load_manifest(manifest):
            path = data.record_image_path(rec, manifest)
            with open(path, "rb") as fh:
                pixels = imageio.decode_raw(fh.read(), path)
            blob, types = pngenc.encode_png(pixels)
            rows += np.bincount(types, minlength=5)
            assert_matches_oracle(blob, pixels)
        # Sub, Up, Average and Paeth rows all occur (None never wins on this corpus)
        assert rows[1:].min() > 0

    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_arbitrary_bytes_under_random_filters(self, channels):
        # every byte value and every sequence of row filters, not just what an
        # encoder would choose: runs of one type, alternations, wrap-around
        rng = np.random.default_rng(channels)
        for _ in range(20):
            h, w = (int(v) for v in rng.integers(1, 10, size=2))
            rows = rng.integers(0, 256, size=(h, 1 + w * channels), dtype=np.uint8)
            rows[:, 0] = rng.integers(0, 5, size=h)
            raw = rows.tobytes()
            assert np.array_equal(imageio._unfilter(raw, h, w, channels, "x"),
                                  brute_force_unfilter(raw, h, w, channels))


def _pixels() -> np.ndarray:
    return np.random.default_rng(3).integers(0, 256, size=(8, 8, 3), dtype=np.uint8)


def _cut_in_half() -> bytes:
    blob = pngenc.encode_png(_pixels())[0]
    return blob[:len(blob) // 2]


def _flip_idat_byte() -> bytes:
    blob = pngenc.encode_png(_pixels())[0]
    i = blob.index(b"IDAT") + 8
    return blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]


def _bad_filter_types() -> bytes:
    # rows 5 and 6 carry types 7 and 9; the message names the first
    raw = bytearray(8 * (1 + 8 * 3))
    raw[5 * (1 + 8 * 3)], raw[6 * (1 + 8 * 3)] = 7, 9
    return png(8, 8, [zlib.compress(bytes(raw))])


DAMAGED = {
    "cut in half": (_cut_in_half, "IDAT chunk of .* runs past the end of the file"),
    "truncated zlib stream": (lambda: png(8, 8, [zlib.compress(b"\0" * 200)[:-9]]),
                              "corrupt PNG image data: Error -5"),
    "garbage zlib stream": (lambda: png(8, 8, [b"\x78\x9c" + b"\xff" * 40]),
                            "corrupt PNG image data"),
    "no IDAT": (lambda: png(8, 8, []), "PNG missing IDAT"),
    "IDAT CRC mismatch": (_flip_idat_byte, "PNG IDAT chunk CRC mismatch"),
    "zero width": (lambda: png(0, 8, [zlib.compress(b"\0" * 8)]), r"zero size \(0x8\)"),
    "zero height": (lambda: png(8, 0, [zlib.compress(b"")]), r"zero size \(8x0\)"),
    "short IHDR": (lambda: imageio.PNG_SIGNATURE + chunk(b"IHDR", b"\0" * 12),
                   "IHDR chunk of 12 bytes, need 13"),
    "short scanlines": (lambda: png(8, 8, [zlib.compress(b"\0" * 100)]),
                        "truncated PNG scanline data"),
    "unknown filter type": (_bad_filter_types, "unknown PNG filter type 7$"),
}


class TestDamagedPng:
    @pytest.mark.parametrize("case", sorted(DAMAGED))
    def test_raises_image_format_error_naming_the_path(self, tmp_path, case):
        make, message = DAMAGED[case]
        path = tmp_path / "damaged.png"
        path.write_bytes(make())
        with pytest.raises(imageio.ImageFormatError) as info:
            imageio.read_image(str(path))
        assert str(path) in str(info.value)
        assert re.search(message, str(info.value)), str(info.value)

    def test_idat_split_across_chunks_decodes(self):
        pixels = _pixels()
        stream = zlib.compress(scanlines(pngenc.encode_png(pixels)[0]))
        parts = [stream[i:i + 7] for i in range(0, len(stream), 7)]
        assert len(parts) > 3
        assert np.array_equal(imageio.decode_png(png(8, 8, parts)), pixels)

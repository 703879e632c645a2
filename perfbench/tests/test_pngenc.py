import numpy as np
import pytest

from critiq import imageio
from perfbench.pngenc import choose_filters, encode_png, filter_rows


@pytest.mark.parametrize("channels", [1, 3, 4])
@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_each_filter_round_trips_through_critiq(channels, filter_type, tmp_path):
    pixels = np.random.default_rng(filter_type).integers(
        0, 256, (9, 7, channels), dtype=np.uint8)
    blob, types = encode_png(pixels, filter_type)
    assert (types == filter_type).all()
    assert np.array_equal(imageio.decode_png(blob), pixels)
    path = tmp_path / "x.png"
    path.write_bytes(blob)
    assert np.array_equal(imageio.read_image(str(path)), pixels.astype(np.float32) / 255.0)


def test_adaptive_choice_takes_the_cheapest_filter_per_row():
    pixels = np.zeros((4, 6, 1), dtype=np.uint8)
    pixels[0, :, 0] = [10, 20, 30, 40, 50, 60]   # first row: Sub leaves 10s
    pixels[1:, :, 0] = pixels[0, :, 0]            # repeated rows: Up leaves zeros
    types = choose_filters(filter_rows(pixels))
    assert types[0] == 1
    assert (types[1:] == 2).all()
    blob, chosen = encode_png(pixels)
    assert np.array_equal(chosen, types)
    assert np.array_equal(imageio.decode_png(blob), pixels)


def test_adaptive_encoding_round_trips_a_mixed_image():
    rng = np.random.default_rng(3)
    pixels = np.concatenate([
        np.tile(np.arange(40, dtype=np.uint8)[None, :, None] * 5, (10, 1, 3)),
        rng.integers(0, 256, (10, 40, 3), dtype=np.uint8),
        np.full((10, 40, 3), 77, dtype=np.uint8)])
    blob, types = encode_png(pixels)
    assert len(set(types.tolist())) > 1
    assert np.array_equal(imageio.decode_png(blob), pixels)


def test_rejects_what_it_cannot_encode():
    with pytest.raises(ValueError):
        encode_png(np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_png(np.zeros((2, 2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        encode_png(np.zeros((2, 2, 3), dtype=np.uint8), 5)

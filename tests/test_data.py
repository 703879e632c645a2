"""Pipeline: manifests, comment sampling, augmentation, batching, image
formats, and the synthetic corpus generator."""

import hashlib
import json
import pathlib
import struct
import zlib

import numpy as np
import pytest

from critiq import imageio
from critiq import tokenizer as tok
from critiq.data import (AugmentationConfig, Batch, ManifestRecord, augment,
                         load_manifest, make_batches, sample_comment, save_manifest,
                         steps_per_epoch)
from critiq.metrics import srcc
from critiq.synth import SynthSpec, generate_synthetic_corpus, mos_from_luminance
from perfbench import pngenc


class TestManifest:
    def test_empty_file_gives_empty_list(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        assert load_manifest(str(p)) == []

    def test_round_trip_field_exact(self, tmp_path):
        records = [
            ManifestRecord(id="a", image="images/a.img", comments=["nice shot"]),
            ManifestRecord(id="b", image="images/b.img", comments=["x", "y"], mos=7.25),
            ManifestRecord(id="c", image="images/c.img", comments=["z"], mos=2.0,
                           styles=[0, 13]),
        ]
        path = str(tmp_path / "m.jsonl")
        save_manifest(records, path)
        back = load_manifest(path)
        assert back == records

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "a", "image": "a.img", "comments": []}\nnot json\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2"):
            load_manifest(str(p))

    def test_validation_errors(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "a", "image": "a.img", "comments": [], "mos": 11.0}\n')
        with pytest.raises(ValueError, match=r"mos"):
            load_manifest(str(p))
        p.write_text('{"id": "a", "image": "a.img", "comments": [], "styles": [14]}\n')
        with pytest.raises(ValueError, match=r"style"):
            load_manifest(str(p))

    def test_missing_image_fails_at_access_not_load(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "a", "image": "gone.img", "comments": ["hi"]}\n')
        records = load_manifest(str(p))  # load succeeds
        vocab = tok.Vocabulary.build(["hi"], 16)
        aug = AugmentationConfig(source_size=8, crop_size=8)
        with pytest.raises(FileNotFoundError):
            list(make_batches(records, 1, vocab, aug, 0, 0, str(p)))


class TestSampleComment:
    def test_single_comment_always_chosen(self):
        rec = ManifestRecord(id="a", image="x", comments=["only"])
        rng = np.random.default_rng(0)
        assert all(sample_comment(rec, rng) == "only" for _ in range(20))

    def test_uniform_within_three_sigma(self):
        rec = ManifestRecord(id="a", image="x", comments=["u", "v"])
        rng = np.random.default_rng(1)
        draws = 10_000
        hits = sum(sample_comment(rec, rng) == "u" for _ in range(draws))
        sigma = 0.5 * np.sqrt(draws)
        assert abs(hits - draws / 2) < 3 * sigma

    def test_fixed_mode_ignores_rng(self):
        rec = ManifestRecord(id="a", image="x", comments=["first", "second"])
        rng = np.random.default_rng(2)
        assert all(sample_comment(rec, rng, fixed=True) == "first" for _ in range(20))

    def test_empty_comments_rejected(self):
        rec = ManifestRecord(id="a", image="x", comments=[])
        with pytest.raises(ValueError, match="no comments"):
            sample_comment(rec, np.random.default_rng(0))


class TestAugment:
    def test_disabled_is_deterministic_center_crop(self):
        img = np.arange(40 * 40 * 3, dtype=np.float32).reshape(40, 40, 3)
        cfg = AugmentationConfig(source_size=40, crop_size=32, enabled=False)
        a = augment(img, cfg, np.random.default_rng(0))
        b = augment(img, cfg, np.random.default_rng(99))
        assert np.array_equal(a, b)
        np.testing.assert_array_equal(a, img[4:36, 4:36])

    def test_output_always_crop_size(self):
        rng = np.random.default_rng(3)
        cfg = AugmentationConfig(source_size=40, crop_size=32)
        for _ in range(20):
            out = augment(rng.random((40, 40, 3)).astype(np.float32), cfg, rng)
            assert out.shape == (32, 32, 3)

    def test_equal_sizes_identity_up_to_flip(self):
        rng = np.random.default_rng(4)
        img = rng.random((32, 32, 3)).astype(np.float32)
        cfg = AugmentationConfig(source_size=32, crop_size=32)
        out = augment(img, cfg, np.random.default_rng(5))
        assert np.array_equal(out, img) or np.array_equal(out, img[:, ::-1])

    def test_seeded_offsets_reproducible(self):
        img = np.arange(40 * 40, dtype=np.float32).reshape(40, 40, 1)
        cfg = AugmentationConfig(source_size=40, crop_size=32)
        a = augment(img, cfg, np.random.default_rng(6))
        b = augment(img, cfg, np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_size_mismatch_rejected(self):
        cfg = AugmentationConfig(source_size=40, crop_size=32)
        with pytest.raises(ValueError, match="expected"):
            augment(np.zeros((41, 40, 3), dtype=np.float32), cfg, np.random.default_rng(0))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="crop_size"):
            AugmentationConfig(source_size=32, crop_size=40)


@pytest.fixture
def corpus(tmp_path):
    manifest = generate_synthetic_corpus(SynthSpec(count=5, comments_min=1,
                                                   comments_max=3), str(tmp_path), 7)
    records = load_manifest(manifest)
    vocab = tok.Vocabulary.build([c for r in records for c in r.comments], 128)
    return manifest, records, vocab


class TestMakeBatches:
    def test_batch_sizes_keep_last_partial(self, corpus):
        manifest, records, vocab = corpus
        aug = AugmentationConfig()
        sizes = [b.size for b in make_batches(records, 2, vocab, aug, 0, 0, manifest)]
        assert sizes == [2, 2, 1]
        assert steps_per_epoch(5, 2) == 3

    def test_same_seed_epoch_bitwise_identical(self, corpus):
        manifest, records, vocab = corpus
        aug = AugmentationConfig()
        a = list(make_batches(records, 2, vocab, aug, 3, 1, manifest))
        b = list(make_batches(records, 2, vocab, aug, 3, 1, manifest))
        for x, y in zip(a, b):
            assert x.ids == y.ids
            assert np.array_equal(x.images, y.images)
            assert np.array_equal(x.gen_tokens, y.gen_tokens)
            assert x.con_tokens == y.con_tokens

    def test_different_epochs_permute(self, tmp_path):
        manifest = generate_synthetic_corpus(SynthSpec(count=100, comments_min=1,
                                                       comments_max=1),
                                             str(tmp_path), 11)
        records = load_manifest(manifest)
        vocab = tok.Vocabulary.build([c for r in records for c in r.comments], 128)
        aug = AugmentationConfig()
        ids0 = [i for b in make_batches(records, 10, vocab, aug, 0, 0, manifest)
                for i in b.ids]
        ids1 = [i for b in make_batches(records, 10, vocab, aug, 0, 1, manifest)
                for i in b.ids]
        assert sorted(ids0) == sorted(ids1)
        assert ids0 != ids1

    def test_token_alignment_and_labels(self, corpus):
        manifest, records, vocab = corpus
        aug = AugmentationConfig()
        for batch in make_batches(records, 3, vocab, aug, 0, 0, manifest):
            assert batch.gen_tokens.ndim == 2
            assert all(seq[-1] == tok.CLS for seq in batch.con_tokens)
            assert batch.gen_tokens.shape[0] == len(batch.con_tokens) == batch.size
            assert batch.images.shape[1:] == (32, 32, 3)

    def test_missing_comments_named(self, tmp_path, corpus):
        manifest, records, vocab = corpus
        records[2].comments = []
        aug = AugmentationConfig()
        with pytest.raises(ValueError, match=records[2].id):
            list(make_batches(records, 5, vocab, aug, 0, 0, manifest))

    def test_comment_coverage_over_epochs(self, tmp_path):
        manifest = generate_synthetic_corpus(SynthSpec(count=12, comments_min=3,
                                                       comments_max=3),
                                             str(tmp_path), 13)
        records = load_manifest(manifest)
        vocab = tok.Vocabulary.build([c for r in records for c in r.comments], 256)
        aug = AugmentationConfig()
        seen: dict[str, set] = {r.id: set() for r in records}
        epochs = 40  # coverage probability >= 1 - (1 - 1/3)^40 per comment
        for e in range(epochs):
            for batch in make_batches(records, 4, vocab, aug, 1, e, manifest):
                for rid, seq in zip(batch.ids, batch.con_tokens):
                    seen[rid].add(tuple(seq))
        rec_by_id = {r.id: r for r in records}
        covered = sum(len(seen[rid]) == len({tuple(tok.encode(c, vocab, "contrastive"))
                                             for c in rec_by_id[rid].comments})
                      for rid in seen)
        assert covered >= len(records) - 1


class TestRawImageFormat:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        pixels = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        path = str(tmp_path / "x.img")
        imageio.write_raw(pixels, path)
        back = imageio.read_image(path)
        assert back.shape == (9, 7, 3)
        np.testing.assert_array_equal((back * 255).round().astype(np.uint8), pixels)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "x.img"
        blob = imageio.encode_raw(np.zeros((4, 4, 1), dtype=np.uint8))
        path.write_bytes(blob[:-3])
        with pytest.raises(imageio.ImageFormatError, match="expected"):
            imageio.read_image(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.img"
        path.write_bytes(b"????" + b"\x00" * 20)
        with pytest.raises(imageio.ImageFormatError):
            imageio.read_image(str(path))


class TestPngDecode:
    @pytest.mark.parametrize("channels", [1, 3, 4])
    @pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
    def test_round_trip(self, tmp_path, channels, filter_type):
        rng = np.random.default_rng(channels * 10 + filter_type)
        pixels = rng.integers(0, 256, size=(6, 5, channels), dtype=np.uint8)
        path = tmp_path / "x.png"
        path.write_bytes(pngenc.encode_png(pixels, filter_type)[0])
        back = imageio.read_image(str(path))
        np.testing.assert_array_equal((back * 255).round().astype(np.uint8), pixels)

    def test_average_and_paeth_filters(self, tmp_path):
        # hand-build two rows exercising filters 3 (average) and 4 (paeth)
        w, c = 4, 1
        row0 = np.array([10, 20, 30, 40], dtype=np.int32)
        row1 = np.array([15, 25, 35, 45], dtype=np.int32)
        raw = bytearray()
        raw.append(3)  # average, no prev row: pred = left // 2
        enc0, left = [], 0
        for x in row0:
            enc0.append((x - (left // 2)) % 256)
            left = x
        raw.extend(bytes(enc0))
        raw.append(4)  # paeth with prev row
        enc1, left = [], 0
        prev = row0
        for i, x in enumerate(row1):
            a = left
            b = int(prev[i])
            cc = int(prev[i - 1]) if i > 0 else 0
            p = a + b - cc
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
            pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else cc)
            enc1.append((x - pred) % 256)
            left = x
        raw.extend(bytes(enc1))
        def chunk(ctype, data):
            return (struct.pack(">I", len(data)) + ctype + data
                    + struct.pack(">I", zlib.crc32(ctype + data)))
        ihdr = struct.pack(">IIBBBBB", w, 2, 8, 0, 0, 0, 0)
        blob = (imageio.PNG_SIGNATURE + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b""))
        path = tmp_path / "f.png"
        path.write_bytes(blob)
        back = (imageio.read_image(str(path)) * 255).round().astype(np.int32)
        np.testing.assert_array_equal(back[:, :, 0], np.vstack([row0, row1]))

    def test_unsupported_depth_rejected(self, tmp_path):
        def chunk(ctype, data):
            return (struct.pack(">I", len(data)) + ctype + data
                    + struct.pack(">I", zlib.crc32(ctype + data)))
        ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 0, 0, 0, 0)
        path = tmp_path / "x.png"
        path.write_bytes(imageio.PNG_SIGNATURE + chunk(b"IHDR", ihdr)
                         + chunk(b"IEND", b""))
        with pytest.raises(imageio.ImageFormatError, match="unsupported"):
            imageio.read_image(str(path))


class TestSyntheticCorpus:
    def test_zero_noise_mos_strictly_monotone_in_luminance(self, tmp_path):
        manifest = generate_synthetic_corpus(
            SynthSpec(count=40, mos_noise=0.0), str(tmp_path), 21)
        records = load_manifest(manifest)
        mos = np.array([r.mos for r in records])
        # luminance is recoverable through the declared monotone map
        lum = (mos - 1.5) / 10.0 + 0.15
        assert abs(srcc(lum, mos) - 1.0) < 1e-12
        assert len(np.unique(mos)) == len(mos)

    def test_regeneration_byte_identical(self, tmp_path):
        spec = SynthSpec(count=16)
        m1 = generate_synthetic_corpus(spec, str(tmp_path / "a"), 5)
        m2 = generate_synthetic_corpus(spec, str(tmp_path / "b"), 5)
        assert pathlib.Path(m1).read_bytes() == pathlib.Path(m2).read_bytes()
        h = []
        for base in ("a", "b"):
            digest = hashlib.sha256()
            for i in range(16):
                digest.update((tmp_path / base / "images"
                               / f"img{i:05d}.img").read_bytes())
            h.append(digest.hexdigest())
        assert h[0] == h[1]

    def test_different_seeds_differ(self, tmp_path):
        spec = SynthSpec(count=8)
        m1 = generate_synthetic_corpus(spec, str(tmp_path / "a"), 1)
        m2 = generate_synthetic_corpus(spec, str(tmp_path / "b"), 2)
        assert pathlib.Path(m1).read_bytes() != pathlib.Path(m2).read_bytes()

    def test_comments_track_luminance_polarity(self, tmp_path):
        manifest = generate_synthetic_corpus(
            SynthSpec(count=60, mos_noise=0.0), str(tmp_path), 9)
        for rec in load_manifest(manifest):
            lum = (rec.mos - 1.5) / 10.0 + 0.15
            first = rec.comments[0]
            if lum >= 0.55:
                assert "good" in first or "bright" in first or "nice" in first
            else:
                assert "bad" in first or "dark" in first or "gloomy" in first

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(count=0)
        with pytest.raises(ValueError):
            SynthSpec(comments_min=3, comments_max=2)

    def test_mos_map_is_monotone(self):
        xs = np.linspace(0.15, 0.95, 50)
        ys = [mos_from_luminance(x) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))
        assert min(ys) >= 1.0 and max(ys) <= 10.0

"""Dataset manifests, per-epoch comment sampling, augmentation, and batching.

A manifest is JSON-lines: one record per line with fields `id`, `image`
(path relative to the manifest's directory), `comments` (list of strings),
optional `mos` (real in [1, 10]) and optional `styles` (ints in [0, 13]).

Batch streams are a pure function of (records, batch size, seed, epoch):
the epoch-derived generator drives the shuffle, the comment choice, and the
augmentation offsets, so any step of any epoch can be reproduced exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tokenizer as tok
from .imageio import read_image
from .util import write_atomic

NUM_STYLES = 14


@dataclass
class ManifestRecord:
    id: str
    image: str
    comments: list[str] = field(default_factory=list)
    mos: float | None = None
    styles: list[int] | None = None

    def validate(self) -> None:
        if not self.id:
            raise ValueError("manifest record with empty id")
        if not self.image:
            raise ValueError(f"record {self.id!r}: empty image path")
        if self.mos is not None and not (1.0 <= self.mos <= 10.0):
            raise ValueError(f"record {self.id!r}: mos {self.mos} outside [1, 10]")
        if self.styles is not None:
            for s in self.styles:
                if not (0 <= s < NUM_STYLES):
                    raise ValueError(f"record {self.id!r}: style label {s} outside "
                                     f"[0, {NUM_STYLES - 1}]")

    def to_json(self) -> str:
        out: dict = {"id": self.id, "image": self.image, "comments": self.comments}
        if self.mos is not None:
            out["mos"] = self.mos
        if self.styles is not None:
            out["styles"] = self.styles
        return json.dumps(out, sort_keys=True)


def load_manifest(path: str) -> list[ManifestRecord]:
    records: list[ManifestRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = ManifestRecord(
                    id=str(obj["id"]), image=str(obj["image"]),
                    comments=[str(c) for c in obj.get("comments", [])],
                    mos=float(obj["mos"]) if "mos" in obj else None,
                    styles=[int(s) for s in obj["styles"]] if "styles" in obj else None)
                rec.validate()
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise ValueError(f"{path}:{lineno}: malformed manifest line: {e}") from e
            records.append(rec)
    return records


def save_manifest(records: list[ManifestRecord], path: str) -> None:
    body = "".join(r.to_json() + "\n" for r in records)
    write_atomic(path, body.encode("utf-8"))


def record_image_path(record: ManifestRecord, manifest_path: str) -> str:
    base = os.path.dirname(os.path.abspath(manifest_path))
    return os.path.join(base, record.image)


def sample_comment(record: ManifestRecord, rng: np.random.Generator,
                   fixed: bool = False) -> str:
    """Uniform random comment; `fixed` always takes index 0 (ablation arm)."""
    if not record.comments:
        raise ValueError(f"record {record.id!r} has no comments")
    if fixed:
        return record.comments[0]
    return record.comments[int(rng.integers(len(record.comments)))]


@dataclass(frozen=True)
class AugmentationConfig:
    source_size: int = 40
    crop_size: int = 32
    enabled: bool = True

    def __post_init__(self):
        if self.crop_size > self.source_size:
            raise ValueError(f"crop_size {self.crop_size} exceeds source_size "
                             f"{self.source_size}")


def augment(image: np.ndarray, cfg: AugmentationConfig,
            rng: np.random.Generator) -> np.ndarray:
    """Random crop then a coin-flip horizontal flip; disabled -> center crop."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != cfg.source_size or image.shape[1] != cfg.source_size:
        raise ValueError(f"augment: expected ({cfg.source_size}, {cfg.source_size}, C) "
                         f"input, got {image.shape}")
    span = cfg.source_size - cfg.crop_size
    if cfg.enabled:
        dy = int(rng.integers(span + 1))
        dx = int(rng.integers(span + 1))
    else:
        dy = dx = span // 2
    out = image[dy:dy + cfg.crop_size, dx:dx + cfg.crop_size]
    if cfg.enabled and rng.random() < 0.5:
        out = out[:, ::-1]
    return np.ascontiguousarray(out)


@dataclass
class Batch:
    ids: list[str]
    images: np.ndarray                 # (N, crop, crop, C) float32
    gen_tokens: np.ndarray             # (N, Lg) PAD-aligned generative encodings
    con_tokens: list[list[int]]        # contrastive encodings, CLS-terminated

    @property
    def size(self) -> int:
        return len(self.ids)


def make_batches(records: list[ManifestRecord], batch_size: int,
                 vocab: tok.Vocabulary, aug_cfg: AugmentationConfig,
                 seed: int, epoch: int, manifest_path: str,
                 max_text_length: int = 64, fixed_comment: bool = False):
    """Yield PAD-aligned batches for one epoch; the last partial batch is kept.

    The stream is a pure function of (records, batch_size, seed, epoch,
    configs): shuffling, comment choice, and augmentation all draw from one
    generator seeded by (seed, epoch).
    """
    if not records:
        raise ValueError("make_batches: no records")
    if batch_size < 1:
        raise ValueError("make_batches: batch_size must be >= 1")
    rng = np.random.default_rng((seed, epoch))
    order = rng.permutation(len(records))
    for start in range(0, len(records), batch_size):
        chunk = [records[i] for i in order[start:start + batch_size]]
        ids, images, gen_seqs, con_seqs = [], [], [], []
        for rec in chunk:
            image = read_image(record_image_path(rec, manifest_path))
            images.append(augment(image, aug_cfg, rng))
            text = sample_comment(rec, rng, fixed=fixed_comment)
            gen_seqs.append(tok.encode(text, vocab, "generative", max_text_length))
            con_seqs.append(tok.encode(text, vocab, "contrastive", max_text_length))
            ids.append(rec.id)
        yield Batch(ids=ids,
                    images=np.stack(images).astype(np.float32, copy=False),
                    gen_tokens=tok.pad_ids(gen_seqs),
                    con_tokens=con_seqs)


def steps_per_epoch(n_records: int, batch_size: int) -> int:
    return math.ceil(n_records / batch_size)

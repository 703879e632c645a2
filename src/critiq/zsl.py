"""Zero-shot scoring from contrastive embeddings only.

Quality scoring softmax-normalizes the image's similarity to a good/bad
prompt pair; the ensemble averages over pairs. Style scoring uses raw
cosines (single prompt or per-style ensemble mean), which is what rank-based
multilabel evaluation consumes.

The pair score is computed so that swapping the pair's roles yields the exact
complement: the branch with the larger similarity evaluates 1/(1+e^-d) and
the mirrored call reuses that value's exact complement (Sterbenz), so the two
scores always sum to exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import tokenizer as tok
from .model import ModelConfig, ModelParams, encode_text_batch
from .prompts import PromptBank

CACHE_HASH_KEY = "meta/checkpoint_sha256"


@dataclass
class PromptPairEmbedding:
    good: np.ndarray
    bad: np.ndarray
    good_text: str
    bad_text: str

    def __post_init__(self):
        for name, v in (("good", self.good), ("bad", self.bad)):
            if abs(float(np.linalg.norm(np.asarray(v, dtype=np.float64))) - 1.0) > 1e-6:
                raise ValueError(f"prompt pair '{name}' embedding is not unit-norm")


@dataclass
class StylePromptEmbeddings:
    single: dict[str, np.ndarray]
    ensemble: dict[str, list[np.ndarray]]

    def style_names(self) -> list[str]:
        return list(self.single)


def _check_unit(name: str, v: np.ndarray) -> None:
    if abs(float(np.linalg.norm(np.asarray(v, dtype=np.float64))) - 1.0) > 1e-6:
        raise ValueError(f"{name}: expected a unit-norm vector")


def zsl_iaa_single(v: np.ndarray, pair: PromptPairEmbedding | tuple) -> float:
    """Softmax-normalized preference for the 'good' prompt, in (0, 1).

    Depends on the two similarities only through their difference.
    """
    if isinstance(pair, PromptPairEmbedding):
        pg, pb = pair.good, pair.bad
    else:
        pg, pb = pair
    v = np.asarray(v, dtype=np.float64)
    _check_unit("zsl_iaa_single image embedding", v)
    a = float(v @ np.asarray(pg, dtype=np.float64))
    b = float(v @ np.asarray(pb, dtype=np.float64))
    d = b - a
    if d <= 0:
        return 1.0 / (1.0 + math.exp(d))
    return 1.0 - 1.0 / (1.0 + math.exp(-d))


def zsl_iaa_ensemble(v: np.ndarray, pairs) -> float:
    """Arithmetic mean of the per-pair scores, clamped into their span."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("zsl_iaa_ensemble: empty pair list")
    scores = [zsl_iaa_single(v, p) for p in pairs]
    m = math.fsum(scores) / len(scores)
    return min(max(m, min(scores)), max(scores))


def zsl_style_scores(v: np.ndarray, styles: StylePromptEmbeddings,
                     mode: str = "ensemble") -> dict[str, float]:
    """Per-style cosine scores for one unit image embedding."""
    v = np.asarray(v, dtype=np.float64)
    _check_unit("zsl_style_scores image embedding", v)
    check_mode(mode)
    out: dict[str, float] = {}
    for name in styles.style_names():
        if mode == "single":
            out[name] = float(v @ np.asarray(styles.single[name], dtype=np.float64))
        else:
            cosines = [float(v @ np.asarray(p, dtype=np.float64))
                       for p in styles.ensemble[name]]
            m = math.fsum(cosines) / len(cosines)
            out[name] = min(max(m, min(cosines)), max(cosines))
    return out


def check_mode(mode: str) -> None:
    if mode not in ("single", "ensemble"):
        raise ValueError(f"unknown zero-shot mode {mode!r}; expected 'single' or 'ensemble'")


def _unit_rows(v: np.ndarray, mode: str) -> np.ndarray:
    """Rows of `v` scaled to unit norm, once `mode` is known to be valid."""
    check_mode(mode)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def iaa_scores(v: np.ndarray, pairs: list[PromptPairEmbedding], mode: str) -> list[float]:
    """Quality score per row of raw image embeddings `v` (N, D): the first
    pair alone in 'single' mode, the ensemble over all pairs otherwise."""
    unit = _unit_rows(v, mode)
    if mode == "single":
        return [zsl_iaa_single(u, pairs[0]) for u in unit]
    return [zsl_iaa_ensemble(u, pairs) for u in unit]


def style_scores(v: np.ndarray, styles: StylePromptEmbeddings, mode: str) -> np.ndarray:
    """(N, styles) score matrix for raw image embeddings `v` (N, D), with
    columns in `styles.style_names()` order."""
    unit = _unit_rows(v, mode)
    names = styles.style_names()
    rows = [zsl_style_scores(u, styles, mode) for u in unit]
    return np.array([[per[name] for name in names] for per in rows],
                    dtype=np.float64).reshape(len(rows), len(names))


# ---------------------------------------------------------------------------
# prompt embedding computation and caching
# ---------------------------------------------------------------------------

def _embed_texts(texts: list[str], params: ModelParams, cfg: ModelConfig,
                 vocab: tok.Vocabulary) -> np.ndarray:
    """Unit-norm frozen text embeddings (CLS outputs), one row per text, from
    one batched forward."""
    with ad.no_grad():
        seqs = [tok.encode(text, vocab, "contrastive", cfg.max_text_length)
                for text in texts]
        return ad.l2_normalize(encode_text_batch(seqs, params, cfg)).data


def embed_prompt(text: str, params: ModelParams, cfg: ModelConfig,
                 vocab: tok.Vocabulary) -> np.ndarray:
    """Unit-norm frozen text embedding of a prompt (CLS output)."""
    return _embed_texts([text], params, cfg, vocab)[0]


def embed_bank(bank: PromptBank, params: ModelParams, cfg: ModelConfig,
               vocab: tok.Vocabulary) -> dict[str, np.ndarray]:
    texts = bank.all_texts()
    return dict(zip(texts, _embed_texts(texts, params, cfg, vocab)))


def pair_embeddings(bank: PromptBank, table: dict[str, np.ndarray]) -> list[PromptPairEmbedding]:
    return [PromptPairEmbedding(good=table[g], bad=table[b], good_text=g, bad_text=b)
            for g, b in bank.iaa_pairs]


def style_embeddings(bank: PromptBank, table: dict[str, np.ndarray]) -> StylePromptEmbeddings:
    return StylePromptEmbeddings(
        single={name: table[bank.style_single[name]] for name in bank.style_names},
        ensemble={name: [table[p] for p in bank.style_prompts[name]]
                  for name in bank.style_names})


def save_prompt_cache(table: dict[str, np.ndarray], checkpoint_hash: bytes,
                      path: str) -> None:
    tensors: dict[str, np.ndarray] = dict(table)
    tensors[CACHE_HASH_KEY] = np.frombuffer(checkpoint_hash, dtype=np.uint8).astype(np.float64)
    ckpt.save(tensors, path)


def load_prompt_cache(path: str, checkpoint_hash: bytes | None = None
                      ) -> dict[str, np.ndarray]:
    tensors = ckpt.load(path)
    stored = tensors.pop(CACHE_HASH_KEY, None)
    if checkpoint_hash is not None:
        if stored is None:
            raise ckpt.CheckpointError(f"{path}: prompt cache carries no checkpoint hash")
        if bytes(stored.astype(np.uint8)) != checkpoint_hash:
            raise ckpt.CheckpointError(f"{path}: prompt cache was built for a different "
                                       "checkpoint")
    return tensors

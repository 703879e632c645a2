"""Zero-shot scoring from contrastive embeddings only.

Quality scoring softmax-normalizes the image's similarity to a good/bad
prompt pair; the ensemble averages over pairs. Style scoring uses raw
cosines (single prompt or per-style ensemble mean), which is what rank-based
multilabel evaluation consumes.

The pair score is computed so that swapping the pair's roles yields the exact
complement: the branch with the larger similarity evaluates 1/(1+e^-d) and
the mirrored call reuses that value's exact complement (Sterbenz), so the two
scores always sum to exactly 1.0.

Each scorer takes one unit vector (D,) or a stack of unit rows (N, D) and
makes one array pass per prompt over all rows. The arithmetic is local to
each row, so a row of a batch scores bit for bit as the same vector alone.
"""

from __future__ import annotations

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


def _checked_rows(name: str, v) -> np.ndarray:
    """`v`, one unit vector (D,) or a stack of unit rows (N, D), as float64
    rows (N, D), every row's norm checked in one pass."""
    u = np.asarray(v, dtype=np.float64)
    rows = u.reshape(1, -1) if u.ndim == 1 else u
    if rows.ndim != 2:
        raise ValueError(f"{name}: expected a vector (D,) or rows (N, D), got {u.shape}")
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= 1e-6))
    if bad.size:
        if u.ndim == 1:
            raise ValueError(f"{name}: expected a unit-norm vector")
        raise ValueError(f"{name}: row {bad[0]} is not unit-norm")
    return rows


def _cosines(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each row's dot with one prompt, summed within the row: a row's value is
    the same whatever the other rows are, where a GEMM's summation order may
    change with N."""
    return (rows * np.asarray(p, dtype=np.float64)).sum(axis=1)


def _pair_scores(rows: np.ndarray, pair: PromptPairEmbedding | tuple) -> np.ndarray:
    if isinstance(pair, PromptPairEmbedding):
        pg, pb = pair.good, pair.bad
    else:
        pg, pb = pair
    d = _cosines(rows, pb) - _cosines(rows, pg)
    return np.where(d <= 0, 1.0 / (1.0 + np.exp(d)), 1.0 - 1.0 / (1.0 + np.exp(-d)))


def _clamped_mean(columns: list[np.ndarray]) -> np.ndarray:
    """Per-row mean of the columns, clamped into the row's span."""
    s = np.stack(columns, axis=1)
    return np.clip(s.sum(axis=1) / s.shape[1], s.min(axis=1), s.max(axis=1))


def zsl_iaa_single(v: np.ndarray, pair: PromptPairEmbedding | tuple) -> float | np.ndarray:
    """Softmax-normalized preference for the 'good' prompt, in (0, 1): a float
    for one unit vector (D,), one score per row for unit rows (N, D).

    Depends on the two similarities only through their difference.
    """
    s = _pair_scores(_checked_rows("zsl_iaa_single image embedding", v), pair)
    return float(s[0]) if np.ndim(v) == 1 else s


def zsl_iaa_ensemble(v: np.ndarray, pairs) -> float | np.ndarray:
    """Arithmetic mean of the per-pair scores, clamped into their span; a
    float for one unit vector, one score per row for unit rows (N, D)."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("zsl_iaa_ensemble: empty pair list")
    rows = _checked_rows("zsl_iaa_ensemble image embedding", v)
    s = _clamped_mean([_pair_scores(rows, p) for p in pairs])
    return float(s[0]) if np.ndim(v) == 1 else s


def zsl_style_scores(v: np.ndarray, styles: StylePromptEmbeddings,
                     mode: str = "ensemble") -> dict[str, float] | dict[str, np.ndarray]:
    """Per-style cosine scores: floats for one unit image embedding (D,), one
    score per row for unit rows (N, D)."""
    rows = _checked_rows("zsl_style_scores image embedding", v)
    check_mode(mode)
    out: dict[str, np.ndarray] = {}
    for name in styles.style_names():
        if mode == "single":
            out[name] = _cosines(rows, styles.single[name])
        else:
            out[name] = _clamped_mean([_cosines(rows, p) for p in styles.ensemble[name]])
    if np.ndim(v) == 1:
        return {name: float(s[0]) for name, s in out.items()}
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
    pair alone in 'single' mode, the ensemble over all pairs otherwise. One
    scorer call covers every row."""
    unit = _unit_rows(v, mode)
    if not len(unit):
        return []
    if mode == "single":
        return zsl_iaa_single(unit, pairs[0]).tolist()
    return zsl_iaa_ensemble(unit, pairs).tolist()


def style_scores(v: np.ndarray, styles: StylePromptEmbeddings, mode: str) -> np.ndarray:
    """(N, styles) score matrix for raw image embeddings `v` (N, D), with
    columns in `styles.style_names()` order. One scorer call covers every
    row."""
    unit = _unit_rows(v, mode)
    names = styles.style_names()
    per = zsl_style_scores(unit, styles, mode)
    out = np.empty((len(unit), len(names)), dtype=np.float64)
    for j, name in enumerate(names):
        out[:, j] = per[name]
    return out


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

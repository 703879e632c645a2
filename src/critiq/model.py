"""Miniature dual-encoder/decoder vision-language model.

Pieces: a patch-based image encoder, two attentional poolers (a single-query
pooler feeding the contrastive embedding and a multi-query pooler feeding the
caption decoder), a causally-masked unimodal text decoder whose final CLS
output is the contrastive text embedding, and a multimodal decoder that
cross-attends to pooled image tokens to produce caption logits.

All forward functions accept a leading batch axis; the single-sample forms
add and strip it. Transformer blocks are pre-LN with GELU MLPs and learned
absolute positional embeddings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import tokenizer as tok
from .autodiff import Tensor

TAU_INIT = 0.07
LOG_TAU_MIN = math.log(1e-3)
LOG_TAU_MAX = math.log(10.0)


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    channels: int = 3
    patch_size: int = 8
    hidden_dim: int = 64
    n_heads: int = 4
    encoder_layers: int = 2
    unimodal_layers: int = 2
    multimodal_layers: int = 2
    mlp_dim: int = 256
    generative_pool_queries: int = 8
    vocab_size: int = 512
    max_text_length: int = 64

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ValueError(f"image_size {self.image_size} not divisible by "
                             f"patch_size {self.patch_size}")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError(f"hidden_dim {self.hidden_dim} not divisible by "
                             f"n_heads {self.n_heads}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    def param_count(self) -> int:
        """Closed-form total parameter count; must match the runtime registry."""
        d, m, v, t = self.hidden_dim, self.mlp_dim, self.vocab_size, self.max_text_length
        block = 4 * d * d + 2 * d * m + 9 * d + m          # ln1 + self-attn + ln2 + mlp
        cross_block = block + 4 * d * d + 6 * d            # + lnx + cross-attn
        total = self.patch_dim * d + d                     # patch projection
        total += self.num_patches * d                      # image positions
        total += self.encoder_layers * block + 2 * d       # encoder + final ln
        total += d + 2 * d * d                             # contrastive pooler
        total += self.generative_pool_queries * d + 2 * d * d  # generative pooler
        total += v * d                                     # token embeddings
        total += t * d                                     # text positions
        total += self.unimodal_layers * block + 2 * d      # unimodal + final ln
        total += self.multimodal_layers * cross_block + 2 * d  # multimodal + final ln
        total += d * v + v                                 # output head
        total += 1                                         # log temperature
        return total

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{f.name: int(d[f.name]) for f in fields(cls)})


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * std).astype(np.float64)


class ModelParams:
    """Named parameter registry; every tensor requires grad."""

    def __init__(self, tensors: dict[str, Tensor], config: ModelConfig):
        self.tensors = tensors
        self.config = config

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    def items(self):
        return self.tensors.items()

    def total_count(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def tau(self) -> Tensor:
        return ad.exp(self["log_tau"])

    def clamp_log_tau(self) -> None:
        self["log_tau"].data = np.clip(self["log_tau"].data, LOG_TAU_MIN, LOG_TAU_MAX)

    @staticmethod
    def _registry_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
        d, m = cfg.hidden_dim, cfg.mlp_dim
        shapes: dict[str, tuple[int, ...]] = {}

        def block(prefix: str, cross: bool = False) -> None:
            shapes[f"{prefix}/ln1/g"] = (d,)
            shapes[f"{prefix}/ln1/b"] = (d,)
            for p in ("q", "k", "v", "o"):
                shapes[f"{prefix}/attn/w{p}"] = (d, d)
                shapes[f"{prefix}/attn/b{p}"] = (d,)
            if cross:
                shapes[f"{prefix}/lnx/g"] = (d,)
                shapes[f"{prefix}/lnx/b"] = (d,)
                for p in ("q", "k", "v", "o"):
                    shapes[f"{prefix}/xattn/w{p}"] = (d, d)
                    shapes[f"{prefix}/xattn/b{p}"] = (d,)
            shapes[f"{prefix}/ln2/g"] = (d,)
            shapes[f"{prefix}/ln2/b"] = (d,)
            shapes[f"{prefix}/mlp/w1"] = (d, m)
            shapes[f"{prefix}/mlp/b1"] = (m,)
            shapes[f"{prefix}/mlp/w2"] = (m, d)
            shapes[f"{prefix}/mlp/b2"] = (d,)

        shapes["patch_proj/w"] = (cfg.patch_dim, d)
        shapes["patch_proj/b"] = (d,)
        shapes["pos/image"] = (cfg.num_patches, d)
        for i in range(cfg.encoder_layers):
            block(f"enc/{i}")
        shapes["enc/ln_f/g"] = (d,)
        shapes["enc/ln_f/b"] = (d,)
        shapes["pool/con/q"] = (1, d)
        shapes["pool/con/wk"] = (d, d)
        shapes["pool/con/wv"] = (d, d)
        shapes["pool/gen/q"] = (cfg.generative_pool_queries, d)
        shapes["pool/gen/wk"] = (d, d)
        shapes["pool/gen/wv"] = (d, d)
        shapes["tok_emb"] = (cfg.vocab_size, d)
        shapes["pos/text"] = (cfg.max_text_length, d)
        for i in range(cfg.unimodal_layers):
            block(f"uni/{i}")
        shapes["uni/ln_f/g"] = (d,)
        shapes["uni/ln_f/b"] = (d,)
        for i in range(cfg.multimodal_layers):
            block(f"mm/{i}", cross=True)
        shapes["mm/ln_f/g"] = (d,)
        shapes["mm/ln_f/b"] = (d,)
        shapes["head/w"] = (d, cfg.vocab_size)
        shapes["head/b"] = (cfg.vocab_size,)
        shapes["log_tau"] = ()
        return shapes

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int, dtype=np.float32) -> "ModelParams":
        rng = np.random.default_rng(seed)
        tensors: dict[str, Tensor] = {}
        for name, shape in cls._registry_shapes(cfg).items():
            if name == "log_tau":
                data = np.array(math.log(TAU_INIT))
            elif name.endswith("/g"):
                data = np.ones(shape)
            elif name.endswith(("/b", "/b1", "/b2", "/bq", "/bk", "/bv", "/bo")) or \
                    name == "head/b":
                data = np.zeros(shape)
            else:
                data = _trunc_normal(rng, shape)
            tensors[name] = Tensor(data.astype(dtype), requires_grad=True)
        return cls(tensors, cfg)

    def save(self, path: str, extra: dict[str, np.ndarray] | None = None) -> None:
        out: dict[str, np.ndarray] = {n: t.data for n, t in self.tensors.items()}
        for key, val in self.config.to_dict().items():
            out[f"meta/config/{key}"] = np.array(float(val))
        if extra:
            out.update(extra)
        ckpt.save(out, path)

    @classmethod
    def load(cls, path: str, expected_config: ModelConfig | None = None,
             dtype=np.float32) -> tuple["ModelParams", dict[str, np.ndarray]]:
        """Load params plus any extra (opt/meta) tensors; validates the registry."""
        raw = ckpt.load(path)
        cfg_fields = {}
        for f in fields(ModelConfig):
            key = f"meta/config/{f.name}"
            if key not in raw:
                raise ckpt.CheckpointError(f"{path}: missing '{key}'")
            cfg_fields[f.name] = raw[key]
        cfg = ModelConfig.from_dict(cfg_fields)
        # shapes first, so a size mismatch names its tensor; then what shapes miss (n_heads)
        shapes = cls._registry_shapes(expected_config or cfg)
        ckpt.validate_names(raw, shapes, path)
        diffs = [f"{k} (stored {v}, expected {getattr(expected_config, k)})"
                 for k, v in cfg.to_dict().items()
                 if expected_config is not None and v != getattr(expected_config, k)]
        if diffs:
            raise ckpt.CheckpointError(f"{path}: model config differs: {', '.join(diffs)}")
        tensors = {name: Tensor(raw[name].astype(dtype, copy=True), requires_grad=True)
                   for name in shapes}
        extra = {n: a for n, a in raw.items() if n not in shapes}
        return cls(tensors, cfg), extra


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Split into non-overlapping patches, row-major (left-to-right, top-to-bottom).

    (H, W, C) -> (K, P*P*C); a leading batch axis is carried through.
    Each output row is one patch flattened in (y, x, channel) order.
    """
    images = np.asarray(images)
    single = images.ndim == 3
    if single:
        images = images[None]
    if images.ndim != 4:
        raise ad.ShapeError(f"patchify: expected (H, W, C) or (N, H, W, C), got {images.shape}")
    n, h, w, c = images.shape
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise ad.ShapeError(f"patchify: image {h}x{w} not divisible by patch size {p}")
    patches = images.reshape(n, h // p, p, w // p, p, c)
    patches = patches.transpose(0, 1, 3, 2, 4, 5).reshape(n, (h // p) * (w // p), p * p * c)
    return patches[0] if single else patches


def _linear(x: Tensor, params: ModelParams, w: str, b: str) -> Tensor:
    return ad.linear(x, params[w], params[b])


def _attention(x: Tensor, params: ModelParams, prefix: str, n_heads: int,
               mask: np.ndarray | None = None, memory: Tensor | None = None) -> Tensor:
    """Multi-head attention from x to itself, or to `memory` when given."""
    kv = x if memory is None else memory
    q = _linear(x, params, f"{prefix}/wq", f"{prefix}/bq")
    k = _linear(kv, params, f"{prefix}/wk", f"{prefix}/bk")
    v = _linear(kv, params, f"{prefix}/wv", f"{prefix}/bv")
    out = ad.attention(q, k, v, n_heads, mask)
    return _linear(out, params, f"{prefix}/wo", f"{prefix}/bo")


def _mlp(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    h = ad.gelu(_linear(x, params, f"{prefix}/w1", f"{prefix}/b1"))
    return _linear(h, params, f"{prefix}/w2", f"{prefix}/b2")


def _block(x: Tensor, params: ModelParams, prefix: str, n_heads: int,
           mask: np.ndarray | None = None, memory: Tensor | None = None) -> Tensor:
    h = ad.layer_norm(x, params[f"{prefix}/ln1/g"], params[f"{prefix}/ln1/b"])
    x = ad.add(x, _attention(h, params, f"{prefix}/attn", n_heads, mask))
    if memory is not None:
        h = ad.layer_norm(x, params[f"{prefix}/lnx/g"], params[f"{prefix}/lnx/b"])
        x = ad.add(x, _attention(h, params, f"{prefix}/xattn", n_heads, memory=memory))
    h = ad.layer_norm(x, params[f"{prefix}/ln2/g"], params[f"{prefix}/ln2/b"])
    return ad.add(x, _mlp(h, params, f"{prefix}/mlp"))


def _causal_mask(l: int) -> np.ndarray:
    return np.tril(np.ones((l, l), dtype=bool))


def encode_image(images, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Image(s) -> visual token embeddings, (K, D) or (N, K, D)."""
    images = np.asarray(images, dtype=np.float32)
    single = images.ndim == 3
    expected = (cfg.image_size, cfg.image_size, cfg.channels)
    if (images.shape if single else images.shape[1:]) != expected:
        raise ad.ShapeError(f"encode_image: expected image shape {expected}, "
                            f"got {images.shape}")
    flat = patchify(images if not single else images[None], cfg.patch_size)
    x = Tensor(flat.astype(np.float32))
    x = _linear(x, params, "patch_proj/w", "patch_proj/b")
    x = ad.add(x, params["pos/image"])
    for i in range(cfg.encoder_layers):
        x = _block(x, params, f"enc/{i}", cfg.n_heads)
    x = ad.layer_norm(x, params["enc/ln_f/g"], params["enc/ln_f/b"])
    return ad.index(x, 0) if single else x


def attentional_pool(v: Tensor, queries: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Learned-query attention pooling: each query row is a softmax-weighted
    combination of value-projected rows of `v`.

    v: (K, D) or (N, K, D); queries: (n_q, D). Output matches v's batching.
    """
    single = v.data.ndim == 2
    if single:
        v = ad.reshape(v, (1,) + v.shape)
    if v.data.ndim != 3:
        raise ad.ShapeError(f"attentional_pool: expected 2-d or 3-d input, got {v.shape}")
    d = queries.shape[-1]
    if v.shape[-1] != d:
        raise ad.ShapeError(f"attentional_pool: dim mismatch {v.shape} vs queries {queries.shape}")
    keys = ad.matmul(v, wk)
    vals = ad.matmul(v, wv)
    scores = ad.scale(ad.matmul(queries, ad.swapaxes(keys, -1, -2)), 1.0 / math.sqrt(d))
    weights = ad.softmax(scores, axis=-1)
    pooled = ad.matmul(weights, vals)
    return ad.index(pooled, 0) if single else pooled


def pool_image(v: Tensor, params: ModelParams, which: str) -> Tensor:
    return attentional_pool(v, params[f"pool/{which}/q"],
                            params[f"pool/{which}/wk"], params[f"pool/{which}/wv"])


def _pad_sequences(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    lmax = int(lengths.max())
    ids = np.full((len(seqs), lmax), tok.PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    return ids, lengths


def _embed_tokens(ids: np.ndarray, params: ModelParams) -> Tensor:
    l = ids.shape[-1]
    x = ad.embedding(params["tok_emb"], ids)
    pos = ad.index(params["pos/text"], slice(0, l))
    return ad.add(x, pos)


def _run_unimodal(ids: np.ndarray, params: ModelParams, cfg: ModelConfig) -> Tensor:
    if ids.shape[-1] > cfg.max_text_length:
        raise ad.ShapeError(f"text length {ids.shape[-1]} exceeds maximum "
                            f"{cfg.max_text_length}")
    x = _embed_tokens(ids, params)
    mask = _causal_mask(ids.shape[-1])
    for i in range(cfg.unimodal_layers):
        x = _block(x, params, f"uni/{i}", cfg.n_heads, mask=mask)
    return ad.layer_norm(x, params["uni/ln_f/g"], params["uni/ln_f/b"])


@dataclass
class UnimodalTextState:
    hidden: Tensor      # (L, D), positions 1..L then CLS last
    cls_index: int

    @property
    def cls_output(self) -> Tensor:
        return ad.index(self.hidden, self.cls_index)


def encode_text_unimodal(tokens: list[int], params: ModelParams,
                         cfg: ModelConfig) -> UnimodalTextState:
    """Causally-masked pass over a contrastive-mode sequence (ends in CLS)."""
    if not tokens or tokens[-1] != tok.CLS:
        raise ValueError("encode_text_unimodal: sequence must end in CLS")
    ids = np.asarray([tokens], dtype=np.int64)
    w = _run_unimodal(ids, params, cfg)
    return UnimodalTextState(hidden=ad.index(w, 0), cls_index=len(tokens) - 1)


def encode_text_batch(seqs: list[list[int]], params: ModelParams,
                      cfg: ModelConfig) -> Tensor:
    """Batched contrastive text encoding -> CLS outputs (N, D)."""
    ids, lengths = _pad_sequences(seqs)
    w = _run_unimodal(ids, params, cfg)
    return ad.gather_rows(w, lengths - 1)


def contrastive_embeddings(image, tokens: list[int], params: ModelParams,
                           cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Unit-norm (image, text) embedding pair for one sample."""
    v = encode_image(image, params, cfg)
    pooled = pool_image(v, params, "con")
    x = ad.l2_normalize(ad.index(pooled, 0))
    state = encode_text_unimodal(tokens, params, cfg)
    y = ad.l2_normalize(state.cls_output)
    return x, y


def image_embedding_batch(images, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Unnormalized contrastive image embeddings (N, D)."""
    v = encode_image(images, params, cfg)
    pooled = pool_image(v, params, "con")
    return ad.reshape(pooled, (pooled.shape[0], pooled.shape[2]))


def decode_multimodal(tokens, pooled_v: Tensor, params: ModelParams,
                      cfg: ModelConfig) -> Tensor:
    """Caption logits, causal in text, cross-attending to pooled image tokens.

    tokens: list[int] with pooled_v (n_q, D), or list[list[int]] / int array
    with pooled_v (N, n_q, D). Returns (L, vocab) or (N, L, vocab).
    """
    single = pooled_v.data.ndim == 2
    if single:
        ids = np.asarray([tokens], dtype=np.int64)
        pooled_v = ad.reshape(pooled_v, (1,) + pooled_v.shape)
    else:
        ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[0] != pooled_v.shape[0]:
        raise ad.ShapeError(f"decode_multimodal: token batch {ids.shape} does not match "
                            f"pooled image batch {pooled_v.shape}")
    x = _run_unimodal(ids, params, cfg)
    mask = _causal_mask(ids.shape[-1])
    for i in range(cfg.multimodal_layers):
        x = _block(x, params, f"mm/{i}", cfg.n_heads, mask=mask, memory=pooled_v)
    x = ad.layer_norm(x, params["mm/ln_f/g"], params["mm/ln_f/b"])
    logits = _linear(x, params, "head/w", "head/b")
    return ad.index(logits, 0) if single else logits


def generate_caption(image, params: ModelParams, cfg: ModelConfig,
                     vocab: tok.Vocabulary, max_len: int = 16) -> str:
    """Greedy autoregressive decoding from BOS until EOS or max_len tokens.

    The argmax is restricted to ids the vocabulary actually assigns (the
    logit head is sized for the configured maximum, which a small corpus
    may not fill)."""
    valid = min(len(vocab), cfg.vocab_size)
    with ad.no_grad():
        v = encode_image(image, params, cfg)
        pooled = pool_image(v, params, "gen")
        seq = [tok.BOS]
        for _ in range(max_len):
            if len(seq) >= cfg.max_text_length:
                break
            logits = decode_multimodal(seq, pooled, params, cfg)
            nxt = int(np.argmax(logits.data[-1, :valid]))
            if nxt == tok.EOS:
                break
            seq.append(nxt)
    return tok.decode(seq, vocab)

"""Miniature dual-encoder/decoder vision-language model.

Pieces: a patch-based image encoder, two attentional poolers (a single-query
pooler feeding the contrastive embedding and a multi-query pooler feeding the
caption decoder), a causally-masked unimodal text decoder whose final CLS
output is the contrastive text embedding, and a multimodal decoder that
cross-attends to pooled image tokens to produce caption logits.

The image-side forward functions take a leading batch axis; the decoder also
takes one sequence. Transformer blocks are pre-LN with GELU MLPs and learned
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
from .util import check_fields

TAU_INIT = 0.07
LOG_TAU_MIN = math.log(1e-3)
LOG_TAU_MAX = math.log(10.0)


# field -> (type, op, bound) for util.check_fields. A caption needs BOS, a
# word and EOS, and the vocabulary one word beside the reserved ids.
_MODEL_RULES = {
    "image_size": (int, ">=", 1),
    "channels": (int, ">=", 1),
    "patch_size": (int, ">=", 1),
    "hidden_dim": (int, ">=", 1),
    "n_heads": (int, ">=", 1),
    "encoder_layers": (int, ">=", 0),
    "unimodal_layers": (int, ">=", 0),
    "multimodal_layers": (int, ">=", 0),
    "mlp_dim": (int, ">=", 1),
    "generative_pool_queries": (int, ">=", 1),
    "vocab_size": (int, ">=", len(tok.RESERVED) + 1),
    "max_text_length": (int, ">=", 3),
}


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
        check_fields(self, _MODEL_RULES)
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
        """From JSON values, checked as given, or from a checkpoint's 0-d arrays."""
        names = [f.name for f in fields(cls)]
        if set(d) != set(names):
            raise ValueError(f"model config fields missing: {sorted(set(names) - set(d))}, "
                             f"unknown: {sorted(set(d) - set(names))}")
        return cls(**{n: int(v) if isinstance(v := d[n], np.ndarray) else v for n in names})


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
        """Clip log_tau into its range in place, so an optimizer arena that
        holds its array keeps training it."""
        log_tau = self["log_tau"].data
        np.clip(log_tau, LOG_TAU_MIN, LOG_TAU_MAX, out=log_tau)

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
        return cls.from_tensors(ckpt.load(path), path, expected_config, dtype)

    @classmethod
    def from_tensors(cls, raw: dict[str, np.ndarray], path: str,
                     expected_config: ModelConfig | None = None, dtype=np.float32
                     ) -> tuple["ModelParams", dict[str, np.ndarray]]:
        """`load` on tensors already read from the checkpoint at `path`."""
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

    (N, H, W, C) -> (N, K, P*P*C). Each output row is one patch flattened in
    (y, x, channel) order.
    """
    images = np.asarray(images)
    if images.ndim != 4:
        raise ad.ShapeError(f"patchify: expected (N, H, W, C), got {images.shape}")
    n, h, w, c = images.shape
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise ad.ShapeError(f"patchify: image {h}x{w} not divisible by patch size {p}")
    patches = images.reshape(n, h // p, p, w // p, p, c)
    return patches.transpose(0, 1, 3, 2, 4, 5).reshape(n, (h // p) * (w // p), p * p * c)


def _linear(x: Tensor, params: ModelParams, w: str, b: str) -> Tensor:
    return ad.linear(x, params[w], params[b])


def _attention(q: Tensor, src: Tensor, params: ModelParams, prefix: str, n_heads: int,
               mask: np.ndarray | None = None, cache: dict | None = None,
               cross: bool = False) -> Tensor:
    """Multi-head attention of the projected queries `q` to the keys and values
    projected from `src`: the queries' own normed input, or with `cross` the
    pooled image tokens.

    With a `cache`, the keys and values stored under `prefix` are reused:
    self-attention appends its new ones to them, cross-attention projects
    `src` only on the first call."""
    kv = None if cache is None else cache.get(prefix)
    if kv is None or not cross:
        k = _linear(src, params, f"{prefix}/wk", f"{prefix}/bk")
        v = _linear(src, params, f"{prefix}/wv", f"{prefix}/bv")
        if kv is not None:
            k, v = (Tensor(np.concatenate((old.data, new.data), axis=1))
                    for old, new in zip(kv, (k, v)))
        kv = (k, v)
        if cache is not None:
            cache[prefix] = kv
    out = ad.attention(q, *kv, n_heads, mask)
    return _linear(out, params, f"{prefix}/wo", f"{prefix}/bo")


def _mlp(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    h = ad.gelu(_linear(x, params, f"{prefix}/w1", f"{prefix}/b1"))
    return _linear(h, params, f"{prefix}/w2", f"{prefix}/b2")


def _to_cross(x: Tensor, params: ModelParams, prefix: str, n_heads: int,
               mask: np.ndarray | None = None, cross: bool = False,
               cache: dict | None = None) -> tuple[Tensor, Tensor | None]:
    """A block up to its cross-attention: the residual after the self-attention
    sublayer and, with `cross`, the cross-attention query (else None). In the
    decoder neither depends on the image."""
    h = ad.layer_norm(x, params[f"{prefix}/ln1/g"], params[f"{prefix}/ln1/b"])
    q = _linear(h, params, f"{prefix}/attn/wq", f"{prefix}/attn/bq")
    x = ad.add(x, _attention(q, h, params, f"{prefix}/attn", n_heads, mask, cache))
    if not cross:
        return x, None
    h = ad.layer_norm(x, params[f"{prefix}/lnx/g"], params[f"{prefix}/lnx/b"])
    return x, _linear(h, params, f"{prefix}/xattn/wq", f"{prefix}/xattn/bq")


def _from_cross(x: Tensor, q: Tensor | None, params: ModelParams, prefix: str,
                n_heads: int, memory: Tensor | None = None,
                cache: dict | None = None) -> Tensor:
    """The rest of a block from its cross-attention: that of `q` to
    `memory`, when given, then the MLP sublayer."""
    if memory is not None:
        x = ad.add(x, _attention(q, memory, params, f"{prefix}/xattn", n_heads,
                                 cache=cache, cross=True))
    h = ad.layer_norm(x, params[f"{prefix}/ln2/g"], params[f"{prefix}/ln2/b"])
    return ad.add(x, _mlp(h, params, f"{prefix}/mlp"))


def _block(x: Tensor, params: ModelParams, prefix: str, n_heads: int,
           mask: np.ndarray | None = None) -> Tensor:
    """A pre-LN self-attention block (encoder and unimodal stacks)."""
    return _from_cross(*_to_cross(x, params, prefix, n_heads, mask), params, prefix, n_heads)


def _causal_mask(l: int, start: int) -> np.ndarray | None:
    """Which of start + l keys each of l new text positions may see; None for
    a single position, which sees them all."""
    return np.tri(l, start + l, start, dtype=bool) if l > 1 else None


def encode_image(images, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Images (N, H, W, C) -> visual token embeddings (N, K, D)."""
    images = np.asarray(images, dtype=np.float32)
    expected = (cfg.image_size, cfg.image_size, cfg.channels)
    if images.ndim != 4 or images.shape[1:] != expected:
        raise ad.ShapeError(f"encode_image: expected images of shape (N,) + {expected}, "
                            f"got {images.shape}")
    x = Tensor(patchify(images, cfg.patch_size).astype(np.float32))
    x = _linear(x, params, "patch_proj/w", "patch_proj/b")
    x = ad.add(x, params["pos/image"])
    for i in range(cfg.encoder_layers):
        x = _block(x, params, f"enc/{i}", cfg.n_heads)
    return ad.layer_norm(x, params["enc/ln_f/g"], params["enc/ln_f/b"])


def attentional_pool(v: Tensor, queries: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Learned-query attention pooling: each query row is a softmax-weighted
    combination of value-projected rows of `v`, by one-head attention.

    v: (N, K, D); queries: (n_q, D). Returns (N, n_q, D).
    """
    return ad.attention(queries, ad.matmul(v, wk), ad.matmul(v, wv), 1)


def pool_image(v: Tensor, params: ModelParams, which: str) -> Tensor:
    return attentional_pool(v, params[f"pool/{which}/q"],
                            params[f"pool/{which}/wk"], params[f"pool/{which}/wv"])


def _run_unimodal(ids: np.ndarray, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Causal unimodal stack over text positions 0, 1, ... of `ids`."""
    l = ids.shape[-1]
    if l > cfg.max_text_length:
        raise ad.ShapeError(f"text length {l} exceeds maximum {cfg.max_text_length}")
    x = ad.add(ad.embedding(params["tok_emb"], ids), ad.index(params["pos/text"], slice(0, l)))
    mask = _causal_mask(l, 0)
    for i in range(cfg.unimodal_layers):
        x = _block(x, params, f"uni/{i}", cfg.n_heads, mask=mask)
    return ad.layer_norm(x, params["uni/ln_f/g"], params["uni/ln_f/b"])


def encode_text_batch(seqs: list[list[int]], params: ModelParams,
                      cfg: ModelConfig) -> Tensor:
    """Batched contrastive text encoding -> CLS outputs (N, D)."""
    w = _run_unimodal(tok.pad_ids(seqs), params, cfg)
    return ad.gather_rows(w, np.array([len(s) for s in seqs]) - 1)


def encode_text_views(seqs: list[list[int]], ids, params: ModelParams,
                      cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """One unimodal pass over two text views of a batch: the contrastive CLS
    outputs of `seqs` (N, D), as `encode_text_batch` gives them, and the
    unimodal outputs at the decoder input `ids` (N, L, D), for
    `decode_multimodal(..., unimodal=)`. Both views go through the stack as one
    (2N, L') batch padded to the longer of them; under the causal mask the
    extra PADs reach no real position."""
    con = tok.pad_ids(seqs)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[0] != con.shape[0]:
        raise ad.ShapeError(f"encode_text_views: decoder ids {ids.shape} do not match "
                            f"{con.shape[0]} contrastive sequences")
    n, l = ids.shape
    both = np.full((2 * n, max(con.shape[1], l)), tok.PAD, dtype=np.int64)
    both[:n, :con.shape[1]] = con
    both[n:, :l] = ids
    x = _run_unimodal(both, params, cfg)
    cls = ad.gather_rows(ad.index(x, slice(0, n)), np.array([len(s) for s in seqs]) - 1)
    return cls, ad.index(x, (slice(n, None), slice(0, l)))


def image_embedding_batch(images, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Unnormalized contrastive image embeddings (N, D)."""
    v = encode_image(images, params, cfg)
    pooled = pool_image(v, params, "con")
    return ad.reshape(pooled, (pooled.shape[0], pooled.shape[2]))


def _text_state(x: Tensor, params: ModelParams, cfg: ModelConfig,
                mask: np.ndarray | None) -> tuple[Tensor, Tensor | None]:
    """The caption decoder's text-only state from the unimodal output `x`:
    mm/0's residual after self-attention and its cross-attention query, the
    two inputs of that layer's cross-attention. Without multimodal layers it
    is `x` itself, with no query."""
    if not cfg.multimodal_layers:
        return x, None
    return _to_cross(x, params, "mm/0", cfg.n_heads, mask, cross=True)


class PrefixCache:
    """The caption decoder's text-only state by token prefix, bound to one
    `ModelParams`, and the captions already decoded with it.

    Up to mm/0's cross-attention the decoder never sees the image, so its
    state at a prefix's last position (see `_text_state`) is the same for
    every image. One cache shared by the captions of a run keeps it per
    distinct prefix as a (2, D) row, the residual above the query: 2·D
    floats, 512 bytes at the default sizes ((1, D), the unimodal output, for
    a model without multimodal layers). A miss runs the unimodal stack and
    mm/0's text-only half once over the whole prefix. The cache also keeps
    each distinct finished caption ([BOS] + words, + EOS if the model ended
    it) with a copy of the pooled generative image tokens of the last image
    that gave it; later images draft from them (see `generate_caption`).
    The params must not change while the cache is in use."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.rows: dict[tuple[int, ...], np.ndarray] = {}
        self.captions: list[tuple[int, ...]] = []        # in the order first stored
        # (capacity, n_q, D), doubled when full; row i holds caption i's tokens
        self.pooled: np.ndarray | None = None
        self.index: dict[tuple[int, ...], int] = {}      # caption -> its row in both
        self.extending: dict[tuple[int, ...], list[int]] = {}  # prefix -> longer captions

    def states(self, seq: list[int], start: int, params: ModelParams,
               cfg: ModelConfig) -> tuple[Tensor, Tensor | None]:
        """The text-only state at positions start, start+1, ... of `seq`, each
        part (1, len(seq) - start, D), from one stored row per position's
        prefix."""
        if params is not self.params:
            raise ValueError("prefix cache was built for other ModelParams")
        out = []
        for end in range(start + 1, len(seq) + 1):
            prefix = tuple(seq[:end])
            row = self.rows.get(prefix)
            if row is None:
                x = _run_unimodal(np.asarray([prefix], dtype=np.int64), params, cfg)
                state = _text_state(x, params, cfg, _causal_mask(end, 0))
                row = self.rows[prefix] = np.stack([t.data[0, -1] for t in state
                                                    if t is not None])
            out.append(row)
        parts = np.stack(out, axis=1)[:, None]            # (1 or 2, 1, L, D)
        return Tensor(parts[0]), Tensor(parts[1]) if len(parts) == 2 else None

    def remember(self, caption: tuple[int, ...], pooled: np.ndarray) -> None:
        """Store a finished caption with a copy of the pooled image tokens that
        gave it; a caption stored before keeps its index and takes the newer
        tokens."""
        i = self.index.setdefault(caption, len(self.captions))
        if i == len(self.captions):
            self.captions.append(caption)
            for end in range(1, len(caption)):
                self.extending.setdefault(caption[:end], []).append(i)
            if self.pooled is None or i == len(self.pooled):
                grown = np.empty((max(1, 2 * i),) + pooled.shape, dtype=pooled.dtype)
                if i:
                    grown[:i] = self.pooled
                self.pooled = grown
        self.pooled[i] = pooled

    def distances(self, pooled: np.ndarray) -> np.ndarray:
        """Squared L2 distance from `pooled` to each stored caption's tokens."""
        if not self.captions:
            return np.zeros(0)
        return ((self.pooled[:len(self.captions)] - pooled) ** 2).sum(axis=(1, 2))

    def draft(self, seq: list[int], dist: np.ndarray) -> tuple[int, ...]:
        """The stored caption longer than `seq` that begins with it and lies
        nearest by `dist`, the first stored on a tie; () if none does."""
        ids = self.extending.get(tuple(seq))
        if ids is None:
            return ()
        return self.captions[ids[int(np.argmin(dist[ids]))]]


def decode_multimodal(tokens, pooled_v: Tensor, params: ModelParams,
                      cfg: ModelConfig, cache: dict | None = None,
                      unimodal: Tensor | None = None) -> Tensor:
    """Caption logits, causal in text, cross-attending to pooled image tokens.

    tokens: list[int] with pooled_v (n_q, D), or list[list[int]] / int array
    with pooled_v (N, n_q, D). Returns (L, vocab) or (N, L, vocab).

    `cache` is a dict the caller owns for one image's sequence, empty at the
    first call but for an optional `PrefixCache` under "prefixes" (a fresh one
    is made otherwise). With one, each call feeds only the tokens that follow
    those already fed: the text-only state comes from the prefix cache, so
    mm/0 starts at its cross-attention, and the self-attention keys and values
    of earlier positions in layers mm/1, mm/2, ... (the only per-image
    key/value cache beside the projected image tokens) are reused instead of
    recomputed. Cached arrays are cut from the graph, so a cache needs
    `ad.no_grad()`.

    `unimodal`, without a cache, is the unimodal output at a token batch
    (N, L, D) that the caller already ran (see `encode_text_views`); the
    unimodal stack then does not run again.
    """
    if cache is not None and ad.grad_enabled():
        raise RuntimeError("decode_multimodal: a cache needs ad.no_grad(); cached keys "
                           "and values are cut from the graph")
    single = pooled_v.data.ndim == 2
    if single:
        ids = np.asarray([tokens], dtype=np.int64)
        pooled_v = ad.reshape(pooled_v, (1,) + pooled_v.shape)
    else:
        ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[0] != pooled_v.shape[0]:
        raise ad.ShapeError(f"decode_multimodal: token batch {ids.shape} does not match "
                            f"pooled image batch {pooled_v.shape}")
    start = 0 if cache is None else len(cache.get("tokens", []))
    mask = _causal_mask(ids.shape[-1], start)
    if unimodal is not None:
        if cache is not None or unimodal.shape[:-1] != ids.shape:
            raise ad.ShapeError(f"decode_multimodal: unimodal output {unimodal.shape} "
                                f"does not match token batch {ids.shape}, or comes "
                                "with a cache")
        x, q = _text_state(unimodal, params, cfg, mask)
    elif cache is None:
        x, q = _text_state(_run_unimodal(ids, params, cfg), params, cfg, mask)
    else:
        if ids.shape[0] != 1:
            raise ad.ShapeError(f"decode_multimodal: a cache holds one sequence, "
                                f"got a batch of {ids.shape[0]}")
        if "prefixes" not in cache:
            cache["prefixes"] = PrefixCache(params)
        seq = cache.get("tokens", []) + ids[0].tolist()
        x, q = cache["prefixes"].states(seq, start, params, cfg)
        cache["tokens"] = seq
    for i in range(cfg.multimodal_layers):
        if i:
            x, q = _to_cross(x, params, f"mm/{i}", cfg.n_heads, mask, cross=True,
                             cache=cache)
        x = _from_cross(x, q, params, f"mm/{i}", cfg.n_heads, pooled_v, cache)
    x = ad.layer_norm(x, params["mm/ln_f/g"], params["mm/ln_f/b"])
    logits = _linear(x, params, "head/w", "head/b")
    return ad.index(logits, 0) if single else logits


def check_max_len(max_len: int) -> None:
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")


def _rollback(cache: dict, keep: int) -> None:
    """Cut a per-image decode cache back to its first `keep` fed positions:
    the tokens and the self-attention keys and values of layers mm/1, mm/2,
    ..., the only ones it holds (mm/0's text-only state is in the prefix
    cache, whose rows stay valid). Cross-attention entries stay, as their
    axis 1 is the pooled image queries."""
    del cache["tokens"][keep:]
    for name, kv in cache.items():
        if name.endswith("/attn"):
            cache[name] = tuple(Tensor(t.data[:, :keep]) for t in kv)


def generate_caption(pooled, params: ModelParams, cfg: ModelConfig,
                     vocab: tok.Vocabulary, max_len: int = 16,
                     prefixes: PrefixCache | None = None) -> str:
    """Greedy autoregressive decoding from BOS until EOS or max_len tokens, for
    one image given by its pooled generative tokens (n_q, D): a row of
    `pool_image(encode_image(images, ...), ..., "gen")`.

    The argmax is restricted to ids the vocabulary actually assigns (the
    logit head is sized for the configured maximum, which a small corpus
    may not fill). A key/value cache holds the decoded prefix, and each call
    feeds the newest token plus a draft: the rest of the caption in
    `prefixes` that extends the tokens so far and whose image tokens are
    nearest to this image's. The longest draft prefix that matches the
    per-position argmax is kept, with the argmax after it, and the cache is
    cut back past the first mismatch, so the caption is the one that
    one-token greedy steps give. Pass one `prefixes` cache to the calls for
    many images to share their text-only states and their captions; a fresh
    one is made if none is given."""
    check_max_len(max_len)
    pooled = np.asarray(pooled)
    if pooled.shape != (cfg.generative_pool_queries, cfg.hidden_dim):
        raise ad.ShapeError(f"generate_caption: expected pooled generative tokens of shape "
                            f"{(cfg.generative_pool_queries, cfg.hidden_dim)}, "
                            f"got {pooled.shape}")
    valid = min(len(vocab), cfg.vocab_size)
    end = min(max_len + 1, cfg.max_text_length)   # longest [BOS] + caption
    if prefixes is None:
        prefixes = PrefixCache(params)
    memory = Tensor(pooled)
    with ad.no_grad():
        dist = prefixes.distances(pooled)
        seq, done = [tok.BOS], False
        cache = {"prefixes": prefixes}
        while not done and len(seq) < end:
            n = len(seq)
            # a draft token at position p is fed only if the argmax after it
            # may still be taken (p <= end - 2); a trailing EOS is never fed
            feed = seq[-1:] + [t for t in prefixes.draft(seq, dist)[n:end - 1]
                               if t != tok.EOS]
            logits = decode_multimodal(feed, memory, params, cfg, cache).data
            for row in range(len(feed)):
                nxt = int(np.argmax(logits[row, :valid]))
                done = nxt == tok.EOS
                if done:
                    break
                seq.append(nxt)
                if row + 1 == len(feed) or feed[row + 1] != nxt:
                    break
            if not done and len(seq) < n + len(feed):
                _rollback(cache, len(seq) - 1)
        prefixes.remember(tuple(seq) + ((tok.EOS,) if done else ()), pooled)
    return tok.decode(seq, vocab)

"""Independent brute-force oracles shared by the metric, model, zero-shot and
image tests and the acceptance suite. These deliberately use different data
structures and control flow from the library implementations."""

import hashlib
import math

import numpy as np

from critiq import autodiff as ad
from critiq import optim
from critiq import tokenizer as tok
from critiq import zsl
from critiq.model import (ModelConfig, ModelParams, PrefixCache, _run_unimodal,
                          decode_multimodal, encode_image, pool_image)


def brute_force_ap(scores, labels):
    """AP by walking the stable descending order with explicit loops."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, out = 0, []
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            out.append(hits / rank)
    return sum(out) / len(out)


def brute_force_bleu(cand, refs, n):
    """Direct translation of the modified-precision definition."""
    cand = cand.split() if isinstance(cand, str) else list(cand)
    refs = [r.split() if isinstance(r, str) else list(r) for r in refs]
    if not cand:
        return 0.0
    precisions = []
    for k in range(1, n + 1):
        grams = [tuple(cand[i:i + k]) for i in range(len(cand) - k + 1)]
        if not grams:
            return 0.0
        clipped = 0
        for g in set(grams):
            count = grams.count(g)
            best = 0
            for r in refs:
                rg = [tuple(r[i:i + k]) for i in range(len(r) - k + 1)]
                best = max(best, rg.count(g))
            clipped += min(count, best)
        if clipped == 0:
            return 0.0
        precisions.append(clipped / len(grams))
    closest = sorted(refs, key=lambda r: (abs(len(r) - len(cand)), len(r)))[0]
    bp = min(1.0, math.exp(1 - len(closest) / len(cand)))
    return bp * math.exp(sum(math.log(p) for p in precisions) / n)


def brute_force_lcs(a, b):
    """Plain recursive LCS with memoization."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def brute_force_rouge_l(cand, refs):
    cand = cand.split() if isinstance(cand, str) else list(cand)
    refs = [r.split() if isinstance(r, str) else list(r) for r in refs]
    best = 0.0
    for r in refs:
        if not cand or not r:
            continue
        lcs = brute_force_lcs(tuple(cand), tuple(r))
        if lcs:
            p, rr = lcs / len(cand), lcs / len(r)
            best = max(best, 2 * p * rr / (p + rr))
    return best


def brute_force_cider(pairs):
    """Dense-vector TF-IDF oracle: explicit vocabulary, numpy cosines."""
    toks = [(c.split(), [r.split() for r in refs]) for c, refs in pairs]
    n_images = len(toks)
    total = []
    for n in range(1, 5):
        vocab = {}
        for c, refs in toks:
            for sent in [c] + refs:
                for i in range(len(sent) - n + 1):
                    vocab.setdefault(tuple(sent[i:i + n]), len(vocab))
        df = np.zeros(len(vocab))
        for _, refs in toks:
            seen = set()
            for sent in refs:
                for i in range(len(sent) - n + 1):
                    seen.add(vocab[tuple(sent[i:i + n])])
            for idx in seen:
                df[idx] += 1

        def vec(sent):
            v = np.zeros(len(vocab))
            for i in range(len(sent) - n + 1):
                v[vocab[tuple(sent[i:i + n])]] += 1
            idf = np.where(df > 0, np.log(n_images / np.maximum(df, 1e-300)), 0.0)
            return v * idf

        sims = []
        for c, refs in toks:
            cv = vec(c)
            per_ref = []
            for r in refs:
                rv = vec(r)
                denom = np.linalg.norm(cv) * np.linalg.norm(rv)
                per_ref.append(0.0 if denom == 0 else float(cv @ rv) / denom)
            sims.append(sum(per_ref) / len(per_ref))
        total.append(sims)
    return 10.0 * np.mean(np.array(total), axis=0)


def brute_force_srcc(preds, labels):
    """Spearman via explicit average ranks and the covariance formula."""
    def ranks(x):
        x = list(x)
        order = sorted(range(len(x)), key=lambda i: x[i])
        out = [0.0] * len(x)
        i = 0
        while i < len(x):
            j = i
            while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    return brute_force_plcc(ranks(preds), ranks(labels))


def brute_force_plcc(preds, labels):
    n = len(preds)
    mp = sum(preds) / n
    ml = sum(labels) / n
    cov = sum((p - mp) * (l - ml) for p, l in zip(preds, labels))
    sp = math.sqrt(sum((p - mp) ** 2 for p in preds))
    sl = math.sqrt(sum((l - ml) ** 2 for l in labels))
    return cov / (sp * sl)


def brute_force_unfilter(raw: bytes, h: int, w: int, c: int) -> np.ndarray:
    """PNG scanline unfiltering one byte at a time, straight from the filter
    definitions: (h, w, c) uint8 from h rows of one filter-type byte plus
    w * c filtered bytes."""
    stride = w * c
    out = np.zeros((h, stride), dtype=np.uint8)
    pos = 0
    for row in range(h):
        if pos + 1 + stride > len(raw):
            raise ValueError("truncated PNG scanline data")
        ftype = raw[pos]
        line = np.frombuffer(raw, dtype=np.uint8, offset=pos + 1, count=stride).astype(np.int32)
        pos += 1 + stride
        prev = out[row - 1].astype(np.int32) if row > 0 else np.zeros(stride, dtype=np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 1:
            cur = line.copy()
            for i in range(stride):
                left = cur[i - c] if i >= c else 0
                cur[i] = (line[i] + left) & 0xFF
        elif ftype == 2:
            cur = (line + prev) & 0xFF
        elif ftype == 3:
            cur = line.copy()
            for i in range(stride):
                left = cur[i - c] if i >= c else 0
                cur[i] = (line[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ftype == 4:
            cur = line.copy()
            for i in range(stride):
                a = cur[i - c] if i >= c else 0
                b = prev[i]
                cc = prev[i - c] if i >= c else 0
                p = a + b - cc
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = cc
                cur[i] = (line[i] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {ftype}")
        out[row] = cur.astype(np.uint8)
    return out.reshape(h, w, c)


def encode_text_unimodal(tokens: list[int], params: ModelParams,
                         cfg: ModelConfig) -> ad.Tensor:
    """One contrastive-mode sequence (ends in CLS) alone through the causal
    unimodal stack, with no padding: the (L, D) hidden states, whose last row
    is the CLS output. The per-position reference for the batched encoders."""
    if not tokens or tokens[-1] != tok.CLS:
        raise ValueError("encode_text_unimodal: sequence must end in CLS")
    ids = np.asarray([tokens], dtype=np.int64)
    return ad.index(_run_unimodal(ids, params, cfg), 0)


def gen_tokens(image, params: ModelParams, cfg: ModelConfig) -> np.ndarray:
    """One (H, W, C) image's pooled generative tokens (n_q, D), encoded as a
    batch of one: the reference for tokens pooled from a chunk of images."""
    with ad.no_grad():
        images = np.asarray(image)[None]
        return pool_image(encode_image(images, params, cfg), params, "gen").data[0]


def uncached_greedy_caption(image, params: ModelParams, cfg: ModelConfig,
                            vocab: tok.Vocabulary, max_len: int) -> str:
    """Greedy captioning that decodes the whole prefix afresh at every step,
    with no cache of any kind: the reference for the cached decoder."""
    valid = min(len(vocab), cfg.vocab_size)
    pooled = ad.Tensor(gen_tokens(image, params, cfg))
    with ad.no_grad():
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


def stepwise_caption(image, params: ModelParams, cfg: ModelConfig, vocab: tok.Vocabulary,
                     max_len: int, prefixes: PrefixCache | None = None) -> str:
    """Greedy captioning with one cached decode call per token and no drafts:
    each call feeds only the newest token, while a key/value cache and the
    unimodal rows of `prefixes` (fresh if None) hold the rest of the prefix.
    The reference for the draft-and-verify decoder."""
    valid = min(len(vocab), cfg.vocab_size)
    pooled = ad.Tensor(gen_tokens(image, params, cfg))
    with ad.no_grad():
        seq = [tok.BOS]
        cache = {"prefixes": prefixes or PrefixCache(params)}
        for _ in range(max_len):
            if len(seq) >= cfg.max_text_length:
                break
            logits = decode_multimodal(seq[-1:], pooled, params, cfg, cache)
            nxt = int(np.argmax(logits.data[-1, :valid]))
            if nxt == tok.EOS:
                break
            seq.append(nxt)
    return tok.decode(seq, vocab)


class PerTensorAdamW:
    """AdamW updated tensor by tensor, each with its own moment arrays, and
    skipping tensors without a gradient: the reference for the flat-arena
    `optim.AdamW`, which must match it byte for byte."""

    def __init__(self, params: dict, weight_decay: float = 0.0,
                 no_decay: tuple[str, ...] = ("log_tau",)):
        self.params = params
        self.weight_decay = weight_decay
        self.no_decay = no_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - optim.BETA1 ** self.step_count
        bc2 = 1.0 - optim.BETA2 ** self.step_count
        for name, t in self.params.items():
            if t.grad is None:
                continue
            g = t.grad
            dt = t.data.dtype.type
            m, v = self.m[name], self.v[name]
            m *= dt(optim.BETA1)
            m += dt(1 - optim.BETA1) * g
            v *= dt(optim.BETA2)
            v += dt(1 - optim.BETA2) * (g * g)
            denom = np.sqrt(v / dt(bc2))
            denom += dt(optim.EPS)
            update = m / dt(bc1)
            update /= denom
            if self.weight_decay > 0 and name not in self.no_decay:
                update += dt(self.weight_decay) * t.data
            update *= dt(lr)
            t.data = t.data - update


def per_tensor_global_norm(grads) -> float:
    """The joint L2 norm of several gradient arrays, each squared and summed
    in float64 on its own: the reference for the flat, blocked norm."""
    return math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))


def assert_arena_views(opt: optim.AdamW, tensors: dict) -> None:
    """Every parameter and both of its moments still live in the arenas."""
    state = opt.state_tensors()
    for name, t in tensors.items():
        assert np.shares_memory(t.data, opt.data), name
        assert np.shares_memory(state[f"opt/m/{name}"], opt._m), name
        assert np.shares_memory(state[f"opt/v/{name}"], opt._v), name


def sha256_file(path: str) -> bytes:
    """SHA-256 of a file's bytes, read in chunks apart from any parser."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


def mean(a: ad.Tensor, axis=None) -> ad.Tensor:
    """A mean reduction op on the autodiff engine's private `_make` and
    `_accumulate`; no model code uses it, and its finite-difference cases
    keep the reduction gradient rule covered."""
    count = a.data.size if axis is None else a.shape[axis]
    out_data = a.data.mean(axis=axis)

    def backward_fn(g):
        if axis is None:
            ad._accumulate(a, np.broadcast_to(g / count, a.shape).copy())
        else:
            ad._accumulate(a, np.broadcast_to(np.expand_dims(g / count, axis),
                                              a.shape).copy())

    return ad._make(np.asarray(out_data, dtype=a.dtype), (a,), backward_fn)


def softmax(a: ad.Tensor, axis: int = -1) -> ad.Tensor:
    """A softmax op on the autodiff engine's private `_make` and `_accumulate`;
    model code reaches softmax only inside `ad.attention`, and this is the
    unfused chains' reference and keeps its gradient rule covered."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        ad._accumulate(a, p * (g - dot))

    return ad._make(p, (a,), backward_fn)


def formula_gelu(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh GELU and its input gradient for an upstream gradient `g`, each
    written as one expression with a temporary per operation: the reference
    that the in-place `ad.gelu` must match byte for byte."""
    c = 0.7978845608028654  # sqrt(2/pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    out = (0.5 * x * (1.0 + t)).astype(x.dtype)
    sech2 = 1.0 - t * t
    d_inner = c * (1.0 + 3 * 0.044715 * x * x)
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner)


def unfused_pool(v: ad.Tensor, queries: ad.Tensor, wk: ad.Tensor,
                 wv: ad.Tensor) -> ad.Tensor:
    """Attentional pooling of (N, K, D) tokens as the seven-node chain that
    `ad.attention` with shared queries replaced: key and value matmuls,
    swapaxes, score matmul, scale, softmax, output matmul."""
    keys = ad.matmul(v, wk)
    vals = ad.matmul(v, wv)
    scores = ad.scale(ad.matmul(queries, ad.swapaxes(keys, -1, -2)),
                      1.0 / math.sqrt(queries.shape[-1]))
    return ad.matmul(softmax(scores, axis=-1), vals)


def scalar_iaa_single(v, good, bad) -> float:
    """One image's score for one prompt pair as a scalar Python call: two BLAS
    dots, then the sign-branch sigmoid with math.exp."""
    v = np.asarray(v, dtype=np.float64)
    d = float(v @ np.asarray(bad, dtype=np.float64)) - float(
        v @ np.asarray(good, dtype=np.float64))
    if d <= 0:
        return 1.0 / (1.0 + math.exp(d))
    return 1.0 - 1.0 / (1.0 + math.exp(-d))


def _clamped_fsum_mean(xs: list[float]) -> float:
    m = math.fsum(xs) / len(xs)
    return min(max(m, min(xs)), max(xs))


def scalar_iaa_ensemble(v, pairs) -> float:
    """The pair scores' exactly rounded mean, clamped into their span."""
    return _clamped_fsum_mean([scalar_iaa_single(v, p.good, p.bad) for p in pairs])


def scalar_style_scores(v, styles, mode: str) -> dict[str, float]:
    """One image's style cosines, one BLAS dot per prompt; the ensemble takes
    each style's exactly rounded mean, clamped into its span."""
    v = np.asarray(v, dtype=np.float64)
    if mode == "single":
        return {name: float(v @ np.asarray(p, dtype=np.float64))
                for name, p in styles.single.items()}
    return {name: _clamped_fsum_mean([float(v @ np.asarray(p, dtype=np.float64))
                                      for p in prompts])
            for name, prompts in styles.ensemble.items()}


def recounting_bleu_n(candidate, references, n: int) -> float:
    """Sentence BLEU-n that recounts every reference's n-grams once per
    candidate n-gram: the reference for the count-once `metrics.bleu_n`."""
    cand = candidate.split() if isinstance(candidate, str) else list(candidate)
    refs = [r.split() if isinstance(r, str) else list(r) for r in references]
    if not cand:
        return 0.0

    def counts(tokens, k):
        out = {}
        for i in range(len(tokens) - k + 1):
            g = tuple(tokens[i:i + k])
            out[g] = out.get(g, 0) + 1
        return out

    log_precisions = []
    for k in range(1, n + 1):
        cand_counts = counts(cand, k)
        total = sum(cand_counts.values())
        if total == 0:
            return 0.0
        clipped = 0
        for g, c in cand_counts.items():
            best = max((counts(r, k).get(g, 0) for r in refs), default=0)
            clipped += min(c, best)
        if clipped == 0:
            return 0.0
        log_precisions.append(math.log(clipped / total))
    c_len = len(cand)
    r_len = min((abs(len(r) - c_len), len(r)) for r in refs)[1]
    bp = min(1.0, math.exp(1.0 - r_len / c_len))
    return bp * math.exp(sum(log_precisions) / n)


def recounting_cider_scores(pairs) -> np.ndarray:
    """Per-image CIDEr that counts every reference's n-grams twice, once for
    the document frequencies and again for its vector, and rebuilds each
    candidate's vector and norm for every image: the reference for the
    count-once, memoized `metrics.cider_scores`, which must match it byte for
    byte."""
    def counts(tokens, k):
        out = {}
        for i in range(len(tokens) - k + 1):
            g = tuple(tokens[i:i + k])
            out[g] = out.get(g, 0) + 1
        return out

    pairs = [(c.split(), [r.split() for r in refs]) for c, refs in pairs]
    n_images = len(pairs)
    dfs = [{} for _ in range(4)]
    for _, refs in pairs:
        for k in range(1, 5):
            seen = set()
            for ref in refs:
                seen.update(counts(ref, k))
            for g in seen:
                dfs[k - 1][g] = dfs[k - 1].get(g, 0) + 1

    def tfidf(tokens, k):
        vec = {}
        for g, c in counts(tokens, k).items():
            df = dfs[k - 1].get(g, 0)
            if df > 0:
                vec[g] = c * math.log(n_images / df)
        return vec

    def cosine(u, w):
        nu = math.sqrt(math.fsum(x * x for x in u.values()))
        nw = math.sqrt(math.fsum(x * x for x in w.values()))
        if nu == 0.0 or nw == 0.0:
            return 0.0
        if u == w:
            return 1.0
        return math.fsum(u[g] * w[g] for g in u if g in w) / (nu * nw)

    out = np.zeros(n_images, dtype=np.float64)
    for i, (cand, refs) in enumerate(pairs):
        per_n = []
        for k in range(1, 5):
            cv = tfidf(cand, k)
            sims = [cosine(cv, tfidf(r, k)) for r in refs]
            per_n.append(math.fsum(sims) / len(sims))
        out[i] = 10.0 * math.fsum(per_n) / 4
    return out


def assert_match_scalar_oracle(rows, pairs, styles) -> None:
    """The batched scorers against one scalar oracle call per row, within
    1e-12: the batch sums each row's products in numpy's order, where the
    oracle uses BLAS dots and an exactly rounded mean."""
    good, bad = pairs[0].good, pairs[0].bad
    np.testing.assert_allclose(zsl.zsl_iaa_single(rows, pairs[0]),
                               [scalar_iaa_single(u, good, bad) for u in rows],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(zsl.zsl_iaa_ensemble(rows, pairs),
                               [scalar_iaa_ensemble(u, pairs) for u in rows],
                               rtol=0, atol=1e-12)
    for mode in ("single", "ensemble"):
        per = zsl.zsl_style_scores(rows, styles, mode)
        want = [scalar_style_scores(u, styles, mode) for u in rows]
        for name in styles.style_names():
            np.testing.assert_allclose(per[name], [w[name] for w in want], rtol=0,
                                       atol=1e-12)

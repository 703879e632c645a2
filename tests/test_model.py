"""Model forward contracts: patch order, pooling against brute force,
causality, normalization, caption decoding, and the parameter-count formula."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from critiq import autodiff as ad
from critiq import model
from critiq import tokenizer as tok
from critiq import train
from critiq.autodiff import Tensor
from critiq.data import load_manifest, record_image_path
from critiq.imageio import read_image
from critiq.model import (ModelConfig, ModelParams, PrefixCache, attentional_pool,
                          decode_multimodal, encode_image, generate_caption,
                          image_embedding_batch, patchify, pool_image)
from critiq.synth import SynthSpec, generate_synthetic_corpus
from critiq.train import caption_images, center_crop
from critiq.zsl import embed_prompt
from oracles import (encode_text_unimodal, gen_tokens, stepwise_caption,
                     uncached_greedy_caption, unfused_pool)

TINY = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                   encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                   mlp_dim=32, generative_pool_queries=2, vocab_size=32,
                   max_text_length=12)


@pytest.fixture(scope="module")
def tiny_params():
    return ModelParams.initialize(TINY, seed=11)


class TestPatchify:
    def test_single_patch(self):
        img = np.arange(64, dtype=np.float32).reshape(8, 8, 1)
        out = patchify(img[None], 8)[0]
        assert out.shape == (1, 64)
        np.testing.assert_array_equal(out[0], img.reshape(-1))

    def test_ramp_row_zero_is_top_left(self):
        img = np.arange(32 * 32, dtype=np.float32).reshape(32, 32, 1)
        out = patchify(img[None], 8)[0]
        assert out.shape == (16, 64)
        expected = img[:8, :8, 0].reshape(-1)
        np.testing.assert_array_equal(out[0], expected)
        # row-major patch order: patch 1 is immediately to the right
        np.testing.assert_array_equal(out[1], img[:8, 8:16, 0].reshape(-1))
        # patch 4 starts the second patch row
        np.testing.assert_array_equal(out[4], img[8:16, :8, 0].reshape(-1))

    def test_constant_image_gives_identical_rows(self):
        out = patchify(np.full((32, 32, 3), 0.5, dtype=np.float32)[None], 8)[0]
        assert (out == out[0]).all()

    def test_non_divisible_rejected(self):
        with pytest.raises(ad.ShapeError, match="divisible"):
            patchify(np.zeros((30, 30, 3), dtype=np.float32)[None], 8)


class TestEncodeImage:
    def test_bitwise_determinism(self, tiny_params):
        rng = np.random.default_rng(0)
        img = rng.random((16, 16, 3)).astype(np.float32)
        a = encode_image(img[None], tiny_params, TINY).data[0]
        b = encode_image(img[None], tiny_params, TINY).data[0]
        assert np.array_equal(a, b)

    def test_positional_sensitivity(self, tiny_params):
        rng = np.random.default_rng(1)
        img = rng.random((16, 16, 3)).astype(np.float32)
        base = encode_image(img[None], tiny_params, TINY).data[0].copy()
        pos = tiny_params["pos/image"]
        orig = pos.data.copy()
        try:
            pos.data = orig[::-1].copy()
            permuted = encode_image(img[None], tiny_params, TINY).data[0]
        finally:
            pos.data = orig
        assert not np.array_equal(base, permuted)

    def test_zero_image_zero_params_stays_finite(self):
        params = ModelParams.initialize(TINY, seed=0)
        for name, t in params.items():
            if name != "log_tau" and not name.endswith("/g"):
                t.data = np.zeros_like(t.data)
        out = encode_image(np.zeros((16, 16, 3), dtype=np.float32)[None], params, TINY)
        assert np.isfinite(out.data[0]).all()

    def test_wrong_shape_rejected(self, tiny_params):
        with pytest.raises(ad.ShapeError, match="encode_image"):
            encode_image(np.zeros((8, 8, 3), dtype=np.float32)[None], tiny_params, TINY)


class TestAttentionalPool:
    def test_single_token_ignores_query_values(self):
        rng = np.random.default_rng(2)
        d = 6
        v = Tensor(rng.normal(size=(1, d)))
        wk = Tensor(rng.normal(size=(d, d)))
        wv = Tensor(rng.normal(size=(d, d)))
        q1 = Tensor(rng.normal(size=(2, d)))
        q2 = Tensor(rng.normal(size=(2, d)))
        out1 = attentional_pool(Tensor(v.data[None]), q1, wk, wv).data[0]
        out2 = attentional_pool(Tensor(v.data[None]), q2, wk, wv).data[0]
        np.testing.assert_allclose(out1, out2, atol=1e-7)
        np.testing.assert_allclose(out1[0], (v.data @ wv.data)[0], atol=1e-6)

    def test_identical_rows_give_common_value(self):
        rng = np.random.default_rng(3)
        d = 6
        row = rng.normal(size=d)
        v = Tensor(np.tile(row, (5, 1)))
        wk, wv = Tensor(rng.normal(size=(d, d))), Tensor(rng.normal(size=(d, d)))
        q = Tensor(rng.normal(size=(3, d)))
        out = attentional_pool(Tensor(v.data[None]), q, wk, wv).data[0]
        np.testing.assert_allclose(out, np.tile(row @ wv.data, (3, 1)), atol=1e-6)

    def test_matches_naive_attention(self):
        rng = np.random.default_rng(4)
        d, k, n_q = 8, 5, 2
        v = rng.normal(size=(k, d))
        wk = rng.normal(size=(d, d))
        wv = rng.normal(size=(d, d))
        q = rng.normal(size=(n_q, d))
        out = attentional_pool(Tensor(v.astype(np.float64)[None]),
                               Tensor(q.astype(np.float64)),
                               Tensor(wk.astype(np.float64)),
                               Tensor(wv.astype(np.float64))).data[0]
        # brute force: explicit softmax over scores
        keys, vals = v @ wk, v @ wv
        expected = np.zeros((n_q, d))
        for i in range(n_q):
            scores = np.array([q[i] @ keys[j] for j in range(k)]) / math.sqrt(d)
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            expected[i] = sum(w[j] * vals[j] for j in range(k))
        np.testing.assert_allclose(out, expected, atol=1e-6)

    @pytest.mark.parametrize("which", ["con", "gen"])
    def test_bytewise_equal_to_unfused_chain(self, which):
        cfg = ModelConfig()
        params = ModelParams.initialize(cfg, seed=5)
        images = np.random.default_rng(6).random((16, cfg.image_size, cfg.image_size, 3))
        v = encode_image(images, params, cfg)
        got = pool_image(v, params, which)
        want = unfused_pool(v, *(params[f"pool/{which}/{n}"] for n in ("q", "wk", "wv")))
        assert got.data.dtype == want.data.dtype == np.float32
        assert got.data.tobytes() == want.data.tobytes()


class TestUnimodalText:
    def test_causal_prefix_invariance_bitwise(self, tiny_params):
        s1 = [5, 6, 7, 8, tok.CLS]
        s2 = [5, 6, 9, 8, tok.CLS]
        w1 = encode_text_unimodal(s1, tiny_params, TINY).data
        w2 = encode_text_unimodal(s2, tiny_params, TINY).data
        assert np.array_equal(w1[:2], w2[:2])
        assert not np.array_equal(w1[2:], w2[2:])

    def test_cls_alone(self, tiny_params):
        hidden = encode_text_unimodal([tok.CLS], tiny_params, TINY)
        assert hidden.shape == (1, TINY.hidden_dim)
        assert np.isfinite(hidden.data).all()

    def test_matches_naive_lower_triangular_attention(self, tiny_params):
        # causal run equals brute-force masked attention inside each block,
        # checked end to end against a full-attention run on a causal-safe
        # input: only the final position may differ from prefix growth
        seq = [5, 6, 7, tok.CLS]
        full = encode_text_unimodal(seq, tiny_params, TINY).data
        for t in range(1, len(seq) + 1):
            part = encode_text_unimodal(seq[:t - 1] + [tok.CLS], tiny_params, TINY)
            if t == len(seq):
                np.testing.assert_array_equal(part.data[: t - 1], full[: t - 1])

    def test_requires_cls_terminal(self, tiny_params):
        with pytest.raises(ValueError, match="CLS"):
            encode_text_unimodal([5, 6], tiny_params, TINY)

    def test_over_length_rejected(self, tiny_params):
        seq = [5] * TINY.max_text_length + [tok.CLS]
        with pytest.raises(ad.ShapeError, match="exceeds"):
            encode_text_unimodal(seq, tiny_params, TINY)


class TestJointTextPass:
    """`encode_text_views` against separate runs of its two text views, with
    either view the longer one."""

    @staticmethod
    def views(rng, con_len, dec_len):
        seqs = [[int(t) for t in rng.integers(5, DEEP.vocab_size, size=k - 1)] + [tok.CLS]
                for k in (con_len, max(1, con_len - 2), 1)]
        ids = rng.integers(5, DEEP.vocab_size, size=(3, dec_len))
        ids[:, 0] = tok.BOS
        ids[1, dec_len // 2:] = tok.PAD
        return seqs, ids

    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("con_len,dec_len", [(9, 4), (3, 8)])
    def test_rows_match_separate_passes(self, dtype, atol, con_len, dec_len):
        params = deep_params(31, dtype)
        seqs, ids = self.views(np.random.default_rng(32), con_len, dec_len)
        cls, text = model.encode_text_views(seqs, ids, params, DEEP)
        assert cls.data.dtype == text.data.dtype == dtype
        np.testing.assert_allclose(cls.data, model.encode_text_batch(seqs, params, DEEP).data,
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(text.data, model._run_unimodal(ids, params, DEEP).data,
                                   rtol=0, atol=atol)

    @pytest.mark.parametrize("con_len,dec_len", [(9, 4), (3, 8)])
    def test_gradients_match_separate_passes(self, con_len, dec_len):
        params = deep_params(33, np.float64)
        rng = np.random.default_rng(34)
        seqs, ids = self.views(rng, con_len, dec_len)
        w_cls = Tensor(rng.normal(size=(3, DEEP.hidden_dim)))
        w_text = Tensor(rng.normal(size=(3, dec_len, DEEP.hidden_dim)))

        def grads(cls, text):
            loss = ad.add(ad.sum_(ad.mul(cls, w_cls)), ad.sum_(ad.mul(text, w_text)))
            params.zero_grads()
            ad.backward(loss, leaves=params.tensors.values())
            return {n: t.grad.copy() for n, t in params.items()}

        joint = grads(*model.encode_text_views(seqs, ids, params, DEEP))
        apart = grads(model.encode_text_batch(seqs, params, DEEP),
                      model._run_unimodal(ids, params, DEEP))
        for name in joint:
            np.testing.assert_allclose(joint[name], apart[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_decoder_logits_match_a_full_decode(self):
        params = deep_params(35)
        rng = np.random.default_rng(36)
        seqs, ids = self.views(rng, 5, 6)
        pooled = Tensor(rng.normal(size=(3, DEEP.generative_pool_queries,
                                         DEEP.hidden_dim)).astype(np.float32))
        _, text = model.encode_text_views(seqs, ids, params, DEEP)
        np.testing.assert_allclose(
            decode_multimodal(ids, pooled, params, DEEP, unimodal=text).data,
            decode_multimodal(ids, pooled, params, DEEP).data, rtol=0, atol=1e-5)
        with pytest.raises(ad.ShapeError, match="does not match token batch"):
            decode_multimodal(ids[:, :-1], pooled, params, DEEP, unimodal=text)


class TestContrastivePair:
    """Image embeddings as zero-shot scoring normalizes them, against prompt
    embeddings from `embed_prompt`."""
    WORDS = ["good", "bad", "sharp", "blurry", "light", "dark", "focus", "colour"]
    VOCAB = tok.Vocabulary.build([" ".join(WORDS)], TINY.vocab_size)

    @staticmethod
    def image_unit(img, params):
        return ad.l2_normalize(image_embedding_batch(img[None], params, TINY)).data[0]

    def test_unit_norms(self, tiny_params):
        rng = np.random.default_rng(5)
        for _ in range(10):
            img = rng.random((16, 16, 3)).astype(np.float32)
            x = self.image_unit(img, tiny_params)
            y = embed_prompt("good sharp", tiny_params, TINY, self.VOCAB)
            assert abs(np.linalg.norm(x) - 1) < 1e-6
            assert abs(np.linalg.norm(y) - 1) < 1e-6

    def test_identical_images_identical_embeddings(self, tiny_params):
        img = np.random.default_rng(6).random((16, 16, 3)).astype(np.float32)
        x1 = self.image_unit(img, tiny_params)
        x2 = self.image_unit(img.copy(), tiny_params)
        assert np.array_equal(x1, x2)

    def test_cosine_within_bounds(self, tiny_params):
        rng = np.random.default_rng(7)
        for _ in range(100):
            img = rng.random((16, 16, 3)).astype(np.float32)
            word = self.WORDS[int(rng.integers(len(self.WORDS)))]
            x = self.image_unit(img, tiny_params)
            y = embed_prompt(word, tiny_params, TINY, self.VOCAB)
            c = float(x @ y)
            assert -1.0 - 1e-6 <= c <= 1.0 + 1e-6


class TestMultimodalDecode:
    def test_image_invariance_with_zeroed_cross_attention(self):
        params = ModelParams.initialize(TINY, seed=8)
        for i in range(TINY.multimodal_layers):
            for p in ("q", "k", "v", "o"):
                params[f"mm/{i}/xattn/w{p}"].data[:] = 0
        rng = np.random.default_rng(9)
        pooled_a = Tensor(rng.normal(size=(2, TINY.hidden_dim)).astype(np.float32))
        pooled_b = Tensor(rng.normal(size=(2, TINY.hidden_dim)).astype(np.float32))
        seq = [tok.BOS, 5, 6]
        la = decode_multimodal(seq, pooled_a, params, TINY).data
        lb = decode_multimodal(seq, pooled_b, params, TINY).data
        np.testing.assert_array_equal(la, lb)

    def test_causal_in_text(self, tiny_params):
        rng = np.random.default_rng(10)
        pooled = Tensor(rng.normal(size=(2, TINY.hidden_dim)).astype(np.float32))
        la = decode_multimodal([tok.BOS, 5, 6, 7], pooled, tiny_params, TINY).data
        lb = decode_multimodal([tok.BOS, 5, 9, 9], pooled, tiny_params, TINY).data
        np.testing.assert_array_equal(la[:2], lb[:2])

    def test_matches_naive_reference_forward(self):
        cfg = ModelConfig(image_size=8, patch_size=8, channels=1, hidden_dim=8,
                          n_heads=1, encoder_layers=1, unimodal_layers=1,
                          multimodal_layers=1, mlp_dim=16,
                          generative_pool_queries=2, vocab_size=16, max_text_length=6)
        params = ModelParams.initialize(cfg, seed=12, dtype=np.float64)
        rng = np.random.default_rng(13)
        pooled = rng.normal(size=(2, 8))
        seq = [tok.BOS, 5, 6]
        got = decode_multimodal(seq, Tensor(pooled), params, cfg).data

        # independent plain-numpy re-implementation
        def ln(x, g, b, eps=1e-12):
            mu = x.mean(-1, keepdims=True)
            var = ((x - mu) ** 2).mean(-1, keepdims=True)
            return (x - mu) / np.sqrt(var + eps) * g + b

        def gelu(x):
            c = math.sqrt(2 / math.pi)
            return 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x ** 3)))

        def attn(xq, xkv, p, prefix, causal):
            q = xq @ p[f"{prefix}/wq"].data + p[f"{prefix}/bq"].data
            k = xkv @ p[f"{prefix}/wk"].data + p[f"{prefix}/bk"].data
            v = xkv @ p[f"{prefix}/wv"].data + p[f"{prefix}/bv"].data
            scores = q @ k.T / math.sqrt(q.shape[-1])
            if causal:
                scores = np.where(np.tril(np.ones(scores.shape, dtype=bool)),
                                  scores, -np.inf)
            e = np.exp(scores - scores.max(-1, keepdims=True))
            e = np.where(np.isfinite(scores), e, 0.0)
            w = e / e.sum(-1, keepdims=True)
            return (w @ v) @ p[f"{prefix}/wo"].data + p[f"{prefix}/bo"].data

        def block(x, p, prefix, memory=None):
            h = ln(x, p[f"{prefix}/ln1/g"].data, p[f"{prefix}/ln1/b"].data)
            x = x + attn(h, h, p, f"{prefix}/attn", causal=True)
            if memory is not None:
                h = ln(x, p[f"{prefix}/lnx/g"].data, p[f"{prefix}/lnx/b"].data)
                q = h @ p[f"{prefix}/xattn/wq"].data + p[f"{prefix}/xattn/bq"].data
                k = memory @ p[f"{prefix}/xattn/wk"].data + p[f"{prefix}/xattn/bk"].data
                v = memory @ p[f"{prefix}/xattn/wv"].data + p[f"{prefix}/xattn/bv"].data
                scores = q @ k.T / math.sqrt(q.shape[-1])
                e = np.exp(scores - scores.max(-1, keepdims=True))
                w = e / e.sum(-1, keepdims=True)
                x = x + (w @ v) @ p[f"{prefix}/xattn/wo"].data + p[f"{prefix}/xattn/bo"].data
            h = ln(x, p[f"{prefix}/ln2/g"].data, p[f"{prefix}/ln2/b"].data)
            m = gelu(h @ p[f"{prefix}/mlp/w1"].data + p[f"{prefix}/mlp/b1"].data)
            return x + m @ p[f"{prefix}/mlp/w2"].data + p[f"{prefix}/mlp/b2"].data

        x = params["tok_emb"].data[np.array(seq)] + params["pos/text"].data[:3]
        x = block(x, params, "uni/0")
        x = ln(x, params["uni/ln_f/g"].data, params["uni/ln_f/b"].data)
        x = block(x, params, "mm/0", memory=pooled)
        x = ln(x, params["mm/ln_f/g"].data, params["mm/ln_f/b"].data)
        expected = x @ params["head/w"].data + params["head/b"].data
        np.testing.assert_allclose(got, expected, atol=1e-6)


# two layers per stack and two heads, so the cache crosses blocks and heads
DEEP = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                   encoder_layers=1, unimodal_layers=2, multimodal_layers=2,
                   mlp_dim=32, generative_pool_queries=3, vocab_size=32,
                   max_text_length=10)
# no multimodal layer: the decoder's text-only state is the unimodal output
FLAT = dataclasses.replace(DEEP, multimodal_layers=0)


def deep_params(seed: int, dtype=np.float32, cfg: ModelConfig = DEEP) -> ModelParams:
    """`cfg` parameters with every weight matrix drawn from N(0, 1/fan_in): at
    the 0.02 init, greedy captions hardly depend on the image."""
    params = ModelParams.initialize(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for t in params.tensors.values():
        if t.data.ndim == 2:
            t.data[...] = rng.normal(scale=t.shape[0] ** -0.5, size=t.shape)
    return params


class TestDecodeCache:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("chunks", [(1,) * 8, (3, 1, 2, 1, 1)])
    def test_cached_steps_match_full_prefix_logits(self, dtype, atol, chunks):
        params = deep_params(21, dtype)
        rng = np.random.default_rng(22)
        pooled = Tensor(rng.normal(size=(DEEP.generative_pool_queries,
                                         DEEP.hidden_dim)).astype(dtype))
        seq = [tok.BOS] + [int(t) for t in rng.integers(4, DEEP.vocab_size, size=7)]
        with ad.no_grad():
            full = decode_multimodal(seq, pooled, params, DEEP).data
            cache: dict = {}
            stepped, start = [], 0
            for n in chunks:
                stepped.append(decode_multimodal(seq[start:start + n], pooled, params,
                                                 DEEP, cache).data)
                start += n
        assert start == len(seq)
        got = np.concatenate(stepped)
        assert got.dtype == full.dtype and got.shape == full.shape
        np.testing.assert_allclose(got, full, rtol=0, atol=atol)

    def test_cache_rejected_while_gradients_are_on(self, tiny_params):
        pooled = Tensor(np.zeros((2, TINY.hidden_dim), dtype=np.float32))
        with pytest.raises(RuntimeError, match="no_grad"):
            decode_multimodal([tok.BOS], pooled, tiny_params, TINY, {})

    def test_generate_caption_matches_uncached_greedy_loop(self):
        params = deep_params(26)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        rng = np.random.default_rng(24)
        captions = []
        for _ in range(8):
            img = rng.random((16, 16, 3)).astype(np.float32)
            for max_len in (4, 16):
                cap = generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, max_len=max_len)
                assert cap == uncached_greedy_caption(img, params, DEEP, vocab, max_len)
                captions.append(cap)
        assert len(set(captions)) >= 4


class TestPrefixCache:
    """One `PrefixCache` shared by the captions of a run: the unimodal stack
    runs once per distinct token prefix, and nothing else changes."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("prefix")
        manifest = generate_synthetic_corpus(SynthSpec(count=16), str(root), 5)
        return load_manifest(manifest), manifest

    @staticmethod
    def crops(corpus):
        records, manifest = corpus
        return [center_crop(read_image(record_image_path(r, manifest)), DEEP.image_size)
                for r in records]

    @staticmethod
    def recorded(monkeypatch):
        """Wrap the decoder the caption loop calls. Per call it records the
        cache (held, so ids stay unique), the tokens the cache then holds, the
        count fed by the call, the logits, the pooled tokens and how many
        captions the shared prefix cache held."""
        calls: list[tuple[dict, tuple[int, ...], int, np.ndarray, Tensor, int]] = []
        inner = model.decode_multimodal

        def wrapper(tokens, pooled, params, cfg, cache=None):
            out = inner(tokens, pooled, params, cfg, cache)
            calls.append((cache, tuple(cache["tokens"]), len(tokens), out.data.copy(),
                          pooled, len(cache["prefixes"].captions)))
            return out

        monkeypatch.setattr(model, "decode_multimodal", wrapper)
        return calls

    @pytest.mark.parametrize("max_len", [4, 16])
    def test_shared_captions_equal_fresh_and_uncached(self, corpus, max_len):
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        shared = caption_images(params, vocab, corpus[0], corpus[1], max_len)
        images = self.crops(corpus)
        fresh = [generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, max_len) for img in images]
        uncached = [uncached_greedy_caption(img, params, DEEP, vocab, max_len)
                    for img in images]
        assert shared == fresh == uncached
        # distinct captions that share words, so a cache keyed on less than
        # the whole prefix would hand one caption another's states
        assert len(set(shared)) >= 6

    def test_decode_logits_match_full_prefix_runs(self, corpus, monkeypatch):
        """Under drafting, each position a call feeds gives the logits of a
        full-prefix run, and the tokens the cache held before the call are
        the start of the image's caption: rejected drafts leave nothing."""
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        calls = self.recorded(monkeypatch)
        prefixes = PrefixCache(params)
        finished = []
        prefixes.remember = lambda caption, pooled: (
            finished.append(caption), PrefixCache.remember(prefixes, caption, pooled))
        captions = {}
        for img in self.crops(corpus):
            generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes)
            captions[id(calls[-1][0])] = list(finished[-1])
        assert max(n for _, _, n, _, _, _ in calls) > 1
        rolled = 0
        with ad.no_grad():
            for i, (cache, fed, n, logits, pooled, _) in enumerate(calls):
                start = len(fed) - n
                assert list(fed[:start]) == captions[id(cache)][:start]
                full = decode_multimodal(list(fed), pooled, params, DEEP).data
                np.testing.assert_allclose(logits, full[start:], rtol=0, atol=1e-5)
                nxt = calls[i + 1] if i + 1 < len(calls) else None
                rolled += nxt is not None and nxt[0] is cache and \
                    len(nxt[1]) - nxt[2] < len(fed)
        assert rolled > 0

    def test_every_draft_continues_a_stored_caption(self, corpus, monkeypatch):
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        calls = self.recorded(monkeypatch)
        prefixes = PrefixCache(params)
        for img in self.crops(corpus):
            generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes)
        drafted = 0
        for _, fed, n, _, _, stored in calls:
            if n > 1:
                drafted += 1
                assert any(c[:len(fed)] == fed and len(c) > len(fed)
                           for c in prefixes.captions[:stored])
        assert drafted > 0

    def test_one_row_per_distinct_prefix(self, corpus, monkeypatch):
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        calls = self.recorded(monkeypatch)
        prefixes = PrefixCache(params)
        for img in self.crops(corpus):
            generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes)
        fed = [f[:end] for _, f, n, _, _, _ in calls for end in range(len(f) - n + 1,
                                                                      len(f) + 1)]
        assert len(set(fed)) < len(fed)          # some positions were hits
        assert set(prefixes.rows) == set(fed)

    def test_rows_owned_and_from_full_prefix_runs(self, corpus):
        """Each row is mm/0's cross-attention input at its prefix's last
        position in a full-prefix run: the residual after the unimodal stack
        and mm/0's self-attention sublayer, above that layer's query."""
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        prefixes = PrefixCache(params)
        for img in self.crops(corpus):
            generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes)

        def linear(x, name, which):
            return ad.linear(x, params[f"{name}/w{which}"], params[f"{name}/b{which}"])

        with ad.no_grad():
            for prefix, row in prefixes.rows.items():
                # its own (2, D) array, not a view keeping a whole run alive
                assert row.shape == (2, DEEP.hidden_dim) and row.base is None
                x = model._run_unimodal(np.asarray([prefix]), params, DEEP)
                h = ad.layer_norm(x, params["mm/0/ln1/g"], params["mm/0/ln1/b"])
                att = ad.attention(*(linear(h, "mm/0/attn", w) for w in "qkv"), DEEP.n_heads,
                                   model._causal_mask(len(prefix), 0))
                r = ad.add(x, linear(att, "mm/0/attn", "o"))
                h = ad.layer_norm(r, params["mm/0/lnx/g"], params["mm/0/lnx/b"])
                q = linear(h, "mm/0/xattn", "q")
                assert row.tobytes() == np.stack([r.data[0, -1], q.data[0, -1]]).tobytes()
        assert {len(p) for p in prefixes.rows} == set(range(1, DEEP.max_text_length))

    def test_image_cache_holds_self_attention_from_mm1_on(self, corpus, monkeypatch):
        """mm/0's self-attention lives in the prefix rows, so a per-image cache
        keeps self-attention keys and values from mm/1 on only, cut back with
        the tokens it holds."""
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        calls = self.recorded(monkeypatch)
        kept, rollback = [], model._rollback

        def cut(cache, keep):
            rollback(cache, keep)
            kept.append([t.shape[1] for t in cache["mm/1/attn"]] == [keep, keep])

        monkeypatch.setattr(model, "_rollback", cut)
        prefixes = PrefixCache(params)
        for img in self.crops(corpus):
            generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes)
        for cache, *_ in calls:
            assert set(cache) == {"prefixes", "tokens", "mm/0/xattn", "mm/1/attn",
                                  "mm/1/xattn"}
            assert all(t.shape[1] == len(cache["tokens"]) for t in cache["mm/1/attn"])
        assert kept and all(kept)

    def test_cache_bound_to_its_params(self):
        params, other = deep_params(34), deep_params(35)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        img = np.random.default_rng(3).random((16, 16, 3)).astype(np.float32)
        prefixes = PrefixCache(params)
        generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 4, prefixes)
        with pytest.raises(ValueError, match="other ModelParams"):
            generate_caption(gen_tokens(img, other, DEEP), other, DEEP, vocab, 4, prefixes)
        copy = ModelParams(dict(params.items()), DEEP)
        with pytest.raises(ValueError, match="other ModelParams"):
            generate_caption(gen_tokens(img, copy, DEEP), copy, DEEP, vocab, 4, prefixes)


@pytest.fixture(scope="module")
def chunked_corpus(tmp_path_factory):
    """70 records: one full chunk of `caption_images` and a partial one."""
    root = tmp_path_factory.mktemp("chunks")
    manifest = generate_synthetic_corpus(SynthSpec(count=70), str(root), 6)
    records = load_manifest(manifest)
    assert len(records) == 70 > train.EMBED_CHUNK
    return records, manifest


class TestDraftDecoding:
    """Draft-and-verify greedy captions: each call checks the rest of the
    nearest earlier caption that extends the decoded tokens, and the output
    is the one-token greedy loop's."""

    corpus = TestPrefixCache.corpus
    crops = staticmethod(TestPrefixCache.crops)
    recorded = staticmethod(TestPrefixCache.recorded)

    @pytest.mark.parametrize("max_len", [4, 16])
    @pytest.mark.parametrize("order", ["record", "reversed"])
    def test_captions_equal_oracles_in_both_orders(self, chunked_corpus, max_len, order):
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        records, manifest = chunked_corpus
        records = records if order == "record" else records[::-1]
        images = self.crops((records, manifest))
        for cfg in (DEEP, FLAT):
            params = deep_params(34, cfg=cfg)
            drafted = caption_images(params, vocab, records, manifest, max_len)
            oracle = PrefixCache(params)
            stepwise = [stepwise_caption(img, params, cfg, vocab, max_len, oracle)
                        for img in images]
            fresh = [generate_caption(gen_tokens(img, params, cfg), params, cfg, vocab, max_len)
                     for img in images]
            uncached = [uncached_greedy_caption(img, params, cfg, vocab, max_len)
                        for img in images]
            assert drafted == stepwise == fresh == uncached
            if cfg.multimodal_layers:
                assert len(set(drafted)) >= 6
            else:                        # nothing cross-attends to the image
                assert len(set(drafted)) == 1 and drafted[0]

    @pytest.mark.parametrize("max_len", [4, 16])
    def test_calls_stay_inside_max_len_and_text_length(self, corpus, monkeypatch, max_len):
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        images = self.crops(corpus)
        prefixes = PrefixCache(params)
        for img in images:                                          # long drafts
            generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes)
        calls = self.recorded(monkeypatch)
        got = [generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, max_len, prefixes)
               for img in images]
        end = min(max_len + 1, DEEP.max_text_length)
        assert max(len(fed) for _, fed, _, _, _, _ in calls) <= end - 1
        assert all(len(cap.split()) <= max_len for cap in got)
        assert got == [stepwise_caption(img, params, DEEP, vocab, max_len)
                       for img in images]

    def test_fresh_cache_feeds_one_position_per_call(self, corpus, monkeypatch):
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        calls = self.recorded(monkeypatch)
        for img in self.crops(corpus)[:4]:
            generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16)
        assert calls and all(n == 1 for _, _, n, _, _, _ in calls)

    def test_repeated_image_decodes_in_one_call(self, corpus, monkeypatch):
        # its own caption, stored with its own tokens, is the nearest draft
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        calls = self.recorded(monkeypatch)
        prefixes = PrefixCache(params)
        for img in self.crops(corpus):
            first = generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes)
            before = len(calls)
            assert generate_caption(gen_tokens(img, params, DEEP), params, DEEP, vocab, 16, prefixes) == first
            assert len(calls) == before + 1

    def test_draft_is_the_nearest_caption_extending_the_prefix(self):
        prefixes = PrefixCache(deep_params(34))
        far, near, mid = (np.full((3, 2), x, dtype=np.float32) for x in (5.0, 0.0, 1.0))
        prefixes.remember((1, 7, 8, 2), far)
        prefixes.remember((1, 7, 9), near)
        prefixes.remember((1, 6, 2), mid)
        prefixes.remember((1, 7, 8, 5, 2), near)     # ties (1, 7, 9) on distance
        dist = prefixes.distances(np.zeros((3, 2), dtype=np.float32))
        np.testing.assert_array_equal(dist, [150.0, 0.0, 6.0, 0.0])
        assert prefixes.draft([1], dist) == (1, 7, 9)           # stored first on the tie
        assert prefixes.draft([1, 7, 8], dist) == (1, 7, 8, 5, 2)
        assert prefixes.draft([1, 6], dist) == (1, 6, 2)
        assert prefixes.draft([1, 7, 9], dist) == ()            # no longer caption
        assert prefixes.draft([1, 5], dist) == ()
        assert PrefixCache(prefixes.params).draft([1], np.zeros(0)) == ()

    def test_caption_stored_once_with_its_newest_image(self):
        prefixes = PrefixCache(deep_params(34))
        a, b = np.zeros((3, 2)), np.ones((3, 2))
        prefixes.remember((1, 7, 2), a)
        prefixes.remember((1, 8, 2), a)
        prefixes.remember((1, 7, 2), b)
        assert prefixes.captions == [(1, 7, 2), (1, 8, 2)]
        assert prefixes.pooled[:2].tobytes() == np.stack([b, a]).tobytes()
        # stored as copies: writing to an image's tokens afterwards changes nothing
        a[...], b[...] = 9.0, 9.0
        np.testing.assert_array_equal(prefixes.distances(np.ones((3, 2))), [0.0, 6.0])
        assert prefixes.extending[(1,)] == [0, 1]

    def test_distances_bitwise_equal_to_stacked_tokens(self):
        """Across the doublings of the stored-token array and overwrites of
        stored captions, the distances equal the formula on a fresh stack of
        each caption's newest tokens, byte for byte."""
        params = deep_params(34)
        shape = (DEEP.generative_pool_queries, DEEP.hidden_dim)
        rng = np.random.default_rng(40)
        prefixes, newest = PrefixCache(params), {}
        for _ in range(80):
            caption = (tok.BOS,) + tuple(int(t) for t in rng.integers(4, 9, size=2))
            pooled = rng.normal(size=shape).astype(np.float32)
            prefixes.remember(caption, pooled)
            newest[caption] = pooled
            query = rng.normal(size=shape).astype(np.float32)
            stacked = np.stack([newest[c] for c in prefixes.captions])
            assert prefixes.distances(query).tobytes() == \
                ((stacked - query) ** 2).sum(axis=(1, 2)).tobytes()
        assert 16 < len(prefixes.captions) < 80        # grown past 16 rows, and overwritten


class TestChunkedCaptions:
    """`caption_images` encodes and pools each chunk of crops in one pass and
    captions its rows one by one."""

    def test_pooled_tokens_equal_one_image_encoding(self, chunked_corpus, monkeypatch):
        params = deep_params(34)
        vocab = tok.Vocabulary([f"w{i}" for i in range(DEEP.vocab_size)])
        seen, caches = [], []
        inner = train.generate_caption

        def wrapper(pooled, *args, **kwargs):
            seen.append((pooled.copy(), weakref.ref(pooled.base)))
            return inner(pooled, *args, **kwargs)

        class Kept(PrefixCache):
            def __init__(self, params):
                super().__init__(params)
                caches.append(self)

        monkeypatch.setattr(train, "generate_caption", wrapper)
        monkeypatch.setattr(train, "PrefixCache", Kept)
        caption_images(params, vocab, *chunked_corpus, 16)
        images = TestPrefixCache.crops(chunked_corpus)
        assert len(seen) == len(images) and len(caches) == 1
        for i, ((pooled, _), img) in enumerate(zip(seen, images)):
            assert pooled.tobytes() == gen_tokens(img, params, DEEP).tobytes(), i
        # the shared cache outlives the run but holds no chunk's pooled array
        gc.collect()
        assert caches[0].captions and all(ref() is None for _, ref in seen)

    def test_pooled_tokens_of_other_shape_rejected(self, tiny_params):
        vocab = tok.Vocabulary(["good", "image"])
        con = np.zeros((1, TINY.hidden_dim), dtype=np.float32)
        with pytest.raises(ad.ShapeError, match="generate_caption"):
            generate_caption(con, tiny_params, TINY, vocab)


class TestGenerateCaption:
    def test_max_len_one(self, tiny_params):
        vocab = tok.Vocabulary(["good", "image"])
        img = np.random.default_rng(14).random((16, 16, 3)).astype(np.float32)
        cap = generate_caption(gen_tokens(img, tiny_params, TINY), tiny_params, TINY, vocab, max_len=1)
        assert len(cap.split()) <= 1

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_below_one_rejected(self, tiny_params, max_len):
        img = np.zeros((16, 16, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="max_len"):
            generate_caption(gen_tokens(img, tiny_params, TINY), tiny_params, TINY, tok.Vocabulary(["good"]), max_len)

    def test_deterministic(self, tiny_params):
        vocab = tok.Vocabulary(["good", "image", "bad", "light"])
        img = np.random.default_rng(15).random((16, 16, 3)).astype(np.float32)
        a = generate_caption(gen_tokens(img, tiny_params, TINY), tiny_params, TINY, vocab)
        b = generate_caption(gen_tokens(img, tiny_params, TINY), tiny_params, TINY, vocab)
        assert a == b


class TestParamRegistry:
    @pytest.mark.parametrize("cfg", [
        ModelConfig(),
        TINY,
        ModelConfig(image_size=24, patch_size=8, hidden_dim=32, n_heads=4,
                    encoder_layers=3, unimodal_layers=2, multimodal_layers=1,
                    mlp_dim=48, generative_pool_queries=4, vocab_size=64,
                    max_text_length=10),
    ])
    def test_closed_form_matches_registry(self, cfg):
        params = ModelParams.initialize(cfg, seed=0)
        assert params.total_count() == cfg.param_count()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(image_size=30, patch_size=8)
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(hidden_dim=30, n_heads=4)

    def test_tau_initialized_and_positive(self, tiny_params):
        assert abs(float(tiny_params.tau().data) - 0.07) < 1e-6

    def test_clamp_log_tau(self):
        params = ModelParams.initialize(TINY, seed=0)
        params["log_tau"].data = np.array(50.0, dtype=np.float32)
        params.clamp_log_tau()
        assert float(params.tau().data) <= 10.0 + 1e-5
        params["log_tau"].data = np.array(-50.0, dtype=np.float32)
        params.clamp_log_tau()
        assert float(params.tau().data) >= 1e-3 * (1 - 1e-5)

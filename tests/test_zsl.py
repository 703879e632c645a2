"""Zero-shot scoring: sigmoid arithmetic, exact swap antisymmetry, ensemble
means, style scores, and the prompt cache."""

import math

import numpy as np
import pytest

from critiq import autodiff as ad
from critiq import checkpoint as ckpt
from critiq import tokenizer as tok
from critiq import zsl
from critiq.model import ModelConfig, ModelParams
from critiq.prompts import PromptBank
from critiq.zsl import (PromptPairEmbedding, StylePromptEmbeddings, zsl_iaa_ensemble,
                        zsl_iaa_single, zsl_style_scores)
from oracles import assert_match_scalar_oracle, encode_text_unimodal


def unit(v):
    """`v` scaled to unit norm, row by row for a stack of rows."""
    v = np.asarray(v)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def pair_with_dots(a: float, b: float) -> tuple[np.ndarray, PromptPairEmbedding]:
    """Image embedding e1 plus a prompt pair whose dots are exactly (a, b)."""
    v = np.array([1.0, 0.0, 0.0, 0.0])
    pg = np.array([a, math.sqrt(1 - a * a), 0.0, 0.0])
    pb = np.array([b, 0.0, math.sqrt(1 - b * b), 0.0])
    return v, PromptPairEmbedding(good=pg, bad=pb, good_text="g", bad_text="b")


class TestSinglePair:
    def test_equal_similarities_give_half(self):
        v, pair = pair_with_dots(0.25, 0.25)
        assert zsl_iaa_single(v, pair) == 0.5

    def test_hand_sigmoid_point_six(self):
        v, pair = pair_with_dots(0.8, 0.2)
        # dots 0.8 vs 0.2 -> difference 0.6 (exact dyadic arithmetic)
        assert abs(zsl_iaa_single(v, pair) - 1 / (1 + math.exp(-0.6))) < 1e-9
        assert abs(zsl_iaa_single(v, pair) - 0.64566) < 5e-6

    def test_opposed_prompts(self):
        rng = np.random.default_rng(0)
        pg = unit(rng.normal(size=6))
        pair = PromptPairEmbedding(good=pg, bad=-pg, good_text="g", bad_text="b")
        r = zsl_iaa_single(pg, pair)
        assert abs(r - 1 / (1 + math.exp(-2))) < 1e-9
        assert abs(r - 0.88080) < 5e-6

    def test_swap_scores_sum_to_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            v = unit(rng.normal(size=8))
            pg = unit(rng.normal(size=8))
            pb = unit(rng.normal(size=8))
            fwd = zsl_iaa_single(v, PromptPairEmbedding(pg, pb, "g", "b"))
            rev = zsl_iaa_single(v, PromptPairEmbedding(pb, pg, "b", "g"))
            assert fwd + rev == 1.0

    def test_depends_only_on_difference(self):
        v1, pair1 = pair_with_dots(0.25, 0.75)
        v2, pair2 = pair_with_dots(0.0, 0.5)
        assert zsl_iaa_single(v1, pair1) == zsl_iaa_single(v2, pair2)

    def test_monotone_in_difference(self):
        values = []
        for a in (0.0, 0.25, 0.5, 0.75):
            v, pair = pair_with_dots(a, 0.0)
            values.append(zsl_iaa_single(v, pair))
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_rejects_non_unit_image(self):
        _, pair = pair_with_dots(0.1, 0.2)
        with pytest.raises(ValueError, match="unit-norm"):
            zsl_iaa_single(np.array([2.0, 0.0, 0.0, 0.0]), pair)


class TestEnsemble:
    def test_identical_pairs_equal_single(self):
        v, pair = pair_with_dots(0.4, 0.1)
        single = zsl_iaa_single(v, pair)
        assert zsl_iaa_ensemble(v, [pair] * 6) == single

    def test_two_pair_mean(self):
        v1, p1 = pair_with_dots(0.5, 0.5)    # 0.5
        _, p2 = pair_with_dots(0.75, 0.75)   # 0.5 as well
        assert zsl_iaa_ensemble(v1, [p1, p2]) == 0.5

    def test_mean_matches_fsum_oracle(self):
        rng = np.random.default_rng(2)
        v = unit(rng.normal(size=8))
        pairs = [PromptPairEmbedding(unit(rng.normal(size=8)), unit(rng.normal(size=8)),
                                     "g", "b") for _ in range(6)]
        scores = [zsl_iaa_single(v, p) for p in pairs]
        expected = math.fsum(scores) / 6
        got = zsl_iaa_ensemble(v, pairs)
        assert abs(got - expected) < 1e-15

    def test_within_span_of_parts(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = unit(rng.normal(size=8))
            pairs = [PromptPairEmbedding(unit(rng.normal(size=8)),
                                         unit(rng.normal(size=8)), "g", "b")
                     for _ in range(5)]
            scores = [zsl_iaa_single(v, p) for p in pairs]
            e = zsl_iaa_ensemble(v, pairs)
            assert min(scores) <= e <= max(scores)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            zsl_iaa_ensemble(np.array([1.0, 0.0]), [])

    def test_default_bank_has_six_pairs(self):
        assert len(PromptBank.default().iaa_pairs) == 6


class TestStyleScores:
    def _styles(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        mix = unit([1.0, 1.0, 0.0])
        return StylePromptEmbeddings(
            single={"a": e1, "b": e2},
            ensemble={"a": [e1, mix], "b": [e2]})

    def test_matching_prompt_scores_one(self):
        styles = self._styles()
        v = np.array([0.0, 1.0, 0.0])
        assert zsl_style_scores(v, styles, "single")["b"] == 1.0

    def test_orthogonal_ensemble_scores_zero(self):
        styles = self._styles()
        v = np.array([0.0, 0.0, 1.0])
        assert zsl_style_scores(v, styles, "ensemble")["b"] == 0.0

    def test_ensemble_mean_arithmetic(self):
        cosines = [0.2, 0.4, 0.6, 0.8, 1.0]
        v = np.array([1.0, 0.0])
        prompts = [np.array([c, math.sqrt(1 - c * c)]) for c in cosines]
        styles = StylePromptEmbeddings(single={"s": prompts[0]},
                                       ensemble={"s": prompts})
        assert abs(zsl_style_scores(v, styles, "ensemble")["s"] - 0.6) < 1e-12

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            zsl_style_scores(np.array([1.0, 0.0, 0.0]), self._styles(), "softmax")


class TestBatchScorers:
    """`iaa_scores` and `style_scores` normalize raw (N, D) embeddings and
    score every row in one scorer call, each row equal to its per-image call."""

    def _raw(self, seed, dim=3):
        return np.random.default_rng(seed).normal(size=(6, dim)) * 3.0

    def test_iaa_scores_match_per_image_calls(self):
        rng = np.random.default_rng(4)
        pairs = [PromptPairEmbedding(unit(rng.normal(size=3)), unit(rng.normal(size=3)),
                                     "g", "b") for _ in range(3)]
        v = self._raw(1)
        rows = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert zsl.iaa_scores(v, pairs, "ensemble") == [zsl_iaa_ensemble(u, pairs)
                                                        for u in rows]
        assert zsl.iaa_scores(v, pairs, "single") == [zsl_iaa_single(u, pairs[0])
                                                      for u in rows]

    def test_style_scores_columns_follow_style_names(self):
        styles = StylePromptEmbeddings(
            single={"b": np.array([0.0, 1.0, 0.0]), "a": np.array([1.0, 0.0, 0.0])},
            ensemble={"b": [np.array([0.0, 1.0, 0.0])],
                      "a": [np.array([1.0, 0.0, 0.0]), unit([1.0, 1.0, 0.0])]})
        v = self._raw(2)
        rows = v / np.linalg.norm(v, axis=1, keepdims=True)
        for mode in ("single", "ensemble"):
            mat = zsl.style_scores(v, styles, mode)
            assert mat.shape == (6, 2) and mat.dtype == np.float64
            for u, row in zip(rows, mat):
                per = zsl_style_scores(u, styles, mode)
                assert list(row) == [per["b"], per["a"]]

    def test_no_images_give_empty_scores(self):
        styles = StylePromptEmbeddings(single={"a": np.array([1.0, 0.0])},
                                       ensemble={"a": [np.array([1.0, 0.0])]})
        assert zsl.style_scores(np.zeros((0, 2)), styles, "single").shape == (0, 1)
        assert zsl.iaa_scores(np.zeros((0, 2)), [], "ensemble") == []

    @pytest.mark.parametrize("scorer", [zsl.iaa_scores, zsl.style_scores])
    def test_unknown_mode_rejected_before_scoring(self, scorer):
        with pytest.raises(ValueError, match="unknown zero-shot mode 'softmax'"):
            scorer(np.ones((2, 3)), None, "softmax")


def random_prompts(rng, dim: int) -> tuple[list[PromptPairEmbedding], StylePromptEmbeddings]:
    """Six random unit prompt pairs, and 14 styles whose ensembles hold one to
    five prompts."""
    pairs = [PromptPairEmbedding(unit(rng.normal(size=dim)), unit(rng.normal(size=dim)),
                                 "g", "b") for _ in range(6)]
    styles = StylePromptEmbeddings(
        single={f"s{i}": unit(rng.normal(size=dim)) for i in range(14)},
        ensemble={f"s{i}": [unit(rng.normal(size=dim)) for _ in range(1 + i % 5)]
                  for i in range(14)})
    return pairs, styles


class TestBatchedRows:
    """The scorers on a stack of unit rows (N, D): one array pass per prompt."""

    @pytest.mark.parametrize("dim", [3, 16, 64])
    def test_match_scalar_oracle(self, dim):
        rng = np.random.default_rng(dim)
        pairs, styles = random_prompts(rng, dim)
        assert_match_scalar_oracle(unit(rng.normal(size=(40, dim))), pairs, styles)

    @pytest.mark.parametrize("n", [1, 2, 9, 300])
    def test_every_row_bytewise_equals_its_single_call(self, n):
        rng = np.random.default_rng(n)
        pairs, styles = random_prompts(rng, 64)
        rows = unit(rng.normal(size=(n, 64)).astype(np.float32))
        single = zsl_iaa_single(rows, pairs[0])
        ensemble = zsl_iaa_ensemble(rows, pairs)
        assert single.shape == ensemble.shape == (n,)
        assert single.tobytes() == np.array([zsl_iaa_single(u, pairs[0])
                                             for u in rows]).tobytes()
        assert ensemble.tobytes() == np.array([zsl_iaa_ensemble(u, pairs)
                                               for u in rows]).tobytes()
        for mode in ("single", "ensemble"):
            per = zsl_style_scores(rows, styles, mode)
            each = [zsl_style_scores(u, styles, mode) for u in rows]
            assert all(isinstance(x, float) for d in each for x in d.values())
            for name in styles.style_names():
                assert per[name].tobytes() == np.array([d[name] for d in each]).tobytes()

    def test_swap_complement_exact_on_every_row(self):
        rng = np.random.default_rng(11)
        for dim in (8, 64):
            rows = unit(rng.normal(size=(512, dim)))
            pg, pb = unit(rng.normal(size=dim)), unit(rng.normal(size=dim))
            fwd = zsl_iaa_single(rows, PromptPairEmbedding(pg, pb, "g", "b"))
            rev = zsl_iaa_single(rows, PromptPairEmbedding(pb, pg, "b", "g"))
            assert ((fwd + rev) == 1.0).all()
        # a row whose similarities tie scores exactly one half both ways
        v, pair = pair_with_dots(0.25, 0.25)
        assert (zsl_iaa_single(np.stack([v, v]), pair) == 0.5).all()

    @pytest.mark.parametrize("scorer", [
        lambda rows: zsl_iaa_single(rows, (np.eye(3)[0], np.eye(3)[1])),
        lambda rows: zsl_iaa_ensemble(rows, [(np.eye(3)[0], np.eye(3)[1])]),
        lambda rows: zsl_style_scores(rows, StylePromptEmbeddings(
            single={"a": np.eye(3)[0]}, ensemble={"a": [np.eye(3)[0]]}))])
    def test_non_unit_row_named(self, scorer):
        rows = unit(np.random.default_rng(0).normal(size=(5, 3)))
        rows[3] *= 1.5
        rows[4] = np.nan
        with pytest.raises(ValueError, match=r"row 3 is not unit-norm"):
            scorer(rows)
        rows[3] /= 1.5
        with pytest.raises(ValueError, match=r"row 4 is not unit-norm"):
            scorer(rows)
        with pytest.raises(ValueError, match=r"expected a vector \(D,\) or rows"):
            scorer(rows[None, :3])

    def test_ensemble_of_identical_prompts_equals_single_on_every_row(self):
        # a row's sum of k equal scores, divided by k, can round off that
        # score; the clamp into the row's span restores it
        rng = np.random.default_rng(5)
        rows = unit(rng.normal(size=(200, 8)))
        p, q = unit(rng.normal(size=8)), unit(rng.normal(size=8))
        styles = StylePromptEmbeddings(single={"a": p}, ensemble={"a": [p] * 3})
        assert (zsl_style_scores(rows, styles)["a"]
                == zsl_style_scores(rows, styles, "single")["a"]).all()
        pair = PromptPairEmbedding(p, q, "g", "b")
        assert (zsl_iaa_ensemble(rows, [pair] * 6) == zsl_iaa_single(rows, pair)).all()

    def test_zero_rows(self):
        rng = np.random.default_rng(1)
        pairs, styles = random_prompts(rng, 4)
        empty = np.zeros((0, 4))
        assert zsl_iaa_single(empty, pairs[0]).shape == (0,)
        assert zsl_iaa_ensemble(empty, pairs).shape == (0,)
        assert all(s.shape == (0,) for s in zsl_style_scores(empty, styles).values())
        assert zsl.style_scores(empty, styles, "ensemble").shape == (0, 14)
        assert zsl.iaa_scores(empty, pairs, "single") == []


PIPELINE_CFG = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                           encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                           mlp_dim=32, generative_pool_queries=2, vocab_size=128,
                           max_text_length=16)


@pytest.fixture(scope="module")
def setup():
    params = ModelParams.initialize(PIPELINE_CFG, seed=5)
    bank = PromptBank.default()
    vocab = tok.Vocabulary.build(bank.all_texts(), 128)
    return params, bank, vocab


class TestPromptEmbeddingPipeline:
    CFG = PIPELINE_CFG

    def test_bank_embeddings_are_unit(self, setup):
        params, bank, vocab = setup
        table = zsl.embed_bank(bank, params, self.CFG, vocab)
        assert len(table) == len(bank.all_texts())
        for v in table.values():
            assert abs(np.linalg.norm(v) - 1) < 1e-6

    def test_batched_bank_matches_per_prompt_forward(self, setup):
        # reference: each prompt alone through the unimodal stack, its CLS row
        # normalized; the batch pads shorter prompts, which the causal mask hides
        params, bank, vocab = setup
        table = zsl.embed_bank(bank, params, self.CFG, vocab)
        seqs = {text: tok.encode(text, vocab, "contrastive", self.CFG.max_text_length)
                for text in bank.all_texts()}
        assert len({len(s) for s in seqs.values()}) > 1
        with ad.no_grad():
            for text, seq in seqs.items():
                cls = ad.index(encode_text_unimodal(seq, params, self.CFG), -1)
                ref = ad.l2_normalize(cls).data
                np.testing.assert_allclose(table[text], ref, rtol=0, atol=1e-6)
                np.testing.assert_allclose(zsl.embed_prompt(text, params, self.CFG, vocab),
                                           ref, rtol=0, atol=1e-6)

    def test_cache_round_trip_bitwise_and_hash_check(self, setup, tmp_path):
        params, bank, vocab = setup
        table = zsl.embed_bank(bank, params, self.CFG, vocab)
        path = str(tmp_path / "prompts.cache")
        digest = b"\x01" * 32
        zsl.save_prompt_cache(table, digest, path)
        back = zsl.load_prompt_cache(path, digest)
        assert set(back) == set(table)
        for k in table:
            assert back[k].tobytes() == table[k].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            back[k] *= 2                 # views of the file bytes
        with pytest.raises(ckpt.CheckpointError, match="different"):
            zsl.load_prompt_cache(path, b"\x02" * 32)

    def test_pair_and_style_embedding_assembly(self, setup):
        params, bank, vocab = setup
        table = zsl.embed_bank(bank, params, self.CFG, vocab)
        pairs = zsl.pair_embeddings(bank, table)
        assert len(pairs) == 6
        assert pairs[0].good_text == "good image"
        styles = zsl.style_embeddings(bank, table)
        assert len(styles.single) == 14
        assert all(len(v) == 5 for v in styles.ensemble.values())

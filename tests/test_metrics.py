"""Metric oracles: worked examples, independent brute-force reimplementations,
scipy cross-checks, and invariance properties."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from critiq.metrics import (average_precision, bleu_n, cider, cider_scores, plcc,
                            rouge_l, srcc)
from oracles import (brute_force_ap, brute_force_bleu, brute_force_cider,
                     brute_force_lcs, recounting_bleu_n, recounting_cider_scores)


class TestSrcc:
    def test_monotone_map_gives_one(self):
        p = [1.0, 2.5, 3.7, 9.0]
        assert abs(srcc(p, [math.exp(x) for x in p]) - 1.0) < 1e-12

    def test_reversed_gives_minus_one(self):
        assert abs(srcc([1, 2, 3, 4], [4, 3, 2, 1]) + 1.0) < 1e-12

    def test_worked_example(self):
        assert abs(srcc([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12

    def test_tie_free_matches_rank_difference_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            p = rng.permutation(n).astype(float)
            l = rng.permutation(n).astype(float)
            rp = np.argsort(np.argsort(p)) + 1
            rl = np.argsort(np.argsort(l)) + 1
            d2 = float(((rp - rl) ** 2).sum())
            expected = 1 - 6 * d2 / (n * (n * n - 1))
            assert abs(srcc(p, l) - expected) < 1e-12

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            p = rng.integers(0, 6, size=n).astype(float)
            l = rng.normal(size=n)
            if np.all(p == p[0]):
                continue
            expected = stats.spearmanr(p, l).statistic
            assert abs(srcc(p, l) - expected) < 1e-9

    def test_strictly_increasing_transform_invariance(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=20)
        l = rng.normal(size=20)
        base = srcc(p, l)
        assert abs(srcc(np.exp(p), l) - base) < 1e-12
        assert abs(srcc(p, 3 * l + 11) - base) < 1e-12

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            srcc([1, 1, 1], [1, 2, 3])


class TestPlcc:
    def test_affine_gives_one(self):
        p = [0.0, 1.0, 2.0, 5.0]
        assert abs(plcc(p, [2 * x + 3 for x in p]) - 1.0) < 1e-12

    def test_negation_gives_minus_one(self):
        p = [0.0, 1.0, 2.0, 5.0]
        assert abs(plcc(p, [-x for x in p]) + 1.0) < 1e-12

    def test_worked_example(self):
        assert abs(plcc([0, 1, 2], [0, 1, 4]) - 0.9607689228305228) < 1e-9

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            p = rng.normal(size=n)
            l = rng.normal(size=n)
            assert abs(plcc(p, l) - stats.pearsonr(p, l).statistic) < 1e-9

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(4)
        p, l = rng.normal(size=15), rng.normal(size=15)
        assert abs(plcc(0.5 * p + 2, l) - plcc(p, l)) < 1e-12

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            plcc([2, 2, 2], [1, 2, 3])


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_worked_example(self):
        assert abs(average_precision([0.9, 0.8, 0.7], [1, 0, 1]) - (1 + 2 / 3) / 2) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            assert abs(average_precision(scores, labels)
                       - brute_force_ap(list(scores), list(labels))) < 1e-12

    def test_score_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=20)
        labels = rng.integers(0, 2, size=20)
        labels[0] = 1
        a = average_precision(scores, labels)
        b = average_precision(np.exp(scores), labels)
        assert a == b

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="no positive"):
            average_precision([0.5, 0.1], [0, 0])


class TestBleu:
    def test_identity_candidate(self):
        for n in (1, 2, 3):
            assert bleu_n("the cat sat", ["the cat sat"], n) == 1.0

    def test_brevity_penalty_worked_example(self):
        got = bleu_n("the cat sat", ["the cat sat down"], 1)
        assert abs(got - math.exp(1 - 4 / 3)) < 1e-9
        assert abs(got - 0.71653) < 5e-6

    def test_disjoint_unigrams_zero(self):
        assert bleu_n("aa bb", ["cc dd"], 1) == 0.0

    def test_empty_candidate_warns_and_scores_zero(self):
        with pytest.warns(UserWarning, match="empty candidate"):
            assert bleu_n("", ["something"], 1) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        words = ["a", "b", "c", "d", "e"]
        for _ in range(200):
            cand = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            refs = [" ".join(rng.choice(words, size=rng.integers(1, 10)))
                    for _ in range(int(rng.integers(1, 4)))]
            n = int(rng.integers(1, 5))
            assert abs(bleu_n(cand, refs, n) - brute_force_bleu(cand, refs, n)) < 1e-12

    def test_bitwise_equal_to_recounting_oracle(self):
        # counting each reference once per order changes no float: same
        # clipped counts, same arithmetic
        rng = np.random.default_rng(9)
        words = ["a", "b", "c", "d"]
        for _ in range(300):
            cand = list(rng.choice(words, size=rng.integers(1, 17)))
            refs = [list(rng.choice(words, size=rng.integers(1, 17)))
                    for _ in range(int(rng.integers(1, 6)))]
            for n in (1, 2, 3, 4):
                got = bleu_n(cand, refs, n)
                assert got.hex() == recounting_bleu_n(cand, refs, n).hex()
                assert bleu_n(" ".join(cand), [" ".join(r) for r in refs], n) == got

    def test_all_orders_bitwise_equal_to_one_call_per_order(self):
        rng = np.random.default_rng(10)
        words = ["a", "b", "c", "d"]
        for _ in range(300):
            cand = list(rng.choice(words, size=rng.integers(0, 17)))
            refs = [list(rng.choice(words, size=rng.integers(1, 17)))
                    for _ in range(int(rng.integers(1, 6)))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = bleu_n(cand, refs, 4, all_orders=True)
            want = [recounting_bleu_n(cand, refs, n) for n in (1, 2, 3, 4)]
            assert [g.hex() for g in got] == [w.hex() for w in want]

    def test_all_scores_in_unit_interval(self):
        rng = np.random.default_rng(8)
        words = ["x", "y", "z"]
        for _ in range(50):
            cand = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            refs = [" ".join(rng.choice(words, size=rng.integers(1, 8)))]
            for n in (1, 2, 3, 4):
                assert 0.0 <= bleu_n(cand, refs, n) <= 1.0

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError, match="1..4"):
            bleu_n("a", ["a"], 5)


class TestRouge:
    def test_identity(self):
        assert rouge_l("the cat sat", ["the cat sat"]) == 1.0

    def test_worked_example(self):
        assert abs(rouge_l("the cat", ["the cat sat"]) - 0.8) < 1e-12

    def test_disjoint_zero(self):
        assert rouge_l("aa bb", ["cc dd"]) == 0.0

    def test_empty_candidate_zero(self):
        assert rouge_l("", ["anything"]) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        words = ["a", "b", "c", "d"]
        for _ in range(150):
            cand = list(rng.choice(words, size=rng.integers(1, 9)))
            refs = [list(rng.choice(words, size=rng.integers(1, 9)))
                    for _ in range(int(rng.integers(1, 3)))]
            best = 0.0
            for r in refs:
                lcs = brute_force_lcs(tuple(cand), tuple(r))
                if lcs:
                    p, rr = lcs / len(cand), lcs / len(r)
                    best = max(best, 2 * p * rr / (p + rr))
            assert abs(rouge_l(cand, refs) - best) < 1e-12

    def test_max_over_references(self):
        assert rouge_l("a b c", ["z z", "a b c"]) == 1.0


class TestCider:
    def test_identity_scores_ten(self):
        pairs = [("a bright sunny day", ["a bright sunny day"]),
                 ("dark and gloomy night shot", ["dark and gloomy night shot"])]
        np.testing.assert_allclose(cider_scores(pairs), [10.0, 10.0], atol=1e-9)

    def test_disjoint_scores_zero(self):
        pairs = [("aa bb cc dd", ["ee ff gg hh"]),
                 ("ii jj", ["kk ll mm"])]
        assert cider_scores(pairs)[0] == 0.0

    def test_matches_brute_force_on_toy_corpus(self):
        pairs = [("the small cat", ["the small cat sat", "a tiny cat"]),
                 ("a dog runs fast", ["the dog runs", "a dog runs far away"])]
        np.testing.assert_allclose(cider_scores(pairs), brute_force_cider(pairs),
                                   atol=1e-9)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(10)
        words = ["a", "b", "c", "d", "e", "f"]
        for _ in range(30):
            n_img = int(rng.integers(2, 6))
            pairs = []
            for _ in range(n_img):
                cand = " ".join(rng.choice(words, size=rng.integers(1, 8)))
                refs = [" ".join(rng.choice(words, size=rng.integers(1, 8)))
                        for _ in range(int(rng.integers(1, 3)))]
                pairs.append((cand, refs))
            np.testing.assert_allclose(cider_scores(pairs), brute_force_cider(pairs),
                                       atol=1e-9)

    def test_bitwise_equal_to_recounting_oracle(self):
        """Counting each reference once and reusing a repeated candidate's
        vectors leaves every score's bytes as they were."""
        rng = np.random.default_rng(12)
        words = ["a", "b", "c", "d", "e", "f", "g"]

        def sentence():
            return " ".join(rng.choice(words, size=rng.integers(1, 9)))

        for _ in range(20):
            shared = [sentence() for _ in range(3)]      # candidates that repeat
            pairs = [(shared[int(rng.integers(3))] if rng.random() < 0.5 else sentence(),
                      [sentence() for _ in range(int(rng.integers(1, 4)))])
                     for _ in range(int(rng.integers(2, 12)))]
            assert cider_scores(pairs).tobytes() == recounting_cider_scores(pairs).tobytes()

    def test_single_image_corpus_flagged(self):
        with pytest.warns(UserWarning, match="degenerate"):
            cider([("a b", ["a b"])])

    def test_corpus_score_is_mean(self):
        pairs = [("a b c", ["a b c"]), ("x y", ["z q t"])]
        per = cider_scores(pairs)
        assert abs(cider(pairs) - per.mean()) < 1e-12


def test_shuffled_labels_have_near_zero_rank_correlation():
    rng = np.random.default_rng(11)
    preds = rng.normal(size=200)
    labels = rng.permutation(preds)
    assert abs(srcc(preds, labels)) < 0.2

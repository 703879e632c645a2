"""Evaluation metrics: rank correlations, multilabel average precision, and
caption quality scores.

Conventions, all declared here rather than configurable:
- SRCC uses average ranks for ties; PLCC is the plain Pearson formula.
- AP sorts by descending score with ties broken by stable input order.
- BLEU-n is sentence-level: geometric mean of clipped modified k-gram
  precisions for k <= n times a brevity penalty using the
  closest-reference-length convention (ties prefer the shorter reference).
- ROUGE is ROUGE-L with the balanced F-measure, maximized over references.
- CIDEr uses raw-count TF times log(|images| / df) IDF over 1..4-grams,
  cosine against each reference averaged, mean over n, scaled by 10.

Texts may be passed as strings (whitespace-split) or token lists.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


def _as_float_pair(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64)
    l = np.asarray(labels, dtype=np.float64)
    if p.ndim != 1 or p.shape != l.shape:
        raise ValueError(f"expected two equal-length 1-d lists, got {p.shape} and {l.shape}")
    if p.size < 2:
        raise ValueError("need at least two scored items")
    if not (np.isfinite(p).all() and np.isfinite(l).all()):
        raise ValueError("scores and labels must be finite")
    return p, l


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank block."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def plcc(predictions, labels) -> float:
    """Pearson linear correlation coefficient."""
    p, l = _as_float_pair(predictions, labels)
    pc = p - p.mean()
    lc = l - l.mean()
    denom = math.sqrt(float(pc @ pc)) * math.sqrt(float(lc @ lc))
    if denom == 0.0:
        raise ValueError("plcc: undefined for constant input")
    return float(pc @ lc) / denom


def srcc(predictions, labels) -> float:
    """Spearman rank correlation: Pearson over average-tie ranks."""
    p, l = _as_float_pair(predictions, labels)
    if np.all(p == p[0]) or np.all(l == l[0]):
        raise ValueError("srcc: undefined for constant input")
    return plcc(_average_ranks(p), _average_ranks(l))


def average_precision(scores, positives) -> float:
    """AP for one class: mean precision at each positive, descending score
    order, ties broken by stable input order."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(positives)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"average_precision: shapes {s.shape} and {y.shape} differ")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("average_precision: labels must be binary")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average_precision: class has no positive example")
    order = np.argsort(-s, kind="stable")
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if y[idx] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


# ---------------------------------------------------------------------------
# caption metrics
# ---------------------------------------------------------------------------

def _tokens(text) -> list[str]:
    if isinstance(text, str):
        return text.split()
    return list(text)


def _ngram_counts(tokens: list[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu_n(candidate, references, n: int, all_orders: bool = False):
    """Sentence-level BLEU-n with brevity penalty. With `all_orders`, the tuple
    (BLEU-1, ..., BLEU-n), each order counted once for all of them."""
    if n not in (1, 2, 3, 4):
        raise ValueError(f"bleu_n: n must be in 1..4, got {n}")
    cand = _tokens(candidate)
    refs = [_tokens(r) for r in references]
    if not refs:
        raise ValueError("bleu_n: need at least one reference")
    scores: list[float] = []
    if cand:
        c_len = len(cand)
        r_len = min((abs(len(r) - c_len), len(r)) for r in refs)[1]
        bp = min(1.0, math.exp(1.0 - r_len / c_len))
        log_precisions = []
        for k in range(1, n + 1):
            cand_counts = _ngram_counts(cand, k)
            total = sum(cand_counts.values())
            if total == 0:
                break
            ref_counts = [_ngram_counts(r, k) for r in refs]
            clipped = 0
            for g, c in cand_counts.items():
                best = max(rc.get(g, 0) for rc in ref_counts)
                clipped += min(c, best)
            if clipped == 0:
                break
            log_precisions.append(math.log(clipped / total))
            scores.append(bp * math.exp(sum(log_precisions) / k))
    else:
        warnings.warn("bleu_n: empty candidate scores 0")
    scores += [0.0] * (n - len(scores))  # an order with no match zeroes it and all above
    return tuple(scores) if all_orders else scores[-1]


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate, references) -> float:
    """LCS F-measure (balanced harmonic mean), maximized over references."""
    cand = _tokens(candidate)
    refs = [_tokens(r) for r in references]
    if not refs:
        raise ValueError("rouge_l: need at least one reference")
    if not cand:
        return 0.0
    best = 0.0
    for ref in refs:
        if not ref:
            continue
        lcs = _lcs_length(cand, ref)
        if lcs == 0:
            continue
        p = lcs / len(cand)
        r = lcs / len(ref)
        best = max(best, 2.0 * p * r / (p + r))
    return best


def cider_scores(eval_set) -> np.ndarray:
    """Per-image CIDEr scores over a corpus of (candidate, references) pairs.

    Document frequencies come from the reference sets of the whole corpus.
    """
    pairs = [( _tokens(c), [_tokens(r) for r in refs]) for c, refs in eval_set]
    if not pairs:
        raise ValueError("cider: empty evaluation set")
    for _, refs in pairs:
        if not refs:
            raise ValueError("cider: every image needs at least one reference")
    n_images = len(pairs)
    if n_images == 1:
        warnings.warn("cider: single-image corpus has a degenerate IDF")
    max_n = 4
    # Sentences repeat (comments within a corpus, captions across images), so
    # each distinct one is counted, and later vectorized, once.
    counted: dict[tuple[str, ...], list[dict[tuple[str, ...], int]]] = {}
    vectors: dict[tuple[str, ...], list[tuple[dict, float]]] = {}

    def grams(tokens: list[str]) -> list[dict[tuple[str, ...], int]]:
        key = tuple(tokens)
        if key not in counted:
            counted[key] = [_ngram_counts(tokens, k) for k in range(1, max_n + 1)]
        return counted[key]

    dfs: list[dict[tuple[str, ...], int]] = [{} for _ in range(max_n)]
    for _, refs in pairs:
        ref_grams = [grams(ref) for ref in refs]
        for k in range(max_n):
            seen: set[tuple[str, ...]] = set()
            for counts in ref_grams:
                seen.update(counts[k])
            for g in seen:
                dfs[k][g] = dfs[k].get(g, 0) + 1

    def tfidf(counts: dict[tuple[str, ...], int], k: int) -> tuple[dict, float]:
        """An n-gram count's TF-IDF vector (order k + 1) and its L2 norm."""
        vec = {}
        for g, c in counts.items():
            df = dfs[k].get(g, 0)
            if df > 0:
                vec[g] = c * math.log(n_images / df)
        return vec, math.sqrt(math.fsum(x * x for x in vec.values()))

    def vector(tokens: list[str]) -> list[tuple[dict, float]]:
        key = tuple(tokens)
        if key not in vectors:
            vectors[key] = [tfidf(counts, k) for k, counts in enumerate(grams(tokens))]
        return vectors[key]

    def cosine(u: dict, nu: float, w: dict, nw: float) -> float:
        if nu == 0.0 or nw == 0.0:
            return 0.0
        if u == w:
            return 1.0
        dot = math.fsum(u[g] * w[g] for g in u if g in w)
        return dot / (nu * nw)

    out = np.zeros(n_images, dtype=np.float64)
    for i, (cand, refs) in enumerate(pairs):
        cv = vector(cand)
        rvs = [vector(ref) for ref in refs]
        per_n = [math.fsum(cosine(*cv[k], *rv[k]) for rv in rvs) / len(rvs)
                 for k in range(max_n)]
        out[i] = 10.0 * math.fsum(per_n) / max_n
    return out


def cider(eval_set) -> float:
    """Corpus CIDEr: mean of the per-image scores."""
    return float(cider_scores(eval_set).mean())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
(they also appear with plain `pytest` via captured output on failure).

The expensive artifacts (the 512-image corpus with its two-stage pipeline and
the 32-pair overfit run) are built once per session and shared.
"""

import math
import os
import time

import numpy as np
import pytest

from critiq import autodiff as ad
from critiq import checkpoint as ckpt
from critiq import objectives as obj
from critiq import zsl
from critiq.autodiff import Tensor, finite_diff_check
from critiq.config import TrainConfig
from critiq.data import load_manifest, save_manifest
from critiq.metrics import (average_precision, bleu_n, cider_scores, plcc, rouge_l,
                            srcc)
from critiq.model import ModelConfig, ModelParams
from critiq.synth import SynthSpec, generate_synthetic_corpus
from critiq.train import (adapter_finetune, evaluate, export_prompt_cache, pretrain,
                          vocab_path_for)
from oracles import (brute_force_ap, brute_force_bleu, brute_force_cider,
                     brute_force_plcc, brute_force_rouge_l, brute_force_srcc, sha256_file)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


TINY = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                   encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                   mlp_dim=32, generative_pool_queries=2, vocab_size=64,
                   max_text_length=16)


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus512(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus512")
    t0 = time.time()
    manifest = generate_synthetic_corpus(SynthSpec(count=512), str(root), 2024)
    records = load_manifest(manifest)
    train_m = str(root / "train.jsonl")
    eval_m = str(root / "eval.jsonl")
    save_manifest(records[:384], train_m)
    save_manifest(records[384:], eval_m)
    return {"train": train_m, "eval": eval_m, "gen_seconds": time.time() - t0}


@pytest.fixture(scope="session")
def pipeline512(corpus512, tmp_path_factory):
    """Criterion-5 pipeline: 2000 pretraining steps + 500 adapter steps."""
    root = tmp_path_factory.mktemp("pipeline512")
    backbone = str(root / "model.ckpt")
    adapter_path = str(root / "adapter.ckpt")
    t0 = time.time()
    cfg = TrainConfig(stage="pretrain", steps=2000, batch_size=16,
                      learning_rate=1e-3, weight_decay=0.01, seed=0)
    pretrain(cfg, corpus512["train"], backbone)
    acfg = TrainConfig(stage="adapt", steps=500, batch_size=32, learning_rate=1e-2,
                       weight_decay=0.01, seed=0, margin=0.1)
    adapter, _, info = adapter_finetune(acfg, corpus512["train"], backbone,
                                        adapter_path)
    elapsed = time.time() - t0 + corpus512["gen_seconds"]
    return {"backbone": backbone, "adapter": adapter_path, "info": info,
            "seconds": elapsed, "adapt_cfg": acfg}


@pytest.fixture(scope="session")
def overfit32(tmp_path_factory):
    """Criterion-7 run: 2000 steps on a 32-image single-comment corpus."""
    root = tmp_path_factory.mktemp("overfit32")
    manifest = generate_synthetic_corpus(
        SynthSpec(count=32, comments_min=1, comments_max=1), str(root), 42)
    backbone = str(root / "model.ckpt")
    cfg = TrainConfig(stage="pretrain", steps=2000, batch_size=16,
                      learning_rate=1e-3, weight_decay=0.01, seed=0)
    _, log, _ = pretrain(cfg, manifest, backbone)
    return {"manifest": manifest, "backbone": backbone, "losses": log.losses()}


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity, >= 100 random seeds, < 2 min
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    checked = 0
    worst = 0.0
    h = 1e-5

    def run(f, params):
        nonlocal checked, worst
        rep = finite_diff_check(f, params, h=h, tol=1e-4)
        assert rep.ok, str(rep)
        checked += 1
        worst = max(worst, rep.max_rel_err)

    def units(rng, n, d):
        x = rng.normal(size=(n, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    for seed in range(30):  # contrastive objective, temperature included
        rng = np.random.default_rng((1, seed))
        params = {
            "x": Tensor(units(rng, 4, 8), requires_grad=True, dtype=np.float64),
            "y": Tensor(units(rng, 4, 8), requires_grad=True, dtype=np.float64),
            "log_tau": Tensor(np.array(math.log(0.07)), requires_grad=True,
                              dtype=np.float64)}
        run(lambda ps: obj.contrastive_loss(ps["x"], ps["y"], ad.exp(ps["log_tau"])),
            params)

    for seed in range(30):  # caption objective with PAD masking
        rng = np.random.default_rng((2, seed))
        targets = rng.integers(0, 7, size=6)
        mask = rng.random(6) > 0.25
        mask[0] = True
        params = {"logits": Tensor(rng.normal(size=(6, 7)), requires_grad=True,
                                   dtype=np.float64)}
        run(lambda ps: obj.generative_loss(ps["logits"], targets, mask), params)

    for seed in range(20):  # weighted co-training combination
        rng = np.random.default_rng((3, seed))
        targets = rng.integers(0, 5, size=4)
        mask = np.ones(4, dtype=bool)
        params = {
            "x": Tensor(units(rng, 3, 6), requires_grad=True, dtype=np.float64),
            "y": Tensor(units(rng, 3, 6), requires_grad=True, dtype=np.float64),
            "logits": Tensor(rng.normal(size=(4, 5)), requires_grad=True,
                             dtype=np.float64)}

        def co(ps):
            return obj.pretraining_loss(
                obj.contrastive_loss(ps["x"], ps["y"], 0.07),
                obj.generative_loss(ps["logits"], targets, mask),
                obj.LossWeights(alpha=1.0, beta=2.0))

        run(co, params)

    seed = 0
    kink_checked = 0
    while kink_checked < 30:  # rank hinge away from its kinks
        rng = np.random.default_rng((4, seed))
        seed += 1
        raw = rng.normal(size=(4, 3))
        labels = rng.normal(size=4)
        anchor = np.zeros(3)
        anchor[0] = 1.0
        residual = rng.normal(size=(3, 3)) * 0.2
        probe = obj.AdapterState(residual=Tensor(residual, dtype=np.float64),
                                 anchor=anchor, margin=0.1)
        with ad.no_grad():
            scores = obj.score_images(Tensor(raw), probe).data
        gaps = 0.1 - (scores[:, None] - scores[None, :])
        active = labels[:, None] > labels[None, :]
        if np.abs(gaps[active]).min() < 10 * h:
            continue  # exclude batches near the hinge boundary

        def hinge(ps):
            adapter = obj.AdapterState(residual=ps["residual"], anchor=anchor,
                                       margin=0.1)
            return obj.rank_adapter_loss(Tensor(raw), labels, adapter)

        run(hinge, {"residual": Tensor(residual, requires_grad=True,
                                       dtype=np.float64)})
        kink_checked += 1

    elapsed = time.time() - t0
    ok = checked >= 100 and elapsed < 120
    report(1, ok, f"{checked} finite-difference checks, max rel err "
                  f"{worst:.2e} <= 1e-4, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 2: closed-form loss oracles
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_losses():
    x1 = Tensor(np.array([[0.6, 0.8]]), dtype=np.float64)
    single = float(obj.contrastive_loss(x1, x1, 1.0).data)

    e = Tensor(np.eye(2), dtype=np.float64)
    ortho = float(obj.contrastive_loss(e, e, 1.0).data)
    ortho_expected = 2 * math.log(1 + math.exp(-1))

    logits = Tensor(np.zeros((4, 16)), dtype=np.float64)
    uniform = float(obj.generative_loss(
        logits, np.array([1, 2, 3, 4]), np.ones(4, dtype=bool)).data)
    masked = float(obj.generative_loss(
        logits, np.array([1, 2, 3, 0]), np.array([True, True, True, False])).data)

    tied = []
    for labels, margin in (([2.0, 1.0], 0.1), ([3.0, 2.0, 2.0], 0.1),
                           ([3.0, 2.0, 1.0], 0.125)):
        n = len(labels)
        v = Tensor(np.tile([[0.6, 0.8]], (n, 1)), dtype=np.float64)
        adapter = obj.AdapterState.zero_init(np.array([1.0, 0.0]), margin=margin,
                                             dtype=np.float64)
        tied.append(float(obj.rank_adapter_loss(v, np.array(labels), adapter).data)
                    == margin)

    ok = (single == 0.0
          and abs(ortho - ortho_expected) < 1e-9
          and abs(uniform - 4 * math.log(16)) < 1e-9
          and abs(masked - 3 * math.log(16)) < 1e-9
          and all(tied))
    report(2, ok, f"N=1 contrastive {single}; orthonormal pair "
                  f"{ortho:.12f} vs {ortho_expected:.12f}; uniform generative "
                  f"{uniform:.9f}; tied rank loss bitwise == margin: {tied}")


# ---------------------------------------------------------------------------
# criterion 3: adapter-init ranking equivalence on 1000 embeddings
# ---------------------------------------------------------------------------

def test_criterion_3_adapter_init_equivalence():
    rng = np.random.default_rng(33)
    d = 32
    anchor = rng.normal(size=d)
    anchor /= np.linalg.norm(anchor)
    adapter = obj.AdapterState.zero_init(anchor, dtype=np.float64)
    v = rng.normal(size=(1000, d)) * rng.uniform(0.25, 4.0, size=(1000, 1))
    with ad.no_grad():
        scores = obj.score_images(Tensor(v, dtype=np.float64), adapter).data
    cosines = (v / np.linalg.norm(v, axis=1, keepdims=True)) @ anchor
    ok = np.array_equal(np.argsort(scores), np.argsort(cosines))
    report(3, ok, "zero-residual adapter ranking of 1000 embeddings == "
                  "anchor-cosine ranking (exact permutation match)")


# ---------------------------------------------------------------------------
# criterion 4: freeze contract and tunable fraction
# ---------------------------------------------------------------------------

def test_criterion_4_freeze_contract(pipeline512, corpus512, tmp_path):
    before = {n: a.tobytes() for n, a in ckpt.load(pipeline512["backbone"]).items()}
    adapter_path = str(tmp_path / "adapter_check.ckpt")
    _, _, info = adapter_finetune(pipeline512["adapt_cfg"], corpus512["train"],
                                  pipeline512["backbone"], adapter_path)
    after = {n: a.tobytes() for n, a in ckpt.load(pipeline512["backbone"]).items()}
    ok = (before == after and info["updated_tensors"] == ["adapter/residual"])
    report(4, ok, f"backbone bitwise unchanged; updated set "
                  f"{info['updated_tensors']}; tunable fraction "
                  f"{info['tunable_fraction']:.4%} "
                  f"({info['tunable_params']} of {info['backbone_params']}; "
                  f"the full-scale figure is ~0.1%)")


# ---------------------------------------------------------------------------
# criterion 5: synthetic end-to-end, SRCC >= 0.90 on the held-out split
# ---------------------------------------------------------------------------

def test_criterion_5_synthetic_iaa_end_to_end(pipeline512, corpus512):
    t0 = time.time()
    _, results = evaluate(pipeline512["backbone"], corpus512["eval"], ["iaa"],
                          adapter_path=pipeline512["adapter"])
    elapsed = pipeline512["seconds"] + (time.time() - t0)
    got = results["iaa"]["srcc"]
    ok = got >= 0.90 and elapsed < 900
    report(5, ok, f"held-out SRCC {got:.4f} >= 0.90 "
                  f"(PLCC {results['iaa']['plcc']:.4f}); pipeline "
                  f"{elapsed / 60:.1f} min < 15 min")


def test_criterion_5_sanity_zero_shot_positive(pipeline512, corpus512):
    # supporting sign test: prompt scoring correlates with the rating after
    # pretraining alone (no adapter)
    _, results = evaluate(pipeline512["backbone"], corpus512["eval"], ["zsl-iaa"])
    got = results["zsl-iaa"]["srcc"]
    print(f"\n  (zero-shot sanity: ensemble SRCC {got:.4f} > 0)")
    assert got > 0


# ---------------------------------------------------------------------------
# criterion 6: margin ablation sweep
# ---------------------------------------------------------------------------

def test_criterion_6_margin_sweep(pipeline512, corpus512, tmp_path):
    per_margin = {}
    for m in (0.01, 0.1, 0.2):
        cfg = TrainConfig(stage="adapt", steps=500, batch_size=32,
                          learning_rate=1e-2, weight_decay=0.01, seed=0, margin=m)
        path = str(tmp_path / f"adapter_m{m}.ckpt")
        adapter_finetune(cfg, corpus512["train"], pipeline512["backbone"], path)
        _, results = evaluate(pipeline512["backbone"], corpus512["eval"], ["iaa"],
                              adapter_path=path)
        per_margin[m] = results["iaa"]["srcc"]
    ok = all(np.isfinite(v) for v in per_margin.values())
    detail = ", ".join(f"m={m}: SRCC {v:.4f}" for m, v in per_margin.items())
    report(6, ok, f"margin sweep completed ({detail}; no ordering asserted)")


# ---------------------------------------------------------------------------
# criterion 7: caption overfit
# ---------------------------------------------------------------------------

def test_criterion_7_caption_overfit(overfit32):
    losses = overfit32["losses"]
    early = float(np.mean(losses[:10]))
    late = float(np.mean(losses[-10:]))
    _, results = evaluate(overfit32["backbone"], overfit32["manifest"], ["caption"])
    records = load_manifest(overfit32["manifest"])
    matches = sum(c == r.comments[0]
                  for c, r in zip(results["caption"]["captions"], records))
    ok = late <= 0.1 * early and matches >= 0.9 * len(records)
    report(7, ok, f"loss fell {100 * (1 - late / early):.1f}% from the step-10 "
                  f"average ({early:.2f} -> {late:.2f}); verbatim captions "
                  f"{matches}/{len(records)} >= 90%")


# ---------------------------------------------------------------------------
# criterion 8: zero-shot formula and swap antisymmetry
# ---------------------------------------------------------------------------

def test_criterion_8_zsl_formula():
    v = np.array([1.0, 0.0, 0.0, 0.0])
    pg = np.array([0.8, 0.6, 0.0, 0.0])
    pb = np.array([0.2, 0.0, math.sqrt(1 - 0.04), 0.0])
    pair = zsl.PromptPairEmbedding(pg, pb, "g", "b")
    got = zsl.zsl_iaa_single(v, pair)
    formula_ok = abs(got - 1 / (1 + math.exp(-0.6))) < 1e-9

    rng = np.random.default_rng(88)
    swap_ok = True
    for _ in range(1000):
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        a = rng.normal(size=6)
        a /= np.linalg.norm(a)
        b = rng.normal(size=6)
        b /= np.linalg.norm(b)
        fwd = zsl.zsl_iaa_single(u, zsl.PromptPairEmbedding(a, b, "g", "b"))
        rev = zsl.zsl_iaa_single(u, zsl.PromptPairEmbedding(b, a, "b", "g"))
        swap_ok = swap_ok and (fwd + rev == 1.0)

    pairs = [zsl.PromptPairEmbedding(*(x / np.linalg.norm(x) for x in
                                       (rng.normal(size=6), rng.normal(size=6))),
                                     "g", "b") for _ in range(6)]
    u = rng.normal(size=6)
    u /= np.linalg.norm(u)
    parts = [zsl.zsl_iaa_single(u, p) for p in pairs]
    ens = zsl.zsl_iaa_ensemble(u, pairs)
    ens_ok = abs(ens - math.fsum(parts) / 6) < 1e-15 and \
        min(parts) <= ens <= max(parts)

    ok = formula_ok and swap_ok and ens_ok
    report(8, ok, f"delta 0.6 -> {got:.9f} (matches 1/(1+e^-0.6) to 1e-9, "
                  f"~0.64566); 1000 pair swaps summed to exactly 1: {swap_ok}; "
                  f"6-pair ensemble equals the mean of its parts: {ens_ok}")


# ---------------------------------------------------------------------------
# criterion 9: metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(99)
    worst = 0.0

    for _ in range(100):  # rank correlations
        n = int(rng.integers(3, 25))
        p = rng.normal(size=n)
        l = rng.integers(0, 8, size=n).astype(float)
        if np.all(l == l[0]):
            continue
        worst = max(worst, abs(srcc(p, l) - brute_force_srcc(list(p), list(l))))
        worst = max(worst, abs(plcc(p, l) - brute_force_plcc(list(p), list(l))))

    for _ in range(100):  # average precision
        n = int(rng.integers(2, 25))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        worst = max(worst, abs(average_precision(scores, labels)
                               - brute_force_ap(list(scores), list(labels))))

    words = ["a", "b", "c", "d", "e"]
    for _ in range(100):  # caption metrics
        cand = " ".join(rng.choice(words, size=rng.integers(1, 9)))
        refs = [" ".join(rng.choice(words, size=rng.integers(1, 9)))
                for _ in range(int(rng.integers(1, 4)))]
        n = int(rng.integers(1, 5))
        worst = max(worst, abs(bleu_n(cand, refs, n) - brute_force_bleu(cand, refs, n)))
        worst = max(worst, abs(rouge_l(cand, refs) - brute_force_rouge_l(cand, refs)))

    for _ in range(100):  # corpus-level consensus metric
        n_img = int(rng.integers(2, 5))
        pairs = []
        for _ in range(n_img):
            cand = " ".join(rng.choice(words, size=rng.integers(1, 7)))
            refs = [" ".join(rng.choice(words, size=rng.integers(1, 7)))
                    for _ in range(int(rng.integers(1, 3)))]
            pairs.append((cand, refs))
        worst = max(worst, np.abs(cider_scores(pairs)
                                  - brute_force_cider(pairs)).max())

    worked = (abs(srcc([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
              and abs(average_precision([0.9, 0.8, 0.7], [1, 0, 1]) - 5 / 6) < 1e-12
              and abs(bleu_n("the cat sat", ["the cat sat down"], 1)
                      - math.exp(1 - 4 / 3)) < 1e-12)
    ok = worst < 1e-9 and worked
    report(9, ok, f"400+ random instances, worst oracle gap {worst:.2e} < 1e-9; "
                  f"worked examples (SRCC 0.8, AP 0.8333, BLEU-1 0.71653) hold")


# ---------------------------------------------------------------------------
# criterion 10: determinism and resume
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_and_resume(tmp_path):
    root = str(tmp_path)
    manifest = generate_synthetic_corpus(
        SynthSpec(count=12, comments_min=1, comments_max=2), root, 5)

    def cfg(**kw):
        base = dict(stage="pretrain", steps=100, batch_size=4, learning_rate=1e-3,
                    weight_decay=0.01, seed=9, model=TINY)
        base.update(kw)
        return TrainConfig(**base)

    log_a = pretrain(cfg(), manifest, os.path.join(root, "a.ckpt"))[1]
    log_b = pretrain(cfg(), manifest, os.path.join(root, "b.ckpt"))[1]
    identical = log_a.to_jsonl() == log_b.to_jsonl()

    mid = os.path.join(root, "mid.ckpt")
    first = pretrain(cfg(), manifest, mid, stop_after=50)[1]
    resumed = pretrain(cfg(), manifest, os.path.join(root, "res.ckpt"),
                       resume_from=mid)[1]
    from critiq.train import RunLog
    combined = RunLog(first.records + resumed.records)
    resume_ok = combined.to_jsonl() == log_a.to_jsonl()

    ok = identical and resume_ok
    report(10, ok, f"two identical 100-step runs bitwise equal: {identical}; "
                   f"50 + checkpoint + 50 equals 100 bitwise: {resume_ok}")


# ---------------------------------------------------------------------------
# criterion 11: checkpoint and prompt-cache round trips
# ---------------------------------------------------------------------------

def test_criterion_11_round_trips(tmp_path):
    params = ModelParams.initialize(TINY, seed=4)
    path = str(tmp_path / "model.ckpt")
    params.save(path)
    loaded, _ = ModelParams.load(path)
    ckpt_ok = all(loaded[n].data.tobytes() == t.data.tobytes()
                  for n, t in params.items())

    other = ModelConfig(image_size=16, patch_size=8, hidden_dim=32, n_heads=2,
                        encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                        mlp_dim=32, generative_pool_queries=2, vocab_size=64,
                        max_text_length=16)
    try:
        ModelParams.load(path, expected_config=other)
        mismatch_ok = False
        diag = "no error raised"
    except ckpt.CheckpointError as e:
        diag = str(e)
        mismatch_ok = "'" in diag and "shape" in diag

    from critiq.prompts import PromptBank
    from critiq.tokenizer import Vocabulary
    vocab = Vocabulary.build(PromptBank.default().all_texts(), TINY.vocab_size)
    vocab.save(vocab_path_for(path))
    cache = str(tmp_path / "prompts.cache")
    export_prompt_cache(path, cache)
    table = zsl.load_prompt_cache(cache, sha256_file(path))
    fresh = zsl.embed_bank(PromptBank.default(), loaded, TINY, vocab)
    cache_ok = set(table) == set(fresh) and all(
        table[k].tobytes() == fresh[k].tobytes() for k in fresh)

    ok = ckpt_ok and mismatch_ok and cache_ok
    report(11, ok, f"checkpoint bitwise lossless: {ckpt_ok}; config-mismatch "
                   f"diagnostic names the tensor: {mismatch_ok}; prompt cache "
                   f"bitwise lossless: {cache_ok}")

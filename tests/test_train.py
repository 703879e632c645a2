"""Training orchestration: determinism, resume equality, the freeze contract,
schedules, and the evaluation drivers."""

import builtins
import hashlib
import json
import math
import os
import re
import weakref

import numpy as np
import pytest

from critiq import checkpoint as ckpt
from critiq import metrics as met
from critiq import objectives as obj
from critiq import tokenizer as tok
from critiq import train, zsl
from critiq.cli import cli_dispatch
from critiq.config import TrainConfig
from critiq.data import Batch, load_manifest, record_image_path, save_manifest
from critiq.imageio import read_image
from critiq.model import ModelConfig, ModelParams, PrefixCache, generate_caption
from critiq.optim import AdamW
from critiq.prompts import PromptBank
from critiq.synth import SynthSpec, generate_synthetic_corpus
from critiq.train import (RunLog as RunLogBytes, adapter_finetune, caption_images,
                          center_crop, embed_images, evaluate, export_prompt_cache, load_adapter,
                          pretrain, pretrain_step_loss, vocab_path_for, zsl_score_lines)
from oracles import (assert_arena_views, assert_match_scalar_oracle, gen_tokens,
                     sha256_file, stepwise_caption, uncached_greedy_caption)

TINY = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                   encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                   mlp_dim=32, generative_pool_queries=2, vocab_size=64,
                   max_text_length=16)


def tiny_cfg(**kw):
    base = dict(stage="pretrain", steps=6, batch_size=4, learning_rate=1e-3,
                weight_decay=0.01, seed=3, model=TINY)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_synthetic_corpus(SynthSpec(count=10, comments_min=1,
                                                   comments_max=2), str(root), 17)
    return manifest


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = str(tmp_path_factory.mktemp("run") / "model.ckpt")
    params, log, vocab = pretrain(tiny_cfg(), corpus, out)
    return out, params, log, vocab


class TestPretrain:
    def test_writes_checkpoint_and_vocab(self, trained):
        out, params, log, vocab = trained
        assert os.path.exists(out) and os.path.exists(vocab_path_for(out))
        assert len(log.losses()) == 6
        assert all(np.isfinite(v) for v in log.losses())

    def test_log_records_schedule_and_temperature(self, trained):
        _, _, log, _ = trained
        steps = [r for r in log.records if r["kind"] == "step"]
        for r in steps:
            assert abs(r["lr"] - 1e-3 * (1 - r["step"] / 6)) < 1e-12
            assert r["tau"] > 0
            assert {"loss", "loss_con", "loss_gen"} <= set(r)

    def test_log_records_pre_clip_grad_norm(self, trained, corpus, tmp_path):
        steps = [r for r in trained[2].records if r["kind"] == "step"]
        assert all(math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0 for r in steps)
        _, unclipped, _ = pretrain(tiny_cfg(steps=2, grad_clip=0.0), corpus,
                                   str(tmp_path / "m.ckpt"))
        assert all("grad_norm" not in r for r in unclipped.records)

    def test_update_reads_the_clipped_gradient(self, corpus, tmp_path, monkeypatch):
        seen = []

        class Recorded(AdamW):
            def step(self, lr):
                seen.append(float(np.linalg.norm(self.grad.astype(np.float64))))
                super().step(lr)

        monkeypatch.setattr(train, "AdamW", Recorded)
        _, log, _ = pretrain(tiny_cfg(steps=3, grad_clip=1e-3), corpus,
                             str(tmp_path / "c.ckpt"))
        assert all(r["grad_norm"] > 1e-3 for r in log.records)
        assert seen == pytest.approx([1e-3] * 3, rel=1e-5)

    def test_zero_step_run_keeps_init_bitwise(self, corpus, tmp_path):
        out = str(tmp_path / "zero.ckpt")
        cfg = tiny_cfg(steps=0)
        params, log, _ = pretrain(cfg, corpus, out)
        init = ModelParams.initialize(TINY, cfg.seed)
        loaded, _ = ModelParams.load(out)
        for name, t in init.items():
            assert loaded[name].data.tobytes() == t.data.tobytes(), name
        assert log.losses() == []

    def test_bitwise_deterministic_run_logs(self, corpus, tmp_path):
        a = pretrain(tiny_cfg(), corpus, str(tmp_path / "a.ckpt"))[1]
        b = pretrain(tiny_cfg(), corpus, str(tmp_path / "b.ckpt"))[1]
        assert a.to_jsonl() == b.to_jsonl()

    def test_resume_bitwise_loss_sequence(self, corpus, tmp_path):
        # interrupted run at step 3 plus resumed remainder == one-shot run
        full = pretrain(tiny_cfg(steps=6), corpus, str(tmp_path / "full.ckpt"))[1]
        mid = str(tmp_path / "mid.ckpt")
        first = pretrain(tiny_cfg(steps=6), corpus, mid, stop_after=3)[1]
        resumed = pretrain(tiny_cfg(steps=6), corpus, str(tmp_path / "res.ckpt"),
                           resume_from=mid)[1]
        assert len(first.losses()) == 3 and len(resumed.losses()) == 3
        combined = RunLogBytes(first.records + resumed.records)
        assert combined.to_jsonl() == full.to_jsonl()

    def test_records_without_comments_rejected(self, corpus, tmp_path):
        records = load_manifest(corpus)
        records[0].comments = []
        bad = str(tmp_path / "bad.jsonl")
        save_manifest(records, bad)
        os.symlink(os.path.join(os.path.dirname(corpus), "images"),
                   os.path.join(tmp_path, "images"))
        with pytest.raises(ValueError, match="comments"):
            pretrain(tiny_cfg(), bad, str(tmp_path / "x.ckpt"))

    def test_wrong_stage_rejected(self, corpus, tmp_path):
        with pytest.raises(ValueError, match="stage"):
            pretrain(tiny_cfg(stage="adapt"), corpus, str(tmp_path / "x.ckpt"))

    def test_eval_cadence_appends_metric_snapshots(self, corpus, tmp_path):
        _, log, _ = pretrain(tiny_cfg(steps=4, eval_every=2), corpus,
                             str(tmp_path / "e.ckpt"))
        evals = [r for r in log.records if r["kind"] == "eval"]
        assert len(evals) == 2
        assert all("zsl_srcc" in r and "zsl_plcc" in r for r in evals)

    @pytest.mark.parametrize("mos, reason", [(5.0, "constant input"),
                                             (None, "0 records carry a mos label")])
    def test_eval_snapshot_logs_why_it_skipped(self, corpus, tmp_path, mos, reason):
        records = load_manifest(corpus)
        for r in records:
            r.mos = mos
        flat = str(tmp_path / "flat.jsonl")
        save_manifest(records, flat)
        os.symlink(os.path.join(os.path.dirname(corpus), "images"),
                   os.path.join(tmp_path, "images"))
        _, log, _ = pretrain(tiny_cfg(steps=4, eval_every=2), flat,
                             str(tmp_path / "e.ckpt"))
        evals = [r for r in log.records if r["kind"] == "eval"]
        assert [r["step"] for r in evals] == [1, 3]
        assert all(reason in r["skipped"] and "zsl_srcc" not in r for r in evals)


def test_desk_default_step_graph_size():
    """One pretraining step at the desk defaults builds at most 267 graph nodes
    (leaves included); the count depends on the architecture, not the batch."""
    cfg = TrainConfig()
    params = ModelParams.initialize(cfg.model, seed=0)
    size = cfg.model.image_size
    batch = Batch(ids=["a", "b"], images=np.zeros((2, size, size, 3), dtype=np.float32),
                  gen_tokens=np.array([[tok.BOS, 7, 8, tok.EOS], [tok.BOS, 9, tok.EOS, tok.PAD]]),
                  con_tokens=[[7, 8, tok.CLS], [9, tok.CLS]])
    loss, _, _ = pretrain_step_loss(batch, params, cfg.model,
                                    obj.LossWeights(alpha=cfg.alpha, beta=cfg.beta))
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert len(seen) <= 267


def test_step_graph_released_before_next_forward(corpus, tmp_path, monkeypatch):
    """Step k's losses (and with them its graph) are gone when step k+1's
    forward starts."""
    refs = []

    def spy(*args, **kwargs):
        assert all(r() is None for r in refs)
        out = real(*args, **kwargs)
        refs.extend(weakref.ref(t.data) for t in out)
        return out

    real = train.pretrain_step_loss
    monkeypatch.setattr(train, "pretrain_step_loss", spy)
    pretrain(tiny_cfg(steps=3), corpus, str(tmp_path / "g.ckpt"))
    assert len(refs) == 9


class TestResumeEquality:
    def test_resumed_params_and_moments_stay_in_the_arena(self, corpus, tmp_path,
                                                         monkeypatch):
        made = []

        class Recorded(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        mid = str(tmp_path / "mid.ckpt")
        pretrain(tiny_cfg(steps=4), corpus, mid, stop_after=2)
        monkeypatch.setattr(train, "AdamW", Recorded)
        params, _, _ = pretrain(tiny_cfg(steps=4), corpus, str(tmp_path / "end.ckpt"),
                                resume_from=mid)
        (opt,) = made
        assert opt.step_count == 4
        assert_arena_views(opt, params.tensors)

    def test_optimizer_state_round_trips(self, corpus, tmp_path):
        path = str(tmp_path / "f.ckpt")
        pretrain(tiny_cfg(steps=6), corpus, path)
        params, extra = ModelParams.load(path)
        assert int(extra["opt/step"]) == 6
        moment_names = {n for n in extra if n.startswith("opt/m/")}
        assert moment_names == {f"opt/m/{n}" for n in params.names()}


class TestAdapterFinetune:
    def adapt_cfg(self, **kw):
        base = dict(stage="adapt", steps=8, batch_size=5, learning_rate=5e-3,
                    weight_decay=0.0, seed=1, margin=0.1, model=TINY)
        base.update(kw)
        return TrainConfig(**base)

    def test_freeze_contract_and_updated_set(self, trained, corpus, tmp_path):
        out, _, _, _ = trained
        before = {n: a.tobytes() for n, a in ckpt.load(out).items()}
        adapter_path = str(tmp_path / "adapter.ckpt")
        adapter, log, info = adapter_finetune(self.adapt_cfg(), corpus, out,
                                              adapter_path)
        after = {n: a.tobytes() for n, a in ckpt.load(out).items()}
        assert before == after
        assert info["updated_tensors"] == ["adapter/residual"]
        assert info["tunable_params"] == TINY.hidden_dim ** 2
        assert 0 < info["tunable_fraction"] < 1
        assert os.path.exists(adapter_path)

    def test_adapter_training_changes_residual(self, trained, corpus, tmp_path):
        out, _, _, _ = trained
        adapter, log, _ = adapter_finetune(self.adapt_cfg(), corpus, out,
                                           str(tmp_path / "a.ckpt"))
        assert np.abs(adapter.residual.data).max() > 0
        losses = [v for v in log.losses() if not math.isnan(v)]
        assert losses and all(np.isfinite(losses))

    def test_learnable_anchor_variant_updates_anchor(self, trained, corpus, tmp_path):
        out, _, _, _ = trained
        adapter, _, info = adapter_finetune(
            self.adapt_cfg(use_text_anchor=False), corpus, out,
            str(tmp_path / "b.ckpt"))
        assert info["updated_tensors"] == ["adapter/anchor", "adapter/residual"]
        assert adapter.learnable_anchor is not None

    def test_missing_mos_rejected(self, trained, tmp_path, corpus):
        out, _, _, _ = trained
        records = load_manifest(corpus)
        for r in records:
            r.mos = None
        bad = str(tmp_path / "nomos.jsonl")
        save_manifest(records, bad)
        with pytest.raises(ValueError, match="mos"):
            adapter_finetune(self.adapt_cfg(), bad, out, str(tmp_path / "x.ckpt"))

    def test_all_tied_labels_abort(self, trained, tmp_path, corpus):
        out, _, _, _ = trained
        records = load_manifest(corpus)
        for r in records:
            r.mos = 5.0
        tied = str(tmp_path / "tied.jsonl")
        save_manifest(records, tied)
        os.symlink(os.path.join(os.path.dirname(corpus), "images"),
                   os.path.join(tmp_path, "images"))
        with pytest.raises(RuntimeError, match="all-tied"):
            adapter_finetune(self.adapt_cfg(), tied, out, str(tmp_path / "x.ckpt"))

    def test_adapter_round_trip(self, trained, corpus, tmp_path):
        out, _, _, _ = trained
        path = str(tmp_path / "adapter.ckpt")
        adapter, _, _ = adapter_finetune(self.adapt_cfg(), corpus, out, path)
        back = load_adapter(path, sha256_file(out))
        assert back.residual.data.tobytes() == adapter.residual.data.tobytes()
        assert back.anchor.tobytes() == adapter.anchor.tobytes()
        assert back.margin == adapter.margin
        assert back.use_residual and back.use_text_anchor

    def test_margin_sweep_runs(self, trained, corpus, tmp_path):
        out, _, _, _ = trained
        results = {}
        for m in (0.01, 0.1, 0.2):
            _, log, _ = adapter_finetune(self.adapt_cfg(margin=m, steps=4), corpus,
                                         out, str(tmp_path / f"m{m}.ckpt"))
            results[m] = log.losses()[-1]
        assert len(results) == 3


class TestEvaluate:
    def test_report_bytes_deterministic(self, trained, corpus):
        out, _, _, _ = trained
        r1, _ = evaluate(out, corpus, ["zsl-iaa", "zsl-style", "caption"])
        r2, _ = evaluate(out, corpus, ["zsl-iaa", "zsl-style", "caption"])
        assert r1.encode() == r2.encode()

    def test_iaa_task_with_adapter(self, trained, corpus, tmp_path):
        out, _, _, _ = trained
        cfg = TrainConfig(stage="adapt", steps=4, batch_size=5, learning_rate=5e-3,
                          seed=1, model=TINY)
        adapter_path = str(tmp_path / "a.ckpt")
        adapter_finetune(cfg, corpus, out, adapter_path)
        report, results = evaluate(out, corpus, ["iaa"], adapter_path=adapter_path)
        assert "task iaa" in report
        assert -1 <= results["iaa"]["srcc"] <= 1

    def test_adapter_checked_against_backbone(self, trained, corpus, tmp_path):
        out, _, _, _ = trained
        cfg = TrainConfig(stage="adapt", steps=4, batch_size=5, learning_rate=5e-3,
                          seed=1, model=TINY)
        adapter_path = str(tmp_path / "a.ckpt")
        adapter_finetune(cfg, corpus, out, adapter_path)
        same, _ = evaluate(out, corpus, ["iaa"], adapter_path=adapter_path)
        assert "task iaa" in same
        other = str(tmp_path / "other.ckpt")
        pretrain(tiny_cfg(steps=2, seed=4), corpus, other)
        named = re.escape(adapter_path) + ".*meta/backbone_sha256"
        with pytest.raises(ckpt.CheckpointError, match=named):
            evaluate(other, corpus, ["iaa"], adapter_path=adapter_path)
        unhashed = str(tmp_path / "unhashed.ckpt")
        tensors = ckpt.load(adapter_path)
        del tensors["meta/backbone_sha256"]
        ckpt.save(tensors, unhashed)
        with pytest.raises(ckpt.CheckpointError,
                           match=re.escape(unhashed) + ".*meta/backbone_sha256"):
            evaluate(out, corpus, ["iaa"], adapter_path=unhashed)

    def test_iaa_without_adapter_rejected(self, trained, corpus):
        out, _, _, _ = trained
        with pytest.raises(ValueError, match="adapter"):
            evaluate(out, corpus, ["iaa"])

    def test_missing_labels_error_names_task(self, trained, tmp_path, corpus):
        out, _, _, _ = trained
        records = load_manifest(corpus)
        for r in records:
            r.mos = None
        nomos = str(tmp_path / "nomos.jsonl")
        save_manifest(records, nomos)
        os.symlink(os.path.join(os.path.dirname(corpus), "images"),
                   os.path.join(tmp_path, "images"))
        with pytest.raises(ValueError, match="zsl-iaa"):
            evaluate(out, nomos, ["zsl-iaa"])

    def test_unknown_task_rejected(self, trained, corpus):
        out, _, _, _ = trained
        with pytest.raises(ValueError, match="unknown task"):
            evaluate(out, corpus, ["nonsense"])

    @pytest.mark.parametrize("tasks", [["caption"], ["zsl-iaa"]])
    def test_unknown_mode_rejected_before_loading(self, tmp_path, corpus, tasks):
        # the checkpoint does not exist: only a check made before loading can fire
        missing = str(tmp_path / "missing.ckpt")
        with pytest.raises(ValueError, match="unknown zero-shot mode 'bogus'"):
            evaluate(missing, corpus, tasks, mode="bogus")

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_caption_max_len_below_one_rejected_before_loading(self, tmp_path, corpus,
                                                               max_len):
        missing = str(tmp_path / "missing.ckpt")
        with pytest.raises(ValueError, match=f"max_len must be at least 1, got {max_len}"):
            evaluate(missing, corpus, ["caption"], caption_max_len=max_len)

    def test_backbone_read_once_per_job(self, trained, corpus, tmp_path, monkeypatch):
        out, _, _, _ = trained
        cfg = TrainConfig(stage="adapt", steps=4, batch_size=5, learning_rate=5e-3,
                          seed=1, model=TINY)
        adapter_path = str(tmp_path / "a.ckpt")
        cache = str(tmp_path / "prompts.cache")
        export_prompt_cache(out, cache)
        opens = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == out:
                opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        adapter_finetune(cfg, corpus, out, adapter_path)
        assert len(opens) == 1
        opens.clear()
        evaluate(out, corpus, ["iaa", "zsl-iaa"], adapter_path=adapter_path,
                 prompt_cache=cache)
        assert len(opens) == 1
        opens.clear()
        zsl_score_lines(out, corpus, prompt_cache=cache)
        assert len(opens) == 1

    def test_checkpoint_hashed_only_for_bound_artifacts(self, trained, corpus, tmp_path,
                                                         monkeypatch):
        # the digest binds an adapter or a prompt cache to the checkpoint; a job
        # that loads neither never hashes it
        out, _, _, _ = trained
        adapter_path = str(tmp_path / "a.ckpt")
        adapter_finetune(TrainConfig(stage="adapt", steps=2, batch_size=5,
                                     learning_rate=5e-3, seed=1, model=TINY),
                         corpus, out, adapter_path)
        with open(out, "rb") as fh:
            blob = fh.read()
        hashed = []
        real_sha256 = hashlib.sha256

        def counting_sha256(data=b"", **kwargs):
            if data == blob:
                hashed.append(1)
            return real_sha256(data, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        evaluate(out, corpus, ["caption"], caption_max_len=3)
        evaluate(out, corpus, ["zsl-iaa", "zsl-style"])
        assert cli_dispatch(["caption", "--checkpoint", out, "--manifest", corpus,
                             "--out", str(tmp_path / "c.txt"), "--max-len", "3"]) == 0
        assert hashed == []
        evaluate(out, corpus, ["iaa"], adapter_path=adapter_path)
        assert len(hashed) == 1

    def test_caption_task_equals_per_image_and_uncached_decoding(self, trained, corpus):
        out, params, _, vocab = trained
        _, results = evaluate(out, corpus, ["caption"])
        images = [center_crop(read_image(record_image_path(r, corpus)), TINY.image_size)
                  for r in load_manifest(corpus)]
        fresh = [generate_caption(gen_tokens(img, params, TINY), params, TINY, vocab) for img in images]
        uncached = [uncached_greedy_caption(img, params, TINY, vocab, 16) for img in images]
        assert results["caption"]["captions"] == fresh == uncached

    @pytest.mark.parametrize("order", ["record", "reversed"])
    def test_drafted_captions_equal_stepwise_decoding(self, trained, corpus, order):
        _, params, _, vocab = trained
        records = load_manifest(corpus)
        records = records if order == "record" else records[::-1]
        drafted = caption_images(params, vocab, records, corpus, 16)
        images = [center_crop(read_image(record_image_path(r, corpus)), TINY.image_size)
                  for r in records]
        oracle = PrefixCache(params)
        assert drafted == [stepwise_caption(img, params, TINY, vocab, 16, oracle)
                           for img in images]
        assert drafted == [uncached_greedy_caption(img, params, TINY, vocab, 16)
                           for img in images]

    def test_zsl_score_lines_rejects_unknown_mode_before_loading(self, tmp_path, corpus):
        missing = str(tmp_path / "missing.ckpt")
        with pytest.raises(ValueError, match="unknown zero-shot mode 'bogus'"):
            zsl_score_lines(missing, corpus, mode="bogus")

    def test_caption_metrics_present(self, trained, corpus):
        out, _, _, _ = trained
        _, results = evaluate(out, corpus, ["caption"])
        for key in ("bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "cider"):
            assert key in results["caption"]

    def test_style_report_lists_present_classes(self, trained, corpus):
        out, _, _, _ = trained
        report, results = evaluate(out, corpus, ["zsl-style"])
        assert 0.0 <= results["zsl-style"]["map"] <= 1.0
        for name, ap_val in results["zsl-style"]["per_class"].items():
            assert f"ap {name}" in report
            assert 0.0 <= ap_val <= 1.0


    def _unit_embeddings(self, trained, corpus):
        _, params, _, vocab = trained
        records = load_manifest(corpus)
        v = embed_images(params, TINY, records, corpus)
        table = zsl.embed_bank(PromptBank.default(), params, TINY, vocab)
        return records, v / np.linalg.norm(v, axis=1, keepdims=True), table

    def test_batched_scores_match_scalar_oracle(self, trained, corpus):
        _, unit, table = self._unit_embeddings(trained, corpus)
        bank = PromptBank.default()
        assert_match_scalar_oracle(unit, zsl.pair_embeddings(bank, table),
                                   zsl.style_embeddings(bank, table))

    def test_single_mode_zsl_iaa_uses_first_pair(self, trained, corpus):
        out = trained[0]
        records, unit, table = self._unit_embeddings(trained, corpus)
        pair = zsl.pair_embeddings(PromptBank.default(), table)[0]
        scores = [zsl.zsl_iaa_single(u, pair) for u in unit]
        mos = [r.mos for r in records]
        report, results = evaluate(out, corpus, ["zsl-iaa"], mode="single")
        assert results["zsl-iaa"] == {"srcc": met.srcc(scores, mos),
                                      "plcc": met.plcc(scores, mos), "mode": "single"}
        assert "task zsl-iaa: mode=single " in report

    def test_single_mode_zsl_style_uses_single_prompts(self, trained, corpus):
        out = trained[0]
        records, unit, table = self._unit_embeddings(trained, corpus)
        bank = PromptBank.default()
        styles = zsl.style_embeddings(bank, table)
        per = [zsl.zsl_style_scores(u, styles, "single") for u in unit]
        expected = {}
        for j, name in enumerate(bank.style_names):
            positives = np.array([1 if (r.styles and j in r.styles) else 0
                                  for r in records])
            if positives.sum():
                expected[name] = met.average_precision(
                    np.array([p[name] for p in per]), positives)
        report, results = evaluate(out, corpus, ["zsl-style"], mode="single")
        assert results["zsl-style"]["per_class"] == expected
        assert results["zsl-style"]["map"] == float(np.mean(list(expected.values())))
        assert "task zsl-style: mode=single " in report

    @pytest.mark.parametrize("mode", ["single", "ensemble"])
    def test_zsl_score_lines_give_evaluate_srcc(self, trained, corpus, mode):
        out = trained[0]
        body = zsl_score_lines(out, corpus, task="iaa", mode=mode)
        rows = [line.split("\t") for line in body.strip().split("\n")]
        records = load_manifest(corpus)
        assert [rid for rid, _ in rows] == [r.id for r in records]
        scores = [float(s) for _, s in rows]
        _, results = evaluate(out, corpus, ["zsl-iaa"], mode=mode)
        assert met.srcc(scores, [r.mos for r in records]) == results["zsl-iaa"]["srcc"]


class TestPromptExport:
    def test_cache_matches_fresh_embeddings_bitwise(self, trained, tmp_path):
        out, params, _, vocab = trained
        cache = str(tmp_path / "prompts.cache")
        count = export_prompt_cache(out, cache)
        table = zsl.load_prompt_cache(cache, sha256_file(out))
        assert len(table) == count
        from critiq.prompts import PromptBank
        fresh = zsl.embed_bank(PromptBank.default(), params, TINY, vocab)
        assert set(fresh) == set(table)
        for k in fresh:
            assert fresh[k].tobytes() == table[k].tobytes()
        assert "good image" in table  # the rank-adapter anchor rides along

    def test_zsl_score_lines_format(self, trained, corpus):
        out, _, _, _ = trained
        body = zsl_score_lines(out, corpus, task="iaa")
        lines = body.strip().split("\n")
        assert len(lines) == 10
        for line in lines:
            rid, score = line.split("\t")
            assert 0.0 < float(score) < 1.0
        body = zsl_score_lines(out, corpus, task="style")
        assert all(len(line.split("\t")) == 15 for line in body.strip().split("\n"))

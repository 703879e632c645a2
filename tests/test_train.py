"""Training orchestration: determinism, resume equality, the freeze contract,
schedules, and the evaluation drivers."""

import json
import math
import os

import numpy as np
import pytest

from critiq import checkpoint as ckpt
from critiq import objectives as obj
from critiq import tokenizer as tok
from critiq import zsl
from critiq.config import TrainConfig
from critiq.data import Batch, load_manifest, save_manifest
from critiq.model import ModelConfig, ModelParams
from critiq.synth import SynthSpec, generate_synthetic_corpus
from critiq.train import (RunLog as RunLogBytes, adapter_finetune, evaluate,
                          export_prompt_cache, load_adapter, pretrain,
                          pretrain_step_loss, vocab_path_for, zsl_score_lines)
from critiq.util import sha256_file

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


def test_desk_default_step_graph_size():
    """One pretraining step at the desk defaults builds at most 301 graph nodes
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
    assert len(seen) <= 301


class TestResumeEquality:
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
        back = load_adapter(path)
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

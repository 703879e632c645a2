"""Two-stage training orchestration plus evaluation drivers.

Stage one optimizes every model parameter (temperature included) against the
weighted contrastive + caption objective. Stage two freezes the backbone,
caches the image embeddings and the text anchor once, and trains only the
adapter's residual projection with the pairwise rank hinge.

Determinism contract: (seed, config, manifest) fixes the batch stream, the
parameter trajectory, and therefore the run log, bit for bit. A checkpoint
written mid-run carries the optimizer moments, so resuming reproduces the
exact remainder of the original run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import metrics as met
from . import objectives as obj
from . import tokenizer as tok
from . import zsl
from .autodiff import Tensor, backward
from .config import TrainConfig
from .data import (AugmentationConfig, ManifestRecord, load_manifest, make_batches,
                   record_image_path, steps_per_epoch)
from .imageio import read_image
from .model import (ModelConfig, ModelParams, decode_multimodal, encode_image,
                    encode_text_batch, generate_caption, image_embedding_batch,
                    pool_image)
from .optim import AdamW, clip_global_norm, linear_decay_lr
from .prompts import PromptBank
from .util import sha256_file, write_atomic

ANCHOR_PROMPT = "good image"
TASKS = ("iaa", "zsl-iaa", "zsl-style", "caption")


@dataclass
class RunLog:
    records: list[dict] = field(default_factory=list)

    def add(self, **fields_) -> None:
        if self.records and "step" in fields_ and "step" in self.records[-1]:
            if fields_["step"] < self.records[-1]["step"]:
                raise ValueError("run log steps must not decrease")
        self.records.append(fields_)

    def losses(self) -> list[float]:
        return [r["loss"] for r in self.records if r.get("kind") == "step"]

    def to_jsonl(self) -> bytes:
        return "".join(json.dumps(r, sort_keys=True) + "\n"
                       for r in self.records).encode("utf-8")

    def save(self, path: str) -> None:
        write_atomic(path, self.to_jsonl())


def vocab_path_for(checkpoint_path: str) -> str:
    return checkpoint_path + ".vocab"


def center_crop(image: np.ndarray, size: int) -> np.ndarray:
    h, w = image.shape[:2]
    if h < size or w < size:
        raise ValueError(f"image {h}x{w} smaller than crop size {size}")
    dy, dx = (h - size) // 2, (w - size) // 2
    return np.ascontiguousarray(image[dy:dy + size, dx:dx + size])


# ---------------------------------------------------------------------------
# stage one: pretraining
# ---------------------------------------------------------------------------

def pretrain_step_loss(batch, params: ModelParams, cfg: ModelConfig,
                       weights: obj.LossWeights):
    """Forward pass for one batch; returns (total, contrastive, generative)."""
    v = encode_image(batch.images, params, cfg)
    pooled_con = pool_image(v, params, "con")
    n = pooled_con.shape[0]
    x = ad.l2_normalize(ad.reshape(pooled_con, (n, pooled_con.shape[2])))
    y = ad.l2_normalize(encode_text_batch(batch.con_tokens, params, cfg))
    loss_con = obj.contrastive_loss(x, y, params.tau())

    pooled_gen = pool_image(v, params, "gen")
    gen_in = batch.gen_tokens[:, :-1]
    targets = batch.gen_tokens[:, 1:]
    mask = targets != tok.PAD
    logits = decode_multimodal(gen_in, pooled_gen, params, cfg)
    loss_gen = obj.generative_loss(logits, targets, mask)
    return obj.pretraining_loss(loss_con, loss_gen, weights), loss_con, loss_gen


def pretrain(cfg: TrainConfig, manifest_path: str, out_path: str,
             resume_from: str | None = None, stop_after: int | None = None
             ) -> tuple[ModelParams, RunLog, tok.Vocabulary]:
    """Run (or continue) stage-one training and write a resumable checkpoint.

    `stop_after` ends the run early after that many total steps, as an
    interruption would; the saved checkpoint resumes the same trajectory."""
    if cfg.stage != "pretrain":
        raise ValueError(f"pretrain called with stage={cfg.stage!r}")
    records = load_manifest(manifest_path)
    if not records:
        raise ValueError(f"{manifest_path}: empty manifest")
    for rec in records:
        if not rec.comments:
            raise ValueError(f"record {rec.id!r} has no comments; pretraining needs "
                             "image-comment pairs")
    vocab = tok.Vocabulary.build([c for r in records for c in r.comments],
                                 cfg.model.vocab_size)

    if resume_from is not None:
        params, extra = ModelParams.load(resume_from, expected_config=cfg.model)
        opt = AdamW(params.tensors, weight_decay=cfg.weight_decay)
        opt.load_state(extra)
        start_step = opt.step_count
    else:
        params = ModelParams.initialize(cfg.model, cfg.seed)
        opt = AdamW(params.tensors, weight_decay=cfg.weight_decay)
        start_step = 0
    if start_step > cfg.steps:
        raise ValueError(f"resume checkpoint is already at step {start_step} "
                         f"> total steps {cfg.steps}")

    aug = AugmentationConfig(source_size=cfg.source_size,
                             crop_size=cfg.model.image_size,
                             enabled=cfg.augment)
    weights = obj.LossWeights(alpha=cfg.alpha, beta=cfg.beta)
    spe = steps_per_epoch(len(records), cfg.batch_size)
    log = RunLog()
    cached_epoch = -1
    batches: list = []
    end_step = cfg.steps if stop_after is None else min(cfg.steps, stop_after)
    for step in range(start_step, end_step):
        epoch, index = divmod(step, spe)
        if epoch != cached_epoch:
            batches = list(make_batches(records, cfg.batch_size, vocab, aug,
                                        cfg.seed, epoch, manifest_path,
                                        cfg.model.max_text_length,
                                        fixed_comment=cfg.fixed_comment))
            cached_epoch = epoch
        batch = batches[index]
        lr = linear_decay_lr(cfg.learning_rate, step, cfg.steps)

        params.zero_grads()
        loss, loss_con, loss_gen = pretrain_step_loss(batch, params, cfg.model, weights)
        if not np.isfinite(loss.data):
            raise RuntimeError(
                f"non-finite loss at step {step}: total={float(loss.data)} "
                f"contrastive={float(loss_con.data)} generative={float(loss_gen.data)}")
        backward(loss, leaves=params.tensors.values())
        norm = {}
        if cfg.grad_clip > 0:
            norm["grad_norm"] = clip_global_norm(params.tensors, cfg.grad_clip)
        opt.step(lr)
        params.clamp_log_tau()
        log.add(kind="step", step=step, loss=float(loss.data),
                loss_con=float(loss_con.data), loss_gen=float(loss_gen.data),
                tau=float(params.tau().data), lr=lr, **norm)
        done = step + 1
        if cfg.checkpoint_every > 0 and done % cfg.checkpoint_every == 0 and done < cfg.steps:
            params.save(out_path, extra=opt.state_tensors())
            vocab.save(vocab_path_for(out_path))
        if cfg.eval_every > 0 and done % cfg.eval_every == 0:
            snap = _zsl_snapshot(params, cfg.model, vocab, records, manifest_path)
            if snap is not None:
                log.add(kind="eval", step=step, **snap)
    params.save(out_path, extra=opt.state_tensors())
    vocab.save(vocab_path_for(out_path))
    return params, log, vocab


def _zsl_snapshot(params, model_cfg, vocab, records, manifest_path):
    labeled = [r for r in records if r.mos is not None]
    if len(labeled) < 2:
        return None
    v = embed_images(params, model_cfg, labeled, manifest_path)
    table = zsl.embed_bank(PromptBank.default(), params, model_cfg, vocab)
    pairs = zsl.pair_embeddings(PromptBank.default(), table)
    unit = v / np.linalg.norm(v, axis=1, keepdims=True)
    scores = [zsl.zsl_iaa_ensemble(u, pairs) for u in unit]
    mos = [r.mos for r in labeled]
    try:
        return {"zsl_srcc": met.srcc(scores, mos), "zsl_plcc": met.plcc(scores, mos)}
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# stage two: adapter finetuning on frozen embeddings
# ---------------------------------------------------------------------------

def embed_images(params: ModelParams, cfg: ModelConfig, records: list[ManifestRecord],
                 manifest_path: str, chunk: int = 64) -> np.ndarray:
    """Frozen, unnormalized contrastive image embeddings via center crops."""
    out = np.zeros((len(records), cfg.hidden_dim), dtype=np.float32)
    with ad.no_grad():
        for start in range(0, len(records), chunk):
            part = records[start:start + chunk]
            images = np.stack([
                center_crop(read_image(record_image_path(r, manifest_path)),
                            cfg.image_size)
                for r in part])
            out[start:start + len(part)] = image_embedding_batch(images, params, cfg).data
    return out


def compute_anchor(params: ModelParams, cfg: ModelConfig,
                   vocab: tok.Vocabulary) -> np.ndarray:
    return zsl.embed_prompt(ANCHOR_PROMPT, params, cfg, vocab)


def adapter_finetune(cfg: TrainConfig, manifest_path: str, backbone_path: str,
                     out_path: str) -> tuple[obj.AdapterState, RunLog, dict]:
    if cfg.stage != "adapt":
        raise ValueError(f"adapter_finetune called with stage={cfg.stage!r}")
    records = load_manifest(manifest_path)
    missing = [r.id for r in records if r.mos is None]
    if missing:
        raise ValueError(f"adapter finetuning needs mos labels; missing for "
                         f"{missing[:5]} (and {max(0, len(missing) - 5)} more)")
    params, _ = ModelParams.load(backbone_path)
    vocab = tok.Vocabulary.load(vocab_path_for(backbone_path))
    backbone_before = {n: t.data.tobytes() for n, t in params.items()}

    embeddings = embed_images(params, params.config, records, manifest_path)
    anchor = compute_anchor(params, params.config, vocab)
    adapter = obj.AdapterState.zero_init(
        anchor, margin=cfg.margin, use_residual=cfg.use_residual,
        use_text_anchor=cfg.use_text_anchor, anchor_init_seed=cfg.seed)
    trainable = adapter.trainable()
    opt = AdamW(trainable, weight_decay=cfg.weight_decay, no_decay=())
    labels = np.array([r.mos for r in records], dtype=np.float64)

    spe = steps_per_epoch(len(records), cfg.batch_size)
    log = RunLog()
    cached_epoch = -1
    order = None
    usable_in_epoch = 0
    usable_total = 0
    for step in range(cfg.steps):
        epoch, index = divmod(step, spe)
        if epoch != cached_epoch:
            if cached_epoch >= 0 and usable_in_epoch == 0:
                raise RuntimeError("adapter finetuning aborted: all-tied labels in "
                                   "every batch of an epoch")
            order = np.random.default_rng((cfg.seed, epoch)).permutation(len(records))
            cached_epoch = epoch
            usable_in_epoch = 0
        idx = order[index * cfg.batch_size:(index + 1) * cfg.batch_size]
        lr = linear_decay_lr(cfg.learning_rate, step, cfg.steps)
        batch_labels = labels[idx]
        if len(idx) < 2 or not (batch_labels[:, None] > batch_labels[None, :]).any():
            log.add(kind="step", step=step, loss=math.nan, lr=lr, skipped=True)
            continue
        usable_in_epoch += 1
        usable_total += 1
        for t in trainable.values():
            t.zero_grad()
        loss = obj.rank_adapter_loss(Tensor(embeddings[idx]), batch_labels, adapter)
        if not np.isfinite(loss.data):
            raise RuntimeError(f"non-finite adapter loss at step {step}")
        backward(loss, leaves=trainable.values())
        opt.step(lr)
        log.add(kind="step", step=step, loss=float(loss.data), lr=lr)
    if usable_total == 0:
        raise RuntimeError("adapter finetuning aborted: all-tied labels in every "
                           "batch")

    changed = [n for n, t in params.items() if t.data.tobytes() != backbone_before[n]]
    if changed:
        raise RuntimeError(f"freeze contract violated; backbone tensors changed: {changed}")
    tunable = sum(t.data.size for t in trainable.values())
    info = {
        "backbone_params": params.total_count(),
        "tunable_params": tunable,
        "tunable_fraction": tunable / params.total_count(),
        "updated_tensors": sorted(trainable),
    }
    save_adapter(adapter, out_path, backbone_path)
    return adapter, log, info


def save_adapter(adapter: obj.AdapterState, path: str, backbone_path: str | None = None) -> None:
    tensors: dict[str, np.ndarray] = {
        "adapter/residual": adapter.residual.data,
        "adapter/anchor": adapter.anchor,
        "meta/margin": np.array(float(adapter.margin)),
        "meta/use_residual": np.array(float(adapter.use_residual)),
        "meta/use_text_anchor": np.array(float(adapter.use_text_anchor)),
    }
    if adapter.learnable_anchor is not None:
        tensors["adapter/learnable_anchor"] = adapter.learnable_anchor.data
    if backbone_path is not None:
        tensors["meta/backbone_sha256"] = np.frombuffer(
            sha256_file(backbone_path), dtype=np.uint8).astype(np.float64)
    ckpt.save(tensors, path)


def load_adapter(path: str) -> obj.AdapterState:
    raw = ckpt.load(path)
    for key in ("adapter/residual", "adapter/anchor", "meta/margin",
                "meta/use_residual", "meta/use_text_anchor"):
        if key not in raw:
            raise ckpt.CheckpointError(f"{path}: missing tensor '{key}'")
    use_text_anchor = bool(raw["meta/use_text_anchor"])
    learnable = None
    if not use_text_anchor:
        if "adapter/learnable_anchor" not in raw:
            raise ckpt.CheckpointError(f"{path}: missing tensor 'adapter/learnable_anchor'")
        learnable = Tensor(raw["adapter/learnable_anchor"].astype(np.float32),
                           requires_grad=True)
    return obj.AdapterState(
        residual=Tensor(raw["adapter/residual"].astype(np.float32), requires_grad=True),
        anchor=raw["adapter/anchor"].astype(np.float32),
        margin=float(raw["meta/margin"]),
        use_residual=bool(raw["meta/use_residual"]),
        use_text_anchor=use_text_anchor,
        learnable_anchor=learnable)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def evaluate(backbone_path: str, manifest_path: str, tasks,
             adapter_path: str | None = None, mode: str = "ensemble",
             prompt_cache: str | None = None, caption_max_len: int = 16
             ) -> tuple[str, dict]:
    tasks = list(tasks)
    for t in tasks:
        if t not in TASKS:
            raise ValueError(f"unknown task {t!r}; expected a subset of {TASKS}")
    params, _ = ModelParams.load(backbone_path)
    cfg = params.config
    vocab = tok.Vocabulary.load(vocab_path_for(backbone_path))
    records = load_manifest(manifest_path)
    if not records:
        raise ValueError(f"{manifest_path}: empty manifest")
    results: dict = {}
    lines = ["evaluation report", f"manifest: {manifest_path}", f"n: {len(records)}"]

    needs_embeddings = any(t in tasks for t in ("iaa", "zsl-iaa", "zsl-style"))
    v_all = embed_images(params, cfg, records, manifest_path) if needs_embeddings else None
    table = None
    if "zsl-iaa" in tasks or "zsl-style" in tasks:
        bank = PromptBank.default()
        if prompt_cache is not None:
            table = zsl.load_prompt_cache(prompt_cache, sha256_file(backbone_path))
        else:
            table = zsl.embed_bank(bank, params, cfg, vocab)

    if "iaa" in tasks:
        if adapter_path is None:
            raise ValueError("task 'iaa' requires an adapter checkpoint")
        mos = _require_mos(records, "iaa")
        adapter = load_adapter(adapter_path)
        with ad.no_grad():
            scores = obj.score_images(Tensor(v_all), adapter).data.astype(np.float64)
        results["iaa"] = {"srcc": met.srcc(scores, mos), "plcc": met.plcc(scores, mos)}
        lines.append(f"task iaa: srcc={_fmt(results['iaa']['srcc'])} "
                     f"plcc={_fmt(results['iaa']['plcc'])}")

    if "zsl-iaa" in tasks:
        mos = _require_mos(records, "zsl-iaa")
        bank = PromptBank.default()
        pairs = zsl.pair_embeddings(bank, table)
        unit = v_all / np.linalg.norm(v_all, axis=1, keepdims=True)
        if mode == "ensemble":
            scores = [zsl.zsl_iaa_ensemble(u, pairs) for u in unit]
        else:
            scores = [zsl.zsl_iaa_single(u, pairs[0]) for u in unit]
        results["zsl-iaa"] = {"srcc": met.srcc(scores, mos),
                              "plcc": met.plcc(scores, mos), "mode": mode}
        lines.append(f"task zsl-iaa: mode={mode} srcc={_fmt(results['zsl-iaa']['srcc'])} "
                     f"plcc={_fmt(results['zsl-iaa']['plcc'])}")

    if "zsl-style" in tasks:
        bank = PromptBank.default()
        if not any(r.styles for r in records):
            raise ValueError("task 'zsl-style' requires style labels in the manifest")
        styles = zsl.style_embeddings(bank, table)
        unit = v_all / np.linalg.norm(v_all, axis=1, keepdims=True)
        names = bank.style_names
        score_mat = np.zeros((len(records), len(names)))
        for i, u in enumerate(unit):
            per = zsl.zsl_style_scores(u, styles, mode)
            score_mat[i] = [per[name] for name in names]
        per_class = {}
        for j, name in enumerate(names):
            positives = np.array([1 if (r.styles and j in r.styles) else 0
                                  for r in records])
            if positives.sum() == 0:
                continue
            per_class[name] = met.average_precision(score_mat[:, j], positives)
        results["zsl-style"] = {"map": float(np.mean(list(per_class.values()))),
                                "per_class": per_class, "mode": mode}
        lines.append(f"task zsl-style: mode={mode} "
                     f"map={_fmt(results['zsl-style']['map'])}")
        for name in names:
            if name in per_class:
                lines.append(f"  ap {name}: {_fmt(per_class[name])}")

    if "caption" in tasks:
        for r in records:
            if not r.comments:
                raise ValueError(f"task 'caption' requires reference comments; record "
                                 f"{r.id!r} has none")
        captions = []
        for r in records:
            image = center_crop(read_image(record_image_path(r, manifest_path)),
                                cfg.image_size)
            captions.append(generate_caption(image, params, cfg, vocab,
                                             max_len=caption_max_len))
        refs = [[" ".join(tok.split_words(c)) for c in r.comments] for r in records]
        bleu = {f"bleu{n}": float(np.mean([met.bleu_n(c, rs, n)
                                           for c, rs in zip(captions, refs)]))
                for n in (1, 2, 3, 4)}
        rouge = float(np.mean([met.rouge_l(c, rs) for c, rs in zip(captions, refs)]))
        cider = met.cider(list(zip(captions, refs)))
        results["caption"] = {**bleu, "rouge_l": rouge, "cider": cider,
                              "captions": captions}
        lines.append("task caption: " + " ".join(
            [f"{k}={_fmt(bleu[k])}" for k in ("bleu1", "bleu2", "bleu3", "bleu4")]
            + [f"rouge_l={_fmt(rouge)}", f"cider={_fmt(cider)}"]))

    return "\n".join(lines) + "\n", results


def _require_mos(records, task: str) -> np.ndarray:
    missing = [r.id for r in records if r.mos is None]
    if missing:
        raise ValueError(f"task {task!r} requires mos labels; missing for "
                         f"{missing[:5]}")
    return np.array([r.mos for r in records], dtype=np.float64)


def zsl_score_lines(backbone_path: str, manifest_path: str, task: str = "iaa",
                    mode: str = "ensemble", prompt_cache: str | None = None) -> str:
    """Line-oriented score records: 'id<TAB>score' or 'id<TAB>s1..s14'."""
    params, _ = ModelParams.load(backbone_path)
    cfg = params.config
    vocab = tok.Vocabulary.load(vocab_path_for(backbone_path))
    records = load_manifest(manifest_path)
    v_all = embed_images(params, cfg, records, manifest_path)
    unit = v_all / np.linalg.norm(v_all, axis=1, keepdims=True)
    bank = PromptBank.default()
    if prompt_cache is not None:
        table = zsl.load_prompt_cache(prompt_cache, sha256_file(backbone_path))
    else:
        table = zsl.embed_bank(bank, params, cfg, vocab)
    lines = []
    if task == "iaa":
        pairs = zsl.pair_embeddings(bank, table)
        for rec, u in zip(records, unit):
            s = (zsl.zsl_iaa_ensemble(u, pairs) if mode == "ensemble"
                 else zsl.zsl_iaa_single(u, pairs[0]))
            lines.append(f"{rec.id}\t{_fmt(s)}")
    elif task == "style":
        styles = zsl.style_embeddings(bank, table)
        for rec, u in zip(records, unit):
            per = zsl.zsl_style_scores(u, styles, mode)
            vals = "\t".join(_fmt(per[name]) for name in bank.style_names)
            lines.append(f"{rec.id}\t{vals}")
    else:
        raise ValueError(f"zsl task must be 'iaa' or 'style', got {task!r}")
    return "\n".join(lines) + "\n"


def export_prompt_cache(backbone_path: str, out_path: str) -> int:
    """Embed the whole default bank (anchor included) and cache it."""
    params, _ = ModelParams.load(backbone_path)
    vocab = tok.Vocabulary.load(vocab_path_for(backbone_path))
    table = zsl.embed_bank(PromptBank.default(), params, params.config, vocab)
    zsl.save_prompt_cache(table, sha256_file(backbone_path), out_path)
    return len(table)

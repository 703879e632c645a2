"""Span tracer that wraps critiq's public functions at their call sites.

A site is an attribute of a module or class through which callers reach a
function: `critiq.train.read_image` is the name `embed_images` and
`evaluate` decode through, `critiq.data.read_image` the one `make_batches`
uses. `Tracer.install` replaces each site with a wrapper that records a span
(name, start, end, parent span) around every call made through it, and
`uninstall` puts the originals back. Spans stay in memory until `write`.

A span's name is `<layer>.<function>`, where the layer is the critiq module
that owns the function. Work the tracer adds itself, such as counting graph
nodes or stat-ing a file, runs inside `trace.hook` spans so that it lands in
the overhead and not in any layer. Each span also carries its `cost`: the
time its wrapper spent outside the call, hooks included, read off the same
clock. The sum of these costs is the tracing overhead.

Inside `Tracer.sampled(rule)`, every call through the STEP site starts
pretraining step k, and `rule(k)` says whether the calls of that step are
traced. The STEP span itself is always recorded, so an untraced step shows as
the gap between two STEP spans: its wall time, free of tracing, measured
between traced steps of the same run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .stats import median, median_se

LAYERS = ("imageio", "data", "tokenizer", "model", "autodiff", "objectives", "optim",
          "checkpoint", "zsl", "metrics", "train")
HOOK = "trace.hook"
STEP = "optim.linear_decay_lr"     # `pretrain` calls it once, at the start of each step
ZSL_SCORES = ("zsl.zsl_iaa_single", "zsl.zsl_iaa_ensemble", "zsl.zsl_style_scores")


def _file_bytes(args, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _saved_bytes(args, out) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _graph_nodes(args, out) -> dict:
    """Nodes reachable from the loss through `_parents`, the loss included."""
    seen = {id(args[0])}
    stack = [args[0]]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return {"nodes": len(seen)}


def _prefix_positions(args, out) -> dict:
    return {"positions": int(np.asarray(args[0]).size)}


def _caption_tokens(args, out) -> dict:
    return {"tokens": len(out.split())}


# (owner, attribute, span name, hook run after the call)
SITES = (
    ("critiq.train", "pretrain", "train.pretrain", None),
    ("critiq.train", "pretrain_step_loss", "train.pretrain_step_loss", None),
    ("critiq.train", "adapter_finetune", "train.adapter_finetune", None),
    ("critiq.train", "evaluate", "train.evaluate", None),
    ("critiq.train", "embed_images", "train.embed_images", None),
    ("critiq.train", "make_batches", "data.make_batches", None),
    ("critiq.train", "load_manifest", "data.load_manifest", None),
    ("critiq.train", "read_image", "imageio.read_image", _file_bytes),
    ("critiq.train", "backward", "autodiff.backward", _graph_nodes),
    ("critiq.train", "clip_global_norm", "optim.clip_global_norm", None),
    ("critiq.train", "linear_decay_lr", STEP, None),
    ("critiq.train", "encode_image", "model.encode_image", None),
    ("critiq.train", "pool_image", "model.pool_image", None),
    ("critiq.train", "encode_text_batch", "model.encode_text_batch", None),
    ("critiq.train", "decode_multimodal", "model.decode_multimodal", None),
    ("critiq.train", "image_embedding_batch", "model.image_embedding_batch", None),
    ("critiq.train", "generate_caption", "model.generate_caption", _caption_tokens),
    ("critiq.data", "read_image", "imageio.read_image", _file_bytes),
    ("critiq.tokenizer", "encode", "tokenizer.encode", None),
    ("critiq.model", "encode_image", "model.encode_image", None),
    ("critiq.model", "pool_image", "model.pool_image", None),
    ("critiq.model", "decode_multimodal", "model.decode_multimodal", _prefix_positions),
    ("critiq.objectives", "contrastive_loss", "objectives.contrastive_loss", None),
    ("critiq.objectives", "generative_loss", "objectives.generative_loss", None),
    ("critiq.objectives", "pretraining_loss", "objectives.pretraining_loss", None),
    ("critiq.objectives", "rank_adapter_loss", "objectives.rank_adapter_loss", None),
    ("critiq.objectives", "score_images", "objectives.score_images", None),
    ("critiq.optim.AdamW", "step", "optim.adamw_step", None),
    ("critiq.checkpoint", "save", "checkpoint.save", _saved_bytes),
    ("critiq.checkpoint", "load", "checkpoint.load", None),
    ("critiq.zsl", "embed_bank", "zsl.embed_bank", None),
    ("critiq.zsl", "embed_prompt", "zsl.embed_prompt", None),
    ("critiq.zsl", "zsl_iaa_single", "zsl.zsl_iaa_single", None),
    ("critiq.zsl", "zsl_iaa_ensemble", "zsl.zsl_iaa_ensemble", None),
    ("critiq.zsl", "zsl_style_scores", "zsl.zsl_style_scores", None),
    ("critiq.metrics", "srcc", "metrics.srcc", None),
    ("critiq.metrics", "average_precision", "metrics.average_precision", None),
    ("critiq.metrics", "bleu_n", "metrics.bleu", None),
    ("critiq.metrics", "rouge_l", "metrics.rouge_l", None),
    ("critiq.metrics", "cider", "metrics.cider", None),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict | None = None
    cost: float = 0.0


def _resolve(owner: str):
    """'pkg.module' or 'pkg.module.Class' -> the module or class object."""
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._active = True
        self._rule = None
        self._step = 0

    def _open(self, name: str) -> int:
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1,
                               time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def sampled(self, rule):
        """Trace pretraining step k only where rule(k) holds; see the module doc."""
        self._rule, self._step = rule, 0
        try:
            yield
        finally:
            self._rule, self._active = None, True

    def wrap(self, fn, name: str, hook=None):
        """Record a span around each call of `fn`. A generator function is
        drained inside its span: `pretrain` materialises each epoch at once."""
        drain = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = None
            if name == STEP and self._rule is not None:
                step = bool(self._rule(self._step))
                self._step += 1
            elif not self._active:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if drain:
                    out = list(out)
            finally:
                self._close(idx)
            span = self.spans[idx]
            if hook is not None:
                h = self._open(HOOK)
                try:
                    span.attrs = hook(args, out)
                finally:
                    self._close(h)
            if step is not None:
                span.attrs = {"traced": step}
                self._active = step
            span.cost = time.perf_counter() - entered - (span.end - span.start)
            return out
        return traced

    def install(self, sites=SITES) -> None:
        for owner_name, attr, name, hook in sites:
            owner = _resolve(owner_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self) -> bool:
        """Restore every site; True when each holds its original again."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = all(owner.__dict__[attr] is original
                       for owner, attr, original in self._saved)
        self._saved.clear()
        return restored

    def write(self, path: str, pass_index: int) -> None:
        """Append this tracer's spans as JSON lines; `trace` is the root span."""
        roots = []
        for s in self.spans:
            roots.append(roots[s.parent] if s.parent >= 0 else len(roots))
        with open(path, "a", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"pass": pass_index, "id": i, "trace": roots[i],
                                     "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "cost": s.cost,
                                     **(s.attrs or {})}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def traced_windows(spans: list[Span], pre: int) -> tuple[list, list]:
    """Split the pretraining span `pre` into steps at its STEP spans: the
    traced steps as (start, end) pairs and the untraced ones as durations."""
    marks = [i for i in range(pre + 1, len(spans))
             if spans[i].name == STEP and spans[i].parent == pre]
    bounds = [spans[i].start for i in marks] + [spans[pre].end]
    traced, untraced = [], []
    for k, i in enumerate(marks):
        if (spans[i].attrs or {}).get("traced", True):
            traced.append((bounds[k], bounds[k + 1]))
        else:
            untraced.append(bounds[k + 1] - bounds[k])
    return traced, untraced


def step_balance(spans: list[Span]) -> dict[str, float]:
    """Set the traced steps of the one pretraining run in `spans` against its
    untraced steps, which ran in between, all in ms.

    A traced step's phases add up to its wall time less its hooks, so they
    should exceed an untraced step by no more than the tracer's cost in the
    step. The two sets of steps differ in their batches, so they are compared
    by their medians, with the standard error of the difference."""
    pre = next(i for i, s in enumerate(spans) if s.name == "train.pretrain")
    traced, untraced = traced_windows(spans, pre)
    starts = [s.start for s in spans]
    phases, costs = [], []
    for lo, hi in traced:
        inside = range(bisect.bisect_left(starts, lo), bisect.bisect_left(starts, hi))
        hooks = sum(spans[i].end - spans[i].start for i in inside if spans[i].name == HOOK)
        phases.append((hi - lo - hooks) * 1e3)
        costs.append(sum(spans[i].cost for i in inside) * 1e3)
    untraced_ms = [d * 1e3 for d in untraced]
    return {"phase_sum_ms": median(phases), "untraced_ms": median(untraced_ms),
            "cost_ms": median(costs),
            "se_ms": math.hypot(median_se(phases), median_se(untraced_ms)),
            "traced_steps": len(traced), "untraced_steps": len(untraced)}


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one traced pass: a pretraining run, sampled by
    `Tracer.sampled`, plus a score pass.

    `_ms` without `phase` is the mean per call; `train.phase.*` and the
    forward split are per traced pretraining step; `.calls` and byte counts
    are per pass, and count the calls of traced steps only; `layer.<name>.self_ms`
    is the layer's total self time in the pass."""
    own = self_times(spans)
    root = []
    for s in spans:
        root.append(root[s.parent] if s.parent >= 0 else s.name)
    parent_name = [spans[s.parent].name if s.parent >= 0 else "" for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def pick(name, under=None, parent=None):
        return [i for i in by_name.get(name, ()) if (under is None or root[i] == under)
                and (parent is None or parent_name[i] == parent)]

    def dur(ids):
        return sum(spans[i].end - spans[i].start for i in ids) * 1e3

    def mean_ms(ids):
        return dur(ids) / len(ids)

    pre = "train.pretrain"
    (pre_span,) = pick(pre)
    traced, untraced = traced_windows(spans, pre_span)
    steps = len(traced)
    epochs = pick("data.make_batches", under=pre)
    forward = "train.pretrain_step_loss"
    phases = {
        "data": dur(epochs + pick("data.load_manifest", under=pre)),
        "forward": dur(pick(forward, under=pre)),
        "backward": dur(pick("autodiff.backward", under=pre)),
        "clip": dur(pick("optim.clip_global_norm", under=pre)),
        "optimizer": dur(pick("optim.adamw_step", under=pre)),
        "checkpoint": dur(pick("checkpoint.save", under=pre)),
    }
    # the rest of the traced part of the run, less the hooks, is "other"
    phases["other"] = (dur([pre_span]) - sum(untraced) * 1e3 - sum(phases.values())
                       - dur(pick(HOOK, under=pre)))
    m: dict[str, tuple[float, str]] = {"train.steps": (steps + len(untraced), "count"),
                                       "train.steps_traced": (steps, "count")}
    for phase, total in phases.items():
        m[f"train.phase.{phase}_ms"] = (total / steps, "ms")
    m["train.phase.sum_ms"] = (sum(phases.values()) / steps, "ms")
    m["train.phase.data_ms_per_epoch"] = (dur(epochs) / len(epochs), "ms")
    balance = step_balance(spans)
    m["train.step_traced_phases_ms_p50"] = (balance["phase_sum_ms"], "ms")
    m["train.step_untraced_ms_p50"] = (balance["untraced_ms"], "ms")
    m["trace.overhead.step_ms"] = (balance["cost_ms"], "ms")
    for name in ("model.encode_image", "model.pool_image", "model.encode_text_batch",
                 "model.decode_multimodal"):
        m[f"{name}_ms"] = (dur(pick(name, under=pre, parent=forward)) / steps, "ms")
    losses = [i for name in ("objectives.contrastive_loss", "objectives.generative_loss",
                             "objectives.pretraining_loss")
              for i in pick(name, under=pre, parent=forward)]
    m["objectives.loss_ms"] = (dur(losses) / steps, "ms")
    backward = pick("autodiff.backward", under=pre)
    m["autodiff.nodes_per_step"] = (
        sum(spans[i].attrs["nodes"] for i in backward) / len(backward), "count")

    reads = pick("imageio.read_image")
    m["imageio.read_image.calls"] = (len(reads), "count")
    m["imageio.read_image_ms"] = (mean_ms(reads), "ms")
    m["imageio.bytes_read"] = (sum(spans[i].attrs["bytes"] for i in reads), "bytes")
    batches = pick("data.make_batches")
    m["data.make_batches_self_ms"] = (sum(own[i] for i in batches) * 1e3 / len(batches), "ms")
    m["tokenizer.encode_ms"] = (mean_ms(pick("tokenizer.encode")), "ms")

    saves, loads = pick("checkpoint.save"), pick("checkpoint.load")
    m["checkpoint.save_ms"] = (mean_ms(saves), "ms")
    m["checkpoint.bytes_written"] = (sum(spans[i].attrs["bytes"] for i in saves), "bytes")
    m["checkpoint.load_ms"] = (mean_ms(loads), "ms")
    m["checkpoint.load.calls"] = (len(loads), "count")
    embeds = pick("train.embed_images")
    m["train.embed_images_ms"] = (mean_ms(embeds), "ms")
    m["train.embed_images.calls"] = (len(embeds), "count")

    banks = pick("zsl.embed_bank")
    m["zsl.embed_bank_ms"] = (mean_ms(banks), "ms")
    m["zsl.embed_bank.calls"] = (len(banks), "count")
    m["zsl.embed_prompt.calls"] = (len(pick("zsl.embed_prompt")), "count")
    scores = [i for name in ZSL_SCORES for i in pick(name)
              if parent_name[i] not in ZSL_SCORES]
    m["zsl.score_ms"] = (mean_ms(scores), "ms")
    m["zsl.score.calls"] = (len(scores), "count")

    captions = pick("model.generate_caption")
    decodes = pick("model.decode_multimodal", parent="model.generate_caption")
    tokens = sum(spans[i].attrs["tokens"] for i in captions)
    m["model.generate_caption_ms"] = (mean_ms(captions), "ms")
    m["model.caption.images"] = (len(captions), "count")
    m["model.caption.tokens_per_image"] = (tokens / len(captions), "count")
    m["model.decode_multimodal.calls_per_caption"] = (len(decodes) / len(captions), "count")
    m["model.caption.positions_per_token"] = (
        sum(spans[i].attrs["positions"] for i in decodes) / len(decodes), "count")

    for name in ("srcc", "average_precision", "bleu", "rouge_l", "cider"):
        m[f"metrics.{name}_ms"] = (mean_ms(pick(f"metrics.{name}")), "ms")

    ada = "train.adapter_finetune"
    m["objectives.rank_adapter_loss_ms"] = (
        mean_ms(pick("objectives.rank_adapter_loss", under=ada)), "ms")
    m["autodiff.backward_ms"] = (mean_ms(pick("autodiff.backward", under=ada)), "ms")
    m["optim.adamw_ms"] = (mean_ms(pick("optim.adamw_step", under=ada)), "ms")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own[i] * 1e3
    for layer, total in layer_self.items():
        m[f"layer.{layer}.self_ms"] = (total, "ms")
    m["trace.hook_ms"] = (dur(pick(HOOK)), "ms")
    m["trace.overhead_ms"] = (sum(s.cost for s in spans) * 1e3, "ms")
    m["trace.spans"] = (len(spans), "count")
    return m

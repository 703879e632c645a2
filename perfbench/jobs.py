"""The benchmark's workloads: set-up, the timed jobs, and the output checks.

Every workload runs critiq's two user jobs on a 512-image corpus that
`critiq.synth` makes from the workload seed:

- pretraining: stage-1 `train.pretrain` at the desk-scale defaults (batch 16,
  32x32 crops from 40x40 sources, augment on) for TRAIN_EPOCHS epochs, with a
  checkpoint every CHECKPOINT_EVERY steps;
- a score pass: the 500-step `train.adapter_finetune`, then one
  `train.evaluate` call per task, all on the backbone pretraining wrote. The
  caption task makes one `generate_caption` call per image (max_len 16).

Each run reports every end-to-end metric, so each workload runs both jobs.
A run trains MODELS backbones, each from its own training seed (see
`train_seeds`): greedy captioning settles on one generic caption per
polarity, and which one ("good image", "bad lighting", ...) is a toss-up of
the training seed that moves CIDEr by about a fifth. The quality guards
(train.loss_last, score.iaa_srcc, score.caption_cider) are means over the
backbones, so that they follow the program and not that toss-up. The
workloads differ in the corpus format and in where pretraining happens:

- train-raw: raw rasters; round r pretrains backbone r % MODELS and scores
  it. One untimed pretraining repeats the first backbone's and must end on
  the same parameters and run log.
- train-png: the same pixels as 8-bit PNG, rounds as in train-raw; the
  untimed repeat reads the raw rasters instead.
- score: raw rasters; the first MODELS set-ups each pretrain one backbone
  (those runs give the train.* figures), and round r scores backbone
  r % MODELS. There is one more round than backbones, so the first is
  scored twice and its two passes must agree.

Set-up runs at least MIN_SETUPS times, in a burst of at least SETUP_BURST_S
at the start. Where a set-up takes less than BURST_MAX_SETUP_S, another burst
follows every pretraining run and score pass: the raw set-up is mostly file
creation, whose cost on a shared disk swings severalfold over seconds, so
its samples are spread over the whole run. setup_s is their median. Rounds
repeat until the run time has passed, and at least MODELS times, so that
each timing is a median over samples spread across the run. Jobs call
critiq through module attributes (`train.pretrain`, not a from-import), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from critiq import data, imageio, model, synth, tokenizer, train, zsl
from critiq.config import TrainConfig
from critiq.prompts import PromptBank

from . import pngenc
from .spans import STEP, Tracer, layer_metrics, step_balance
from .stats import median, percentile

CORPUS_SIZE = 512
BATCH = 16
TRAIN_EPOCHS = 4       # with fewer, caption length and CIDEr swing from seed to seed
CHECKPOINT_EVERY = 32
ADAPT_STEPS = 500
ADAPT_BATCH = 32
CAPTION_MAX_LEN = 16
MODELS = 2            # backbones per run; the quality guards are their mean
MIN_SETUPS = 2        # at least MODELS: on score every set-up trains one
SETUP_BURST_S = 0.75
BURST_MAX_SETUP_S = 2.0
BALANCE_SE = 3.0       # the phase check allows this many standard errors of noise
STEP_SITE = ("critiq.train", "linear_decay_lr", STEP, None)
CAPTION_SITE = ("critiq.train", "generate_caption", "model.generate_caption", None)

TASK_METRIC = {"iaa": "score.eval_iaa_s", "zsl-iaa": "score.eval_zsl_iaa_s",
               "zsl-style": "score.eval_zsl_style_s", "caption": "score.eval_caption_s"}

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.examples_per_s": "1/s",
    "train.step_ms_p50": "ms",
    "train.step_ms_p90": "ms",
    "train.loss_last": "nats",
    "score.adapt_s": "s",
    **{m: "s" for m in TASK_METRIC.values()},
    "score.caption_ms_p50": "ms",
    "score.caption_ms_p90": "ms",
    "score.iaa_srcc": "srcc",
    "score.caption_cider": "cider",
}


class SetupError(RuntimeError):
    """Set-up produced inputs the workload cannot run on."""


@dataclass
class Ops:
    """Operations attempted and failed; every check counts as one."""
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


@dataclass
class Corpus:
    manifest: str
    raw_manifest: str
    png_filter_rows: list[int] | None = None
    backbone: "PretrainRun | None" = None


@dataclass
class PretrainRun:
    backbone: str
    seconds: float
    step_ms: list[float]
    examples: int
    loss_last: float
    params_sha: str
    log_sha: str


@dataclass
class ScorePass:
    adapt_s: float
    eval_s: dict[str, float]
    caption_ms: list[float]
    iaa_srcc: float
    caption_cider: float
    adapter_steps: int
    adapter_usable_steps: int
    caption_words: float
    outputs_sha: str


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True


def params_sha(params) -> str:
    h = hashlib.sha256()
    for name in params.names():
        h.update(name.encode("utf-8"))
        h.update(params[name].data.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def transcode_to_png(manifest: str) -> tuple[str, list[int]]:
    """Write a PNG twin of every raster and a manifest naming them; abort the
    workload if `critiq.imageio.read_image` sees other pixels in any PNG."""
    records = data.load_manifest(manifest)
    rows = np.zeros(5, dtype=np.int64)
    twins = []
    for rec in records:
        raw_path = data.record_image_path(rec, manifest)
        with open(raw_path, "rb") as fh:
            pixels = imageio.decode_raw(fh.read(), raw_path)
        blob, types = pngenc.encode_png(pixels)
        rows += np.bincount(types, minlength=5)
        twin = dataclasses.replace(rec, image=os.path.splitext(rec.image)[0] + ".png")
        with open(data.record_image_path(twin, manifest), "wb") as fh:
            fh.write(blob)
        twins.append(twin)
    png_manifest = os.path.join(os.path.dirname(manifest), "manifest-png.jsonl")
    data.save_manifest(twins, png_manifest)
    differ = [rec.id for rec, twin in zip(records, twins)
              if not np.array_equal(imageio.read_image(data.record_image_path(rec, manifest)),
                                    imageio.read_image(data.record_image_path(twin, png_manifest)))]
    if differ:
        raise SetupError(f"{len(differ)} of {len(records)} PNGs decode to other pixels "
                         f"than their rasters, first {differ[:5]}")
    return png_manifest, rows.tolist()


def train_seeds(seed: int) -> list[int]:
    """The training seed of each backbone: the workload seed for the first,
    and for backbone i one drawn from `SeedSequence([seed, i])`."""
    return [seed] + [int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)
                     for i in range(1, MODELS)]


def setup(workload: str, seed: int, workdir: str, ops: Ops,
          train_seed: int | None = None) -> Corpus:
    """Make the corpus; for train-png transcode it, and for score (given a
    `train_seed`) pretrain the backbone the score passes use."""
    raw = synth.generate_synthetic_corpus(synth.SynthSpec(count=CORPUS_SIZE), workdir, seed)
    corpus = Corpus(manifest=raw, raw_manifest=raw)
    if workload == "train-png":
        corpus.manifest, corpus.png_filter_rows = transcode_to_png(raw)
    elif workload == "score" and train_seed is not None:
        corpus.backbone = pretrain(raw, os.path.join(workdir, "backbone.ckpt"), train_seed, ops)
    return corpus


# ---------------------------------------------------------------------------
# the two jobs
# ---------------------------------------------------------------------------

def pretrain(manifest: str, out_path: str, seed: int, ops: Ops) -> PretrainRun:
    steps = TRAIN_EPOCHS * data.steps_per_epoch(CORPUS_SIZE, BATCH)
    cfg = TrainConfig(stage="pretrain", steps=steps, batch_size=BATCH, seed=seed,
                      checkpoint_every=CHECKPOINT_EVERY)
    calls = Tracer()
    calls.install([STEP_SITE])
    try:
        start = time.perf_counter()
        params, log, _ = train.pretrain(cfg, manifest, out_path)
        end = time.perf_counter()
    finally:
        calls.uninstall()
    # step k runs from its learning-rate call to the next one, so an epoch's
    # batch decode lands in the step before it and the final save in the last
    marks = [s.start for s in calls.spans] + [end]
    losses = log.losses()
    ops.check(len(marks) == steps + 1 and all(math.isfinite(x) for x in losses),
              f"pretrain {manifest}: {len(marks) - 1} steps timed, losses finite: "
              f"{all(math.isfinite(x) for x in losses)}")
    last_epoch = losses[-data.steps_per_epoch(CORPUS_SIZE, BATCH):]
    return PretrainRun(
        backbone=out_path, seconds=end - start,
        step_ms=[(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        examples=steps * BATCH, loss_last=math.fsum(last_epoch) / len(last_epoch),
        params_sha=params_sha(params),
        log_sha=hashlib.sha256(log.to_jsonl()).hexdigest())


def score_pass(backbone: str, manifest: str, workdir: str, seed: int, ops: Ops) -> ScorePass:
    acfg = TrainConfig(stage="adapt", steps=ADAPT_STEPS, batch_size=ADAPT_BATCH,
                       learning_rate=1e-2, weight_decay=0.01, margin=0.1, seed=seed)
    adapter_path = os.path.join(workdir, "adapter.ckpt")
    start = time.perf_counter()
    _, log, _ = train.adapter_finetune(acfg, manifest, backbone, adapter_path)
    adapt_s = time.perf_counter() - start
    used = [r["loss"] for r in log.records if not r.get("skipped")]
    ops.check(all(math.isfinite(x) for x in used), "adapter: non-finite loss")
    outputs = hashlib.sha256()
    with open(adapter_path, "rb") as fh:
        outputs.update(fh.read())

    eval_s, results = {}, {}
    captions = Tracer()
    for task in TASK_METRIC:
        captions.install([CAPTION_SITE])
        try:
            start = time.perf_counter()
            report, res = train.evaluate(backbone, manifest, [task],
                                         adapter_path=adapter_path if task == "iaa" else None,
                                         caption_max_len=CAPTION_MAX_LEN)
            eval_s[task] = time.perf_counter() - start
        finally:
            captions.uninstall()
        outputs.update(report.encode("utf-8"))
        results.update(res)
        ops.check(_finite_numbers(res[task]), f"evaluate {task}: non-finite score")

    vocab = tokenizer.Vocabulary.load(train.vocab_path_for(backbone))
    words = [caption.split() for caption in results["caption"]["captions"]]
    for caption in words:
        ops.check(all(w in vocab for w in caption),
                  f"caption {' '.join(caption)!r} has a word outside the vocabulary")
    return ScorePass(adapt_s=adapt_s, eval_s=eval_s,
                     caption_ms=[(s.end - s.start) * 1e3 for s in captions.spans],
                     iaa_srcc=results["iaa"]["srcc"],
                     caption_cider=results["caption"]["cider"],
                     adapter_steps=len(log.records), adapter_usable_steps=len(used),
                     caption_words=sum(map(len, words)) / len(words),
                     outputs_sha=outputs.hexdigest())


def check_zero_shot(backbone: str, manifest: str, ops: Ops) -> None:
    """Zero-shot quality scores lie in (0, 1), and swapping the good and bad
    prompts of one pair gives the exact complement for every image."""
    params, _ = model.ModelParams.load(backbone)
    vocab = tokenizer.Vocabulary.load(train.vocab_path_for(backbone))
    records = data.load_manifest(manifest)
    v = train.embed_images(params, params.config, records, manifest)
    unit = v / np.linalg.norm(v, axis=1, keepdims=True)
    bank = PromptBank.default()
    pairs = zsl.pair_embeddings(bank, zsl.embed_bank(bank, params, params.config, vocab))
    scores = [zsl.zsl_iaa_ensemble(u, pairs) for u in unit]
    ops.check(all(0.0 < s < 1.0 for s in scores),
              f"zero-shot scores outside (0, 1): {min(scores)}..{max(scores)}")
    p = pairs[0]
    swapped = zsl.PromptPairEmbedding(p.bad, p.good, p.bad_text, p.good_text)
    ops.check(all(zsl.zsl_iaa_single(u, p) + zsl.zsl_iaa_single(u, swapped) == 1.0
                  for u in unit), "swapping a prompt pair does not give the complement")


def check_same_training(runs: list[PretrainRun], reference: PretrainRun, what: str,
                        ops: Ops) -> None:
    for run in runs:
        ops.check(run.params_sha == reference.params_sha and run.log_sha == reference.log_sha,
                  f"{what}: parameters or run log differ from the reference")


def check_same_scores(passes: list[ScorePass], reference: ScorePass, what: str,
                      ops: Ops) -> None:
    for p in passes:
        ops.check(p.outputs_sha == reference.outputs_sha,
                  f"{what}: adapter or evaluate reports differ from the reference pass")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setup_s: list[float], runs: list[PretrainRun], passes: list[ScorePass],
               models: list[tuple[PretrainRun, ScorePass]]) -> dict[str, float]:
    """`models` holds one pretraining and one score pass of each backbone."""
    steps = [ms for r in runs for ms in r.step_ms]
    captions = [ms for p in passes for ms in p.caption_ms]
    return {
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train.examples_per_s": sum(r.examples for r in runs) / sum(r.seconds for r in runs),
        "train.step_ms_p50": percentile(steps, 50),
        "train.step_ms_p90": percentile(steps, 90),
        "train.loss_last": fmean([r.loss_last for r, _ in models]),
        "score.adapt_s": median([p.adapt_s for p in passes]),
        **{m: median([p.eval_s[t] for p in passes]) for t, m in TASK_METRIC.items()},
        "score.caption_ms_p50": percentile(captions, 50),
        "score.caption_ms_p90": percentile(captions, 90),
        "score.iaa_srcc": fmean([p.iaa_srcc for _, p in models]),
        "score.caption_cider": fmean([p.caption_cider for _, p in models]),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    ops: Ops
    info: dict


def measure(workload: str, seed: int, seconds: float, workdir: str) -> Result:
    """Untraced run: every end-to-end metric."""
    ops = Ops()
    seeds = train_seeds(seed)
    setup_s: list[float] = []
    runs: list[PretrainRun] = []

    def timed_setup(here: str, train_seed: int) -> Corpus:
        start = time.perf_counter()
        corpus = setup(workload, seed, here, ops, train_seed)
        setup_s.append(time.perf_counter() - start)
        if corpus.backbone is not None:
            runs.append(corpus.backbone)
        return corpus

    def more_setups(count: int, begun: float) -> None:
        """Time `count` set-ups that are thrown away, and more until
        SETUP_BURST_S has passed since `begun`."""
        while count > 0 or time.perf_counter() - begun < SETUP_BURST_S:
            here = os.path.join(workdir, "probe")
            timed_setup(here, seeds[0])
            shutil.rmtree(here)
            count -= 1

    begun = time.perf_counter()
    homes = [os.path.join(workdir, f"model{i}") for i in range(MODELS)]
    corpora = [timed_setup(here, s) for here, s in zip(homes, seeds)]
    more_setups(MIN_SETUPS - MODELS, begun)
    trained: list[list[PretrainRun]] = [[] for _ in range(MODELS)]
    scored: list[list[ScorePass]] = [[] for _ in range(MODELS)]
    min_rounds = MODELS + 1 if workload == "score" else MODELS
    bursts = median(setup_s) < BURST_MAX_SETUP_S
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        i = rounds % MODELS
        corpus, here = corpora[i], homes[i]
        if workload == "score":
            backbone = corpus.backbone.backbone
        else:
            runs.append(pretrain(corpus.manifest, os.path.join(here, "model.ckpt"),
                                 seeds[i], ops))
            trained[i].append(runs[-1])
            backbone = runs[-1].backbone
            if bursts:
                more_setups(0, time.perf_counter())
        scored[i].append(score_pass(backbone, corpus.manifest, here, seed, ops))
        if bursts:
            more_setups(0, time.perf_counter())
        rounds += 1
    if workload != "score":
        # on train-png the repeat reads the raw rasters of the same pixels
        repeat = pretrain(corpora[0].raw_manifest, os.path.join(homes[0], "repeat.ckpt"),
                          seeds[0], ops)
        check_same_training(trained[0], repeat, f"{workload} repeat", ops)
        for i in range(1, MODELS):
            check_same_training(trained[i], trained[i][0], f"{workload} repeat", ops)
        models = [(trained[i][0], scored[i][0]) for i in range(MODELS)]
    else:
        models = [(corpora[i].backbone, scored[i][0]) for i in range(MODELS)]
    for i in range(MODELS):
        check_same_scores(scored[i], scored[i][0], f"{workload} score pass", ops)
    check_zero_shot(models[0][0].backbone, corpora[0].manifest, ops)
    passes = [p for ps in scored for p in ps]
    values = end_to_end(setup_s, runs, passes, models)
    return Result(metrics={k: (values[k], END_TO_END[k]) for k in END_TO_END}, ops=ops,
                  info={"setup_s": setup_s, "rounds": rounds, "train_seeds": seeds,
                        "pretrain_runs": len(runs),
                        "pretrain_steps": sum(len(r.step_ms) for r in runs),
                        "captions_timed": sum(len(p.caption_ms) for p in passes),
                        "caption_cider_per_model": [p.caption_cider for _, p in models],
                        "caption_words_per_image": [p.caption_words for _, p in models],
                        "png_filter_rows": corpora[0].png_filter_rows})


def traced_step(k: int) -> bool:
    """Trace every other pretraining step, the parity flipping each epoch, so
    that traced and untraced steps both take in epoch-boundary decodes and
    checkpoint saves."""
    return (k + k // data.steps_per_epoch(CORPUS_SIZE, BATCH)) % 2 == 0


def trace(workload: str, seed: int, seconds: float, workdir: str, spans_path: str) -> Result:
    """Traced run: per-layer metrics and the tracing overhead.

    A traced pass is a pretraining run, with every other step traced (see
    `traced_step`), and a score pass on its backbone. Passes repeat until the
    run time has passed, at least once; each figure is the median over passes.
    The train workloads first pretrain untraced, and every traced pass must
    end on the same parameters and run log; every traced score pass must
    write the same adapter and reports as one untraced score pass at the end.
    On score, the first traced pretraining is the set-up that builds the
    backbone."""
    ops = Ops()
    here = os.path.join(workdir, "setup")
    corpus = setup(workload, seed, here, ops)
    reference = None
    if workload != "score":
        reference = pretrain(corpus.manifest, os.path.join(here, "plain.ckpt"), seed, ops)
    if os.path.exists(spans_path):
        os.unlink(spans_path)
    layer, balance, traced_passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not layer or time.perf_counter() < deadline:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.sampled(traced_step):
                run = pretrain(corpus.manifest, os.path.join(here, "traced.ckpt"), seed, ops)
            traced_passes.append(score_pass(run.backbone, corpus.manifest, here, seed, ops))
        finally:
            ops.check(tracer.uninstall(), "a traced site was not restored")
        if reference is not None:
            check_same_training([run], reference, "traced pretraining", ops)
        tracer.write(spans_path, len(layer))
        found = layer_metrics(tracer.spans)
        found["adapter.steps"] = (traced_passes[-1].adapter_steps, "count")
        found["adapter.usable_step_share"] = (
            traced_passes[-1].adapter_usable_steps / traced_passes[-1].adapter_steps, "ratio")
        layer.append(found)
        # a traced step's phases add up to an untraced step's time, within
        # the tracer's own cost and the sampling error of the two medians
        b = step_balance(tracer.spans)
        b["within"] = (abs(b["phase_sum_ms"] - b["untraced_ms"])
                       <= b["cost_ms"] + BALANCE_SE * b["se_ms"])
        balance.append(b)
        ops.check(b["within"], f"traced step phases {b['phase_sum_ms']:.3f} ms differ from "
                  f"the untraced step {b['untraced_ms']:.3f} ms by more than the tracing "
                  f"cost {b['cost_ms']:.3f} ms and {BALANCE_SE:g} standard errors "
                  f"({b['se_ms']:.3f} ms)")
    plain_pass = score_pass(run.backbone, corpus.manifest, here, seed, ops)
    check_same_scores(traced_passes, plain_pass, "traced score pass", ops)
    check_zero_shot(run.backbone, corpus.manifest, ops)
    metrics = {k: (median([found[k][0] for found in layer]), unit)
               for k, (_, unit) in layer[0].items()}
    return Result(metrics=metrics, ops=ops,
                  info={"passes": len(layer), "step_balance": balance,
                        "png_filter_rows": corpus.png_filter_rows})

"""The benchmark's span tracer still finds every call site it wraps.

`perfbench.spans.SITES` names each site as a module (or class) attribute, and
the benchmark's caption and zero-shot timings come from calls made through
those names. This installs the tracer over every site, runs a tiny evaluate
for `caption`, `zsl-iaa` and `zsl-style`, and checks that the spans show up.
Captions encode each chunk of images once, as `embed_images` does.
Zero-shot scoring makes one scorer call per task over all images, so the
benchmark's zero-shot span list is never empty. A traced tiny pretraining
checks the same for the phases of each pretraining step."""

import math

import pytest

from critiq import train
from critiq.config import TrainConfig
from critiq.data import load_manifest
from critiq.model import ModelConfig
from critiq.synth import SynthSpec, generate_synthetic_corpus
from perfbench.spans import SITES, Tracer, traced_windows

TINY = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                   encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                   mlp_dim=32, generative_pool_queries=2, vocab_size=64,
                   max_text_length=16)


@pytest.fixture(scope="module")
def backbone(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    manifest = generate_synthetic_corpus(SynthSpec(count=6, comments_min=1,
                                                   comments_max=2), str(root), 3)
    out = str(root / "model.ckpt")
    train.pretrain(TrainConfig(stage="pretrain", steps=2, batch_size=3,
                               learning_rate=1e-3, seed=1, model=TINY), manifest, out)
    return out, manifest


def test_every_site_traced_through_evaluate(backbone, monkeypatch):
    out, manifest = backbone
    n = len(load_manifest(manifest))
    monkeypatch.setattr(train, "EMBED_CHUNK", 4)      # a full chunk and a partial one
    chunks = math.ceil(n / train.EMBED_CHUNK)
    assert chunks == 2
    tracer = Tracer()
    tracer.install(SITES)
    try:
        train.evaluate(out, manifest, ["caption", "zsl-iaa", "zsl-style"],
                       caption_max_len=3)
    finally:
        assert tracer.uninstall()
    names = [s.name for s in tracer.spans]
    parents = {i: tracer.spans[s.parent].name for i, s in enumerate(tracer.spans)
               if s.parent >= 0}
    captions = [i for i, name in enumerate(names) if name == "model.generate_caption"]
    assert len(captions) == n
    assert all(parents[i] == "train.evaluate" for i in captions)
    assert names.count("train.embed_images") == 1
    assert names.count("zsl.embed_bank") == 1
    assert names.count("zsl.zsl_iaa_ensemble") == 1
    assert names.count("zsl.zsl_style_scores") == 1
    assert names.count("zsl.zsl_iaa_single") == 0
    assert names.count("imageio.read_image") == 2 * n
    # captions encode each chunk of crops once, outside the per-image decode;
    # embed_images encodes the same chunks for the zero-shot tasks
    encodes = [i for i, name in enumerate(names) if name == "model.encode_image"]
    assert len(encodes) == 2 * chunks
    assert sum(parents[i] == "train.evaluate" for i in encodes) == chunks
    assert all(parents[i] != "model.generate_caption" for i in encodes)
    # each decode call feeds the newest token and maybe a draft after it, and
    # takes at least one token or the end of the caption
    decodes = [i for i, s in enumerate(tracer.spans) if s.name == "model.decode_multimodal"
               and parents[i] == "model.generate_caption"]
    assert len(decodes) >= n
    assert all(tracer.spans[i].attrs["positions"] >= 1 for i in decodes)
    for c in captions:
        calls = sum(tracer.spans[i].parent == c for i in decodes)
        assert 1 <= calls <= tracer.spans[c].attrs["tokens"] + 1


def test_each_pretraining_step_yields_one_span_per_phase(tmp_path):
    """The benchmark's forward, backward, clip and optimizer phases each read
    one span per step of a traced `train.pretrain`, so none goes empty."""
    manifest = generate_synthetic_corpus(SynthSpec(count=6, comments_min=1,
                                                   comments_max=2), str(tmp_path), 4)
    steps = 3
    tracer = Tracer()
    tracer.install(SITES)
    try:
        train.pretrain(TrainConfig(stage="pretrain", steps=steps, batch_size=3,
                                   learning_rate=1e-3, seed=2, model=TINY),
                       manifest, str(tmp_path / "model.ckpt"))
    finally:
        assert tracer.uninstall()
    spans = tracer.spans
    (pre,) = [i for i, s in enumerate(spans) if s.name == "train.pretrain"]
    windows, untraced = traced_windows(spans, pre)
    assert len(windows) == steps and not untraced
    phases = ("train.pretrain_step_loss", "autodiff.backward", "optim.clip_global_norm",
              "optim.adamw_step")
    for lo, hi in windows:
        inside = [s.name for s in spans if lo <= s.start < hi and s.parent == pre]
        assert [inside.count(name) for name in phases] == [1] * len(phases), inside

"""Command-line surface: exit codes, smoke paths, and output files."""

import dataclasses
import json
import os
import pathlib

import pytest

from critiq import imageio, zsl
from critiq.cli import cli_dispatch
from critiq.config import TrainConfig
from critiq.model import ModelConfig, ModelParams
from critiq.data import load_manifest, record_image_path, save_manifest
from critiq.tokenizer import Vocabulary
from critiq.train import evaluate, vocab_path_for
from oracles import sha256_file
from perfbench import pngenc

TINY = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                   encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                   mlp_dim=32, generative_pool_queries=2, vocab_size=64,
                   max_text_length=16)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    assert cli_dispatch(["synth", "--out", corpus, "--seed", "7", "--count", "8",
                         "--comments-min", "1", "--comments-max", "2"]) == 0
    cfg_path = str(root / "pretrain.json")
    TrainConfig(stage="pretrain", steps=4, batch_size=4, learning_rate=1e-3,
                seed=1, model=TINY).save(cfg_path)
    ckpt_path = str(root / "model.ckpt")
    manifest = os.path.join(corpus, "manifest.jsonl")
    assert cli_dispatch(["pretrain", "--config", cfg_path, "--manifest", manifest,
                         "--out", ckpt_path, "--log", str(root / "run.jsonl")]) == 0
    return root, manifest, ckpt_path


def test_synth_then_pretrain_smoke(workspace):
    root, manifest, ckpt_path = workspace
    assert os.path.exists(ckpt_path)
    assert os.path.exists(vocab_path_for(ckpt_path))
    log_lines = (root / "run.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 4
    assert json.loads(log_lines[0])["step"] == 0


def test_missing_required_flag_exits_one(capsys):
    assert cli_dispatch(["pretrain", "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert "manifest" in err and "usage" in err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert cli_dispatch(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_one(capsys):
    assert cli_dispatch(["synth", "--out", "x", "--bogus", "1"]) == 1


def test_runtime_failure_exits_two(workspace, capsys):
    root, manifest, ckpt_path = workspace
    assert cli_dispatch(["eval", "--checkpoint", str(root / "missing.ckpt"),
                         "--manifest", manifest, "--out", str(root / "r.txt"),
                         "--task", "zsl-iaa"]) == 2
    assert "error" in capsys.readouterr().err


def test_adapt_then_eval(workspace):
    root, manifest, ckpt_path = workspace
    adapt_cfg = str(root / "adapt.json")
    TrainConfig(stage="adapt", steps=4, batch_size=4, learning_rate=5e-3,
                seed=2, model=TINY).save(adapt_cfg)
    adapter_path = str(root / "adapter.ckpt")
    assert cli_dispatch(["adapt", "--config", adapt_cfg, "--manifest", manifest,
                         "--checkpoint", ckpt_path, "--out", adapter_path]) == 0
    report_path = str(root / "report.txt")
    assert cli_dispatch(["eval", "--checkpoint", ckpt_path, "--manifest", manifest,
                         "--task", "iaa,zsl-iaa", "--adapter", adapter_path,
                         "--out", report_path]) == 0
    report = pathlib.Path(report_path).read_text()
    assert "task iaa" in report and "task zsl-iaa" in report


def test_eval_on_a_truncated_png_exits_two_naming_it(workspace, tmp_path, capsys):
    root, manifest, ckpt_path = workspace
    records = load_manifest(manifest)
    with open(record_image_path(records[2], manifest), "rb") as fh:
        blob = pngenc.encode_png(imageio.decode_raw(fh.read()))[0]
    (tmp_path / "cut.png").write_bytes(blob[:len(blob) // 2])
    records = [dataclasses.replace(r, image=record_image_path(r, manifest)) for r in records]
    records[2] = dataclasses.replace(records[2], image="cut.png")
    damaged = str(tmp_path / "manifest.jsonl")
    save_manifest(records, damaged)
    assert cli_dispatch(["eval", "--checkpoint", ckpt_path, "--manifest", damaged,
                         "--out", str(tmp_path / "r.txt"), "--task", "zsl-iaa"]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "cut.png") in err and "runs past the end of the file" in err


def test_stage_mismatch_exits_two(workspace):
    root, manifest, ckpt_path = workspace
    cfg = str(root / "pretrain.json")
    assert cli_dispatch(["adapt", "--config", cfg, "--manifest", manifest,
                         "--checkpoint", ckpt_path,
                         "--out", str(root / "x.ckpt")]) == 2


def test_zsl_scores_output(workspace):
    root, manifest, ckpt_path = workspace
    out = str(root / "scores.txt")
    assert cli_dispatch(["zsl", "--checkpoint", ckpt_path, "--manifest", manifest,
                         "--out", out]) == 0
    lines = pathlib.Path(out).read_text().strip().split("\n")
    assert len(lines) == 8
    rid, score = lines[0].split("\t")
    assert 0.0 < float(score) < 1.0


def test_caption_output(workspace):
    root, manifest, ckpt_path = workspace
    out = str(root / "captions.txt")
    assert cli_dispatch(["caption", "--checkpoint", ckpt_path, "--manifest",
                         manifest, "--out", out, "--max-len", "4"]) == 0
    lines = pathlib.Path(out).read_text().strip().split("\n")
    assert len(lines) == 8 and all("\t" in line for line in lines)


def test_caption_lines_match_evaluate(workspace):
    root, manifest, ckpt_path = workspace
    out = str(root / "captions16.txt")
    assert cli_dispatch(["caption", "--checkpoint", ckpt_path, "--manifest",
                         manifest, "--out", out]) == 0
    rows = [line.split("\t") for line in pathlib.Path(out).read_text().split("\n")[:-1]]
    _, results = evaluate(ckpt_path, manifest, ["caption"])
    assert [rid for rid, _ in rows] == [r.id for r in load_manifest(manifest)]
    assert [caption for _, caption in rows] == results["caption"]["captions"]


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_caption_max_len_below_one_exits_two(workspace, capsys, max_len):
    root, manifest, ckpt_path = workspace
    out = root / f"captions{max_len}.txt"
    assert cli_dispatch(["caption", "--checkpoint", ckpt_path, "--manifest", manifest,
                         "--out", str(out), "--max-len", max_len]) == 2
    assert f"max_len must be at least 1, got {max_len}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["zsl", "caption"])
def test_empty_manifest_rejected(workspace, capsys, command):
    root, _, ckpt_path = workspace
    empty = root / "empty.jsonl"
    empty.write_text("")
    out = root / f"{command}-empty.txt"
    assert cli_dispatch([command, "--checkpoint", ckpt_path, "--manifest", str(empty),
                         "--out", str(out)]) == 2
    assert f"{empty}: empty manifest" in capsys.readouterr().err
    assert not out.exists()


def test_adapt_on_empty_manifest_exits_two(workspace, capsys):
    root, _, ckpt_path = workspace
    empty = root / "empty.jsonl"
    empty.write_text("")
    adapt_cfg = str(root / "adapt-empty.json")
    TrainConfig(stage="adapt", steps=4, batch_size=4, learning_rate=5e-3,
                seed=2, model=TINY).save(adapt_cfg)
    out = root / "adapter-empty.ckpt"
    assert cli_dispatch(["adapt", "--config", adapt_cfg, "--manifest", str(empty),
                         "--checkpoint", ckpt_path, "--out", str(out)]) == 2
    assert f"{empty}: empty manifest" in capsys.readouterr().err
    assert not out.exists()


def test_export_prompts_round_trip(workspace):
    root, manifest, ckpt_path = workspace
    cache = str(root / "prompts.cache")
    assert cli_dispatch(["export-prompts", "--checkpoint", ckpt_path,
                         "--out", cache]) == 0
    params, _ = ModelParams.load(ckpt_path)
    vocab = Vocabulary.load(vocab_path_for(ckpt_path))
    table = zsl.load_prompt_cache(cache, sha256_file(ckpt_path))
    from critiq.prompts import PromptBank
    fresh = zsl.embed_bank(PromptBank.default(), params, TINY, vocab)
    assert set(table) == set(fresh)
    for name in fresh:
        assert table[name].tobytes() == fresh[name].tobytes()


def test_eval_with_prompt_cache_matches_fresh(workspace):
    root, manifest, ckpt_path = workspace
    cache = str(root / "prompts.cache")
    r1 = str(root / "r1.txt")
    r2 = str(root / "r2.txt")
    assert cli_dispatch(["eval", "--checkpoint", ckpt_path, "--manifest", manifest,
                         "--task", "zsl-iaa", "--out", r1]) == 0
    assert cli_dispatch(["eval", "--checkpoint", ckpt_path, "--manifest", manifest,
                         "--task", "zsl-iaa", "--prompt-cache", cache,
                         "--out", r2]) == 0
    assert pathlib.Path(r1).read_text() == pathlib.Path(r2).read_text()


@pytest.mark.parametrize("field", ["grad_clip", "weight_decay"])
def test_pretrain_with_negative_optimizer_field_exits_two(workspace, capsys, field):
    root, manifest, _ = workspace
    cfg = TrainConfig(stage="pretrain", steps=2, batch_size=4, seed=1, model=TINY).to_dict()
    cfg[field] = -1.0
    cfg_path = root / f"bad-{field}.json"
    cfg_path.write_text(json.dumps(cfg))
    out, log = root / f"bad-{field}.ckpt", root / f"bad-{field}.jsonl"
    assert cli_dispatch(["pretrain", "--config", str(cfg_path), "--manifest", manifest,
                         "--out", str(out), "--log", str(log)]) == 2
    assert f"{field} must be >= 0, got -1.0" in capsys.readouterr().err
    assert not any(p.exists() for p in (out, log, pathlib.Path(vocab_path_for(str(out)))))


@pytest.mark.parametrize("field,value,message", [
    ("steps", "100", "steps must be an integer, got '100'"),
    ("margin", -0.5, "margin must be >= 0, got -0.5"),
    ("model.n_heads", 0, "n_heads must be >= 1, got 0"),
    ("model.max_text_length", "64", "max_text_length must be an integer, got '64'"),
])
def test_pretrain_with_bad_config_exits_two_and_writes_nothing(workspace, capsys, field,
                                                               value, message):
    root, manifest, _ = workspace
    cfg = TrainConfig(stage="pretrain", steps=2, batch_size=4, seed=1, model=TINY).to_dict()
    *outer, name = field.split(".")
    (cfg[outer[0]] if outer else cfg)[name] = value
    cfg_path = root / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out, log = root / "bad.ckpt", root / "bad.jsonl"
    assert cli_dispatch(["pretrain", "--config", str(cfg_path), "--manifest", manifest,
                         "--out", str(out), "--log", str(log)]) == 2
    assert message in capsys.readouterr().err
    assert not any(p.exists() for p in (out, log, pathlib.Path(vocab_path_for(str(out)))))


def test_pretrain_rejects_a_negative_seed_flag(workspace, capsys):
    root, manifest, _ = workspace
    cfg_path = root / "seed.json"
    TrainConfig(stage="pretrain", steps=2, batch_size=4, seed=1, model=TINY).save(
        str(cfg_path))
    out = root / "seed.ckpt"
    assert cli_dispatch(["pretrain", "--config", str(cfg_path), "--manifest", manifest,
                         "--out", str(out), "--seed", "-4"]) == 2
    assert "seed must be >= 0, got -4" in capsys.readouterr().err
    assert not out.exists()

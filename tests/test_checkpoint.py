"""Checkpoint container: bitwise round trips and corruption diagnostics."""

import numpy as np
import pytest

from critiq import checkpoint as ckpt
from critiq.model import ModelConfig, ModelParams


@pytest.fixture
def tensors():
    rng = np.random.default_rng(7)
    return {
        "a/w": rng.normal(size=(3, 4)).astype(np.float32),
        "a/b": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.array(1.25),
        "double": rng.normal(size=(2, 2, 2)),
    }


def test_round_trip_bitwise(tensors, tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save(tensors, path)
    loaded = ckpt.load(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].dtype == tensors[name].dtype
        assert loaded[name].tobytes() == tensors[name].tobytes()


def test_corrupted_magic_rejected(tensors, tmp_path):
    path = tmp_path / "t.ckpt"
    ckpt.save(tensors, str(path))
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ckpt.CheckpointError, match="magic"):
        ckpt.load(str(path))


def test_bad_version_rejected(tensors, tmp_path):
    path = tmp_path / "t.ckpt"
    ckpt.save(tensors, str(path))
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ckpt.CheckpointError, match="version"):
        ckpt.load(str(path))


def test_truncated_file_rejected(tensors, tmp_path):
    path = tmp_path / "t.ckpt"
    ckpt.save(tensors, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(ckpt.CheckpointError, match="truncated"):
        ckpt.load(str(path))


def test_trailing_bytes_rejected(tensors, tmp_path):
    path = tmp_path / "t.ckpt"
    ckpt.save(tensors, str(path))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ckpt.CheckpointError, match="trailing"):
        ckpt.load(str(path))


def test_validate_names_flags_unknown_and_mismatched(tmp_path):
    tensors = {"known": np.zeros((2, 2), dtype=np.float32),
               "mystery": np.zeros(3, dtype=np.float32)}
    with pytest.raises(ckpt.CheckpointError, match="mystery"):
        ckpt.validate_names(tensors, {"known": (2, 2)}, "x.ckpt")
    with pytest.raises(ckpt.CheckpointError, match="known"):
        ckpt.validate_names({"known": np.zeros((2, 3), dtype=np.float32)},
                            {"known": (2, 2)}, "x.ckpt")
    with pytest.raises(ckpt.CheckpointError, match="missing"):
        ckpt.validate_names({}, {"known": (2, 2)}, "x.ckpt")


def test_model_params_round_trip_bitwise(tmp_path):
    cfg = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                      encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                      mlp_dim=32, generative_pool_queries=2, vocab_size=32,
                      max_text_length=8)
    params = ModelParams.initialize(cfg, seed=3)
    path = str(tmp_path / "model.ckpt")
    params.save(path)
    loaded, extra = ModelParams.load(path)
    assert loaded.config == cfg
    for name, t in params.items():
        assert loaded[name].data.tobytes() == t.data.tobytes(), name


def test_config_mismatch_names_offending_tensor(tmp_path):
    cfg_a = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                        encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                        mlp_dim=32, generative_pool_queries=2, vocab_size=32,
                        max_text_length=8)
    cfg_b = ModelConfig(image_size=16, patch_size=8, hidden_dim=32, n_heads=2,
                        encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                        mlp_dim=32, generative_pool_queries=2, vocab_size=32,
                        max_text_length=8)
    path = str(tmp_path / "model.ckpt")
    ModelParams.initialize(cfg_a, seed=0).save(path)
    with pytest.raises(ckpt.CheckpointError, match=r"'[a-z_/]+' has shape"):
        ModelParams.load(path, expected_config=cfg_b)


def test_config_mismatch_with_equal_shapes_names_fields(tmp_path):
    cfg = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                      encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                      mlp_dim=32, generative_pool_queries=2, vocab_size=32,
                      max_text_length=8)
    path = str(tmp_path / "model.ckpt")
    ModelParams.initialize(cfg, seed=0).save(path)
    other = ModelConfig(**{**cfg.to_dict(), "n_heads": 4})
    with pytest.raises(ckpt.CheckpointError,
                       match=r"n_heads \(stored 2, expected 4\)") as err:
        ModelParams.load(path, expected_config=other)
    assert "hidden_dim" not in str(err.value)
    loaded, _ = ModelParams.load(path, expected_config=cfg)
    assert loaded.config == cfg


def test_unknown_tensor_name_rejected_on_model_load(tmp_path):
    cfg = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                      encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                      mlp_dim=32, generative_pool_queries=2, vocab_size=32,
                      max_text_length=8)
    params = ModelParams.initialize(cfg, seed=0)
    path = str(tmp_path / "model.ckpt")
    params.save(path, extra={"rogue_tensor": np.zeros(2, dtype=np.float32)})
    with pytest.raises(ckpt.CheckpointError, match="rogue_tensor"):
        ModelParams.load(path)


def test_atomic_write_replaces_existing(tensors, tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save(tensors, path)
    ckpt.save({"only": np.ones(2, dtype=np.float32)}, path)
    assert list(ckpt.load(path)) == ["only"]

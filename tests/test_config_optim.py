"""Run configuration round trips and optimizer mechanics."""

import math

import numpy as np
import pytest

from critiq.autodiff import Tensor
from critiq.config import LOSS_WEIGHT_SWEEP, MARGIN_SWEEP, TrainConfig
from critiq.model import ModelConfig
from critiq.optim import AdamW, clip_global_norm, linear_decay_lr


class TestTrainConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = TrainConfig(stage="adapt", steps=123, batch_size=9,
                          learning_rate=0.005, margin=0.05, use_residual=False,
                          model=ModelConfig(hidden_dim=32, n_heads=4))
        path = str(tmp_path / "cfg.json")
        cfg.save(path)
        assert TrainConfig.load(path) == cfg

    def test_validation(self):
        with pytest.raises(ValueError, match="stage"):
            TrainConfig(stage="finetune")
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=-1)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="source_size"):
            TrainConfig(source_size=16)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            TrainConfig.from_dict({"stage": "pretrain", "bogus": 1})

    def test_sweep_grids(self):
        assert MARGIN_SWEEP == (0.01, 0.05, 0.1, 0.15, 0.2)
        assert LOSS_WEIGHT_SWEEP == ((2.0, 1.0), (1.0, 1.0), (1.0, 2.0))

    def test_default_training_knobs(self):
        cfg = TrainConfig()
        assert (cfg.alpha, cfg.beta) == (1.0, 2.0)
        assert cfg.margin == 0.1
        assert cfg.use_residual and cfg.use_text_anchor

    def test_default_model_dimensions(self):
        m = ModelConfig()
        assert (m.image_size, m.channels, m.patch_size) == (32, 3, 8)
        assert m.num_patches == 16
        assert (m.hidden_dim, m.n_heads, m.mlp_dim) == (64, 4, 256)
        assert (m.encoder_layers, m.unimodal_layers, m.multimodal_layers) == (2, 2, 2)
        assert m.generative_pool_queries == 8
        assert m.vocab_size <= 512
        assert m.max_text_length == 64


class TestSchedule:
    def test_linear_decay_reaches_zero(self):
        assert linear_decay_lr(0.1, 0, 10) == 0.1
        assert abs(linear_decay_lr(0.1, 5, 10) - 0.05) < 1e-15
        assert linear_decay_lr(0.1, 10, 10) == 0.0


class TestClipping:
    def test_norm_above_threshold_scaled(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        t.grad = np.full(4, 3.0)
        norm = clip_global_norm({"t": t}, 1.0)
        assert abs(norm - 6.0) < 1e-12
        assert abs(np.linalg.norm(t.grad) - 1.0) < 1e-6

    def test_norm_below_threshold_untouched(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        t.grad = np.full(4, 0.1)
        g = t.grad.copy()
        clip_global_norm({"t": t}, 1.0)
        assert np.array_equal(t.grad, g)


class TestAdamW:
    def test_matches_reference_update(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p}, weight_decay=0.0)
        g = np.array([0.5, -0.25])
        p.grad = g.copy()
        opt.step(0.1)
        m = 0.1 * g
        v = 0.001 * g * g
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_float32_steps_bitwise_equal_out_of_place_reference(self):
        rng = np.random.default_rng(6)
        p = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.01)
        w, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        f = np.float32
        for step in range(1, 6):
            g = rng.normal(size=(4, 5)).astype(np.float32)
            p.grad = g.copy()
            opt.step(0.01)
            m = f(0.9) * m + f(1 - 0.9) * g
            v = f(0.999) * v + f(1 - 0.999) * (g * g)
            update = (m / f(1 - 0.9 ** step)) / (np.sqrt(v / f(1 - 0.999 ** step)) + f(1e-8))
            w = w - f(0.01) * (update + f(0.01) * w)
            assert p.data.tobytes() == w.tobytes(), step

    def test_decay_is_decoupled_and_skippable(self):
        p = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        q = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        opt = AdamW({"p": p, "log_tau": q}, weight_decay=0.5)
        p.grad = np.zeros(1)
        q.grad = np.zeros(1)
        opt.step(0.1)
        assert p.data[0] < 2.0                # decayed
        assert q.data[0] == 2.0               # log_tau excluded by default

    def test_state_round_trip(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.01)
        for _ in range(3):
            p.grad = rng.normal(size=3).astype(np.float32)
            opt.step(0.01)
        state = {k: v.copy() for k, v in opt.state_tensors().items()}
        clone = Tensor(p.data.copy(), requires_grad=True)
        opt2 = AdamW({"p": clone}, weight_decay=0.01)
        opt2.load_state(state)
        assert opt2.step_count == 3
        g = rng.normal(size=3).astype(np.float32)
        p.grad = g.copy()
        clone.grad = g.copy()
        opt.step(0.01)
        opt2.step(0.01)
        assert np.array_equal(p.data, clone.data)

    def test_load_state_validates(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = AdamW({"p": p})
        with pytest.raises(ValueError, match="opt/step"):
            opt.load_state({})
        with pytest.raises(ValueError, match="opt/m/p"):
            opt.load_state({"opt/step": np.array(1.0)})

"""Run configuration round trips and optimizer mechanics."""

import math
import re

import numpy as np
import pytest

from critiq.autodiff import Tensor
from critiq.config import TrainConfig
from critiq.model import ModelConfig, ModelParams
from critiq.optim import CHUNK, AdamW, clip_global_norm, linear_decay_lr
from oracles import PerTensorAdamW, assert_arena_views, per_tensor_global_norm


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

    @pytest.mark.parametrize("field", ["grad_clip", "weight_decay"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_optimizer_fields_rejected_below_zero(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got {value}"):
            TrainConfig(**{field: value})

    def test_optimizer_fields_may_be_zero(self):
        cfg = TrainConfig(grad_clip=0.0, weight_decay=0.0)
        assert (cfg.grad_clip, cfg.weight_decay) == (0.0, 0.0)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            TrainConfig.from_dict({"stage": "pretrain", "bogus": 1})

    @pytest.mark.parametrize("field,value,message", [
        ("steps", -1, "steps must be >= 0, got -1"),
        ("steps", "100", "steps must be an integer, got '100'"),
        ("steps", 10.0, "steps must be an integer, got 10.0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
        ("learning_rate", float("inf"), "learning_rate must be > 0, got inf"),
        ("learning_rate", "1e-3", "learning_rate must be a number, got '1e-3'"),
        ("alpha", -1.0, "got alpha=-1.0, beta=2.0"),
        ("alpha", None, "alpha must be a number, got None"),
        ("beta", -2.0, "got alpha=1.0, beta=-2.0"),
        ("margin", -0.5, "margin must be >= 0, got -0.5"),
        ("margin", float("nan"), "margin must be >= 0, got nan"),
        ("use_residual", 1, "use_residual must be true or false, got 1"),
        ("use_text_anchor", "no", "use_text_anchor must be true or false, got 'no'"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", True, "seed must be an integer, got True"),
        ("eval_every", -3, "eval_every must be >= 0, got -3"),
        ("checkpoint_every", -1, "checkpoint_every must be >= 0, got -1"),
        ("augment", "yes", "augment must be true or false, got 'yes'"),
        ("fixed_comment", 0, "fixed_comment must be true or false, got 0"),
        ("source_size", 0, "source_size must be >= 1, got 0"),
        ("source_size", 16, "source_size 16 smaller than model image_size 32"),
        ("model", {"hidden_dim": 64}, "model must be a ModelConfig"),
    ])
    def test_bad_field_rejected_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{field: value})

    def test_alpha_and_beta_may_not_both_be_zero(self):
        with pytest.raises(ValueError, match="positive sum, got alpha=0.0, beta=0.0"):
            TrainConfig(alpha=0.0, beta=0.0)
        assert TrainConfig(alpha=0, beta=1.0).alpha == 0

    @pytest.mark.parametrize("field,value,message", [
        ("image_size", 0, "image_size must be >= 1, got 0"),
        ("channels", 0, "channels must be >= 1, got 0"),
        ("patch_size", 0, "patch_size must be >= 1, got 0"),
        ("hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
        ("n_heads", 0, "n_heads must be >= 1, got 0"),
        ("n_heads", 2.0, "n_heads must be an integer, got 2.0"),
        ("encoder_layers", -1, "encoder_layers must be >= 0, got -1"),
        ("unimodal_layers", -1, "unimodal_layers must be >= 0, got -1"),
        ("multimodal_layers", -2, "multimodal_layers must be >= 0, got -2"),
        ("mlp_dim", 0, "mlp_dim must be >= 1, got 0"),
        ("generative_pool_queries", 0, "generative_pool_queries must be >= 1, got 0"),
        ("vocab_size", 3, "vocab_size must be >= 6, got 3"),
        ("max_text_length", 1, "max_text_length must be >= 3, got 1"),
        ("max_text_length", "64", "max_text_length must be an integer, got '64'"),
    ])
    def test_bad_model_field_rejected_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(**{field: value})

    def test_model_dict_with_missing_or_unknown_fields_rejected(self):
        d = ModelConfig().to_dict()
        del d["n_heads"]
        with pytest.raises(ValueError, match=re.escape("missing: ['n_heads'], unknown: []")):
            TrainConfig.from_dict({"model": d})
        d.update(n_heads=4, n_head=4)
        with pytest.raises(ValueError, match=re.escape("missing: [], unknown: ['n_head']")):
            TrainConfig.from_dict({"model": d})

    def test_smallest_model_accepted(self):
        cfg = ModelConfig(image_size=1, channels=1, patch_size=1, hidden_dim=1, n_heads=1,
                          encoder_layers=0, unimodal_layers=0, multimodal_layers=0,
                          mlp_dim=1, generative_pool_queries=1, vocab_size=6,
                          max_text_length=3)
        assert cfg.num_patches == 1

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
        grad = np.full(4, 3.0)
        norm = clip_global_norm(grad, 1.0)
        assert abs(norm - 6.0) < 1e-12
        assert abs(np.linalg.norm(grad) - 1.0) < 1e-6

    def test_norm_below_threshold_untouched(self):
        grad = np.full(4, 0.1)
        g = grad.copy()
        clip_global_norm(grad, 1.0)
        assert np.array_equal(grad, g)


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


def _arena_params(dtype, rng):
    # the first tensor spans a block boundary, and the decayed range ends
    # inside the second block
    shapes = {"w": (300, 250), "log_tau": (), "b": (40,)}
    return {n: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
            for n, s in shapes.items()}


class TestFlatArena:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_bytewise_equal_per_tensor_oracle(self, dtype):
        rng = np.random.default_rng(11)
        params = _arena_params(dtype, rng)
        assert params["w"].data.size + params["b"].data.size > CHUNK
        twins = {n: Tensor(t.data.copy(), requires_grad=True) for n, t in params.items()}
        opt, oracle = AdamW(params, weight_decay=0.05), PerTensorAdamW(twins, 0.05)
        for step in range(6):
            for n in params:
                g = rng.normal(size=params[n].shape).astype(dtype)
                params[n].grad, twins[n].grad = g.copy(), g.copy()
            opt.step(1e-2 * (1 + step))
            oracle.step(1e-2 * (1 + step))
            for n in params:
                assert params[n].data.tobytes() == twins[n].data.tobytes(), (step, n)
                assert opt.m[n].tobytes() == oracle.m[n].tobytes(), (step, n)
                assert opt.v[n].tobytes() == oracle.v[n].tobytes(), (step, n)

    @pytest.mark.parametrize("max_norm", [1e6, 1.0])
    def test_clip_matches_float64_oracle(self, max_norm):
        rng = np.random.default_rng(12)
        params = _arena_params(np.float32, rng)
        opt = AdamW(params)
        for t in params.values():
            t.grad = rng.normal(size=t.shape).astype(np.float32)
        grads = [t.grad.copy() for t in params.values()]
        expected = per_tensor_global_norm(grads)
        assert (expected > max_norm) == (max_norm == 1.0)
        before = opt.gather_grads().copy()
        norm = clip_global_norm(opt.grad, max_norm)
        assert abs(norm - expected) <= 1e-12 * expected
        if norm > max_norm:
            assert np.array_equal(opt.grad, before * np.float32(max_norm / norm))
            for t, g in zip(params.values(), grads):   # .grad views the clipped arena
                np.testing.assert_allclose(t.grad, g * (max_norm / expected), rtol=1e-6)
        else:
            assert np.array_equal(opt.grad, before)

    def test_views_survive_steps_clamp_and_load_state(self):
        cfg = ModelConfig(image_size=16, patch_size=8, hidden_dim=16, n_heads=2,
                          encoder_layers=1, unimodal_layers=1, multimodal_layers=1,
                          mlp_dim=32, generative_pool_queries=2, vocab_size=64,
                          max_text_length=16)
        params = ModelParams.initialize(cfg, seed=0)
        opt = AdamW(params.tensors, weight_decay=0.01)
        rng = np.random.default_rng(3)
        for _ in range(2):
            for t in params.tensors.values():
                t.grad = rng.normal(size=t.shape).astype(np.float32)
            opt.step(1e-2)
            params["log_tau"].data[...] = 50.0
            params.clamp_log_tau()
            assert float(opt.data[-1]) == np.float32(np.log(10.0))  # log_tau sits last
        opt.load_state({k: v.copy() for k, v in opt.state_tensors().items()})
        assert_arena_views(opt, params.tensors)

    def test_none_gradient_raises_naming_the_tensor(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        opt = AdamW({"p": p, "pool/q": q})
        p.grad = np.ones(3)
        with pytest.raises(ValueError, match="'pool/q' has no gradient"):
            opt.step(0.1)
        assert opt.step_count == 0

    def test_rebound_parameter_raises(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = AdamW({"p": p})
        p.data = np.ones(3)
        p.grad = np.ones(3)
        with pytest.raises(RuntimeError, match="'p' was rebound"):
            opt.step(0.1)

    def test_step_regathers_fresh_gradients(self):
        # a gradient set after gather_grads, even for one tensor of two, is
        # never left unread
        p = Tensor(np.zeros(3), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        opt = AdamW({"p": p, "q": q})
        p.grad, q.grad = np.ones(3), np.ones(2)
        opt.gather_grads()
        p.grad = -np.ones(3)
        opt.step(0.1)
        assert (p.data > 0).all() and (q.data < 0).all()

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="one dtype"):
            AdamW({"a": Tensor(np.zeros(2, np.float32), requires_grad=True),
                   "b": Tensor(np.zeros(2, np.float64), requires_grad=True)})


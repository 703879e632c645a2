"""Gradient engine verification: hand oracles, finite differences over every
registered op, and determinism of repeated backward passes."""

import numpy as np
import pytest

from critiq import autodiff as ad
from critiq.autodiff import DegenerateInputError, ShapeError, Tensor, backward


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestForwardOracles:
    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a.astype(np.float64)))
        np.testing.assert_array_equal(out.data, a)

    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-9)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 7), scale=4))
        p = ad.softmax(x, axis=-1).data
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_l2_normalize_three_four(self):
        out = ad.l2_normalize(Tensor(np.array([3.0, 4.0])))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-9)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(10, 6)))
        out = ad.l2_normalize(x).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-9)

    def test_l2_normalize_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            ad.l2_normalize(Tensor(np.zeros(4)))

    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_attention_masked_weights_exact_zeros(self):
        # one-hot values make each output row equal to that query's weights
        q = Tensor(np.array([[[1.0, 0.0], [2.0, 3.0]]]))
        k = Tensor(np.array([[[1.0, 0.0], [100.0, 0.0]]]))
        v = Tensor(np.eye(2)[None])
        mask = np.array([[True, False], [True, True]])
        p = ad.attention(q, k, v, n_heads=1, mask=mask).data[0]
        assert p[0, 1] == 0.0 and p[0, 0] == 1.0

    def test_attention_fully_masked_row_rejected(self):
        x = Tensor(np.zeros((1, 2, 4)))
        mask = np.array([[False, False], [True, True]])
        with pytest.raises(DegenerateInputError, match="attention"):
            ad.attention(x, x, x, n_heads=2, mask=mask)

    def test_embedding_rejects_out_of_range(self):
        with pytest.raises(ShapeError, match="embedding"):
            ad.embedding(Tensor(np.zeros((4, 2))), np.array([4]))


class TestBackwardOracles:
    def test_square_gradient(self):
        x = t64([3.0])
        backward(ad.sum_(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)

    def test_sum_of_softmax_is_constant(self):
        z = t64([0.3, -1.2, 2.0])
        backward(ad.sum_(ad.softmax(z)))
        np.testing.assert_allclose(z.grad, np.zeros(3), atol=1e-12)

    def test_cross_entropy_uniform_gradient(self):
        logits = t64(np.zeros((1, 4)))
        backward(ad.sum_(ad.cross_entropy_with_logits(logits, np.array([0]))))
        np.testing.assert_allclose(logits.grad, [[0.25 - 1, 0.25, 0.25, 0.25]], atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError, match="scalar"):
            backward(t64([1.0, 2.0]))

    def test_unreachable_leaf_gets_zero_grad(self):
        x, y = t64([2.0]), t64([5.0])
        backward(ad.sum_(ad.mul(x, x)), leaves=[x, y])
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_backward_twice_identical(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(3, 3)))
        loss = ad.sum_(ad.softmax(ad.matmul(x, x)))
        backward(loss)
        g1 = x.grad.copy()
        x.zero_grad()
        loss.grad = None
        backward(loss)
        np.testing.assert_array_equal(g1, x.grad)


class _Projector:
    """Scalarize op outputs with a random functional drawn once and reused,
    so repeated evaluations of f see the same function."""

    def __init__(self, rng):
        self.rng = rng
        self.w = None

    def __call__(self, out):
        if self.w is None:
            self.w = Tensor(self.rng.normal(size=out.shape).astype(np.float64))
        return ad.sum_(ad.mul(out, self.w))


def _op_cases():
    """(name, builder) pairs; builder(rng) -> (param dict, f(params)->scalar)."""
    def unary(op, transform=None, shape=(3, 4)):
        def build(rng):
            data = rng.normal(size=shape)
            if transform:
                data = transform(data)
            p = {"x": t64(data)}
            proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
            return p, lambda ps: proj(op(ps["x"]))
        return build

    def binary(op, shapes=((3, 4), (3, 4))):
        def build(rng):
            p = {"a": t64(rng.normal(size=shapes[0])), "b": t64(rng.normal(size=shapes[1]))}
            proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
            return p, lambda ps: proj(op(ps["a"], ps["b"]))
        return build

    def softmax_case(rng):
        p = {"x": t64(rng.normal(size=(2, 5), scale=2))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.softmax(ps["x"], axis=-1))

    def layernorm_case(rng):
        p = {"x": t64(rng.normal(size=(3, 6))), "g": t64(rng.normal(size=6)),
             "b": t64(rng.normal(size=6))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.layer_norm(ps["x"], ps["g"], ps["b"]))

    def embedding_case(rng):
        ids = rng.integers(0, 6, size=(2, 4))
        p = {"table": t64(rng.normal(size=(6, 3)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.embedding(ps["table"], ids))

    def gather_case(rng):
        idx = rng.integers(0, 4, size=3)
        p = {"x": t64(rng.normal(size=(3, 4, 5)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.gather_rows(ps["x"], idx))

    def index_case(rng):
        p = {"x": t64(rng.normal(size=(4, 5)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.index(ps["x"], slice(1, 3)))

    def ce_case(rng):
        targets = rng.integers(0, 5, size=3)
        p = {"logits": t64(rng.normal(size=(3, 5), scale=2))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.cross_entropy_with_logits(ps["logits"], targets))

    def attention_case(rng):
        # causal self-attention: one tensor is query, key and value
        mask = np.tril(np.ones((4, 4), dtype=bool))
        p = {"x": t64(rng.normal(size=(2, 4, 6)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.attention(ps["x"], ps["x"], ps["x"], 2, mask))

    def cross_attention_case(rng):
        mask = rng.random((3, 5)) < 0.6
        mask[:, 0] = True
        p = {"q": t64(rng.normal(size=(2, 3, 4))), "k": t64(rng.normal(size=(2, 5, 4))),
             "v": t64(rng.normal(size=(2, 5, 4)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.attention(ps["q"], ps["k"], ps["v"], 2, mask))

    def unmasked_attention_case(rng):
        p = {"q": t64(rng.normal(size=(1, 3, 6))), "k": t64(rng.normal(size=(1, 2, 6))),
             "v": t64(rng.normal(size=(1, 2, 6)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.attention(ps["q"], ps["k"], ps["v"], 3))

    def batched_matmul_case(rng):
        p = {"a": t64(rng.normal(size=(2, 3, 4))), "b": t64(rng.normal(size=(4, 5)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.matmul(ps["a"], ps["b"]))

    def bias_add_case(rng):
        p = {"a": t64(rng.normal(size=(2, 3, 4))), "b": t64(rng.normal(size=(4,)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.add(ps["a"], ps["b"]))

    def linear_case(rng):
        p = {"x": t64(rng.normal(size=(2, 3, 4))), "w": t64(rng.normal(size=(4, 5))),
             "b": t64(rng.normal(size=(5,)))}
        proj = _Projector(np.random.default_rng(int(rng.integers(1 << 30))))
        return p, lambda ps: proj(ad.linear(ps["x"], ps["w"], ps["b"]))

    return [
        ("add", binary(ad.add)),
        ("bias_add", bias_add_case),
        ("sub", binary(ad.sub)),
        ("mul", binary(ad.mul)),
        ("neg", unary(ad.neg)),
        ("scale", unary(lambda x: ad.scale(x, -1.7))),
        ("exp", unary(ad.exp)),
        ("log", unary(ad.log, transform=lambda d: np.abs(d) + 0.5)),
        ("relu", unary(ad.relu, transform=lambda d: d + 0.05 * np.sign(d))),
        ("gelu", unary(ad.gelu)),
        ("matmul", binary(ad.matmul, shapes=((3, 4), (4, 2)))),
        ("matmul_batched", batched_matmul_case),
        ("linear", linear_case),
        ("reshape", unary(lambda x: ad.reshape(x, (2, 6)), shape=(3, 4))),
        ("swapaxes", unary(lambda x: ad.swapaxes(x, 0, 1))),
        ("softmax", softmax_case),
        ("layer_norm", layernorm_case),
        ("l2_normalize", unary(ad.l2_normalize, transform=lambda d: d + np.sign(d))),
        ("embedding", embedding_case),
        ("gather_rows", gather_case),
        ("index", index_case),
        ("cross_entropy", ce_case),
        ("masked_attention", attention_case),
        ("cross_attention", cross_attention_case),
        ("unmasked_attention", unmasked_attention_case),
        ("sum", unary(lambda x: ad.sum_(x, axis=0))),
        ("mean", unary(lambda x: ad.mean(x, axis=1))),
        ("mean_all", unary(ad.mean)),
    ]


@pytest.mark.parametrize("name,builder", _op_cases())
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_op_gradients_match_finite_differences(name, builder, seed):
    rng = np.random.default_rng((hash(name) & 0xFFFF, seed))
    params, f = builder(rng)
    report = ad.finite_diff_check(f, params)
    assert report.ok, f"{name}: {report}"


def _unfused_attention(q, k, v, n_heads, mask):
    """The reshape/swapaxes/matmul/softmax chain that `ad.attention` replaces;
    masked scores get an additive -1e300, whose softmax weight is exactly 0."""
    n, l, d = q.shape
    m, dh = k.shape[1], d // n_heads

    def heads(x, rows):
        return ad.swapaxes(ad.reshape(x, (n, rows, n_heads, dh)), 1, 2)

    scores = ad.scale(ad.matmul(heads(q, l), ad.swapaxes(heads(k, m), -1, -2)),
                      1.0 / np.sqrt(dh))
    if mask is not None:
        scores = ad.add(scores, Tensor(np.where(mask, 0.0, -1e300)))
    out = ad.matmul(ad.softmax(scores, axis=-1), heads(v, m))
    return ad.reshape(ad.swapaxes(out, 1, 2), (n, l, d))


def _assert_same_output_and_grads(fused, unfused, arrays):
    """float64 outputs and input gradients agree to 1e-12 under a fixed projection."""
    results = []
    for op in (fused, unfused):
        params = {name: t64(a.copy()) for name, a in arrays.items()}
        out = op(**params)
        w = Tensor(np.random.default_rng(9).normal(size=out.shape))
        backward(ad.sum_(ad.mul(out, w)), leaves=params.values())
        results.append((out.data, {name: p.grad for name, p in params.items()}))
    (out_f, grads_f), (out_u, grads_u) = results
    np.testing.assert_allclose(out_f, out_u, rtol=0, atol=1e-12)
    for name in arrays:
        np.testing.assert_allclose(grads_f[name], grads_u[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_linear_matches_unfused_chain():
    rng = np.random.default_rng(5)
    arrays = {"x": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 5)),
              "b": rng.normal(size=5)}
    _assert_same_output_and_grads(ad.linear, lambda x, w, b: ad.add(ad.matmul(x, w), b),
                                  arrays)


@pytest.mark.parametrize("l,m,mask_kind", [(4, 4, "causal"), (3, 5, "random"), (3, 2, None)])
def test_attention_matches_unfused_chain(l, m, mask_kind):
    rng = np.random.default_rng(5)
    mask = None
    if mask_kind == "causal":
        mask = np.tril(np.ones((l, m), dtype=bool))
    elif mask_kind == "random":
        mask = rng.random((l, m)) < 0.5
        mask[:, 0] = True
    arrays = {"q": rng.normal(size=(2, l, 8)), "k": rng.normal(size=(2, m, 8)),
              "v": rng.normal(size=(2, m, 8))}
    _assert_same_output_and_grads(lambda q, k, v: ad.attention(q, k, v, 4, mask),
                                  lambda q, k, v: _unfused_attention(q, k, v, 4, mask),
                                  arrays)


def test_finite_diff_reports_non_finite_evaluations():
    def f(ps):
        return ad.log(ad.sum_(ps["x"]))  # sum can go negative -> clamped, derivative 0

    def f_bad(ps):
        out = ad.exp(ad.scale(ps["x"], 1e6))
        return ad.sum_(out)

    params = {"x": t64([100.0])}
    with np.errstate(over="ignore"):
        report = ad.finite_diff_check(f_bad, params)
    assert not report.ok
    assert report.params[0].failure is not None
    assert "non-finite" in report.params[0].failure


def test_finite_diff_requires_float64():
    params = {"x": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
    with pytest.raises(ValueError, match="float64"):
        ad.finite_diff_check(lambda ps: ad.sum_(ps["x"]), params)


def test_square_finite_diff_tight():
    params = {"x": t64([3.0])}
    report = ad.finite_diff_check(lambda ps: ad.sum_(ad.mul(ps["x"], ps["x"])), params)
    assert report.ok and report.max_rel_err < 1e-8


def test_no_grad_blocks_graph():
    x = t64([2.0])
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad and y._backward_fn is None

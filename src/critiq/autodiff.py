"""Reverse-mode automatic differentiation over dense numpy tensors.

The op set covers exactly what the model and losses need: matmul, fused
linear (matmul plus bias), add/sub, elementwise exp/log/mul, gelu, relu,
softmax, fused multi-head attention (optionally masked), layer normalization,
embedding lookup, L2 normalization, cross-entropy with logits, reductions,
and a handful of indexing/reshaping helpers. A central finite-difference
verifier (`finite_diff_check`) closes the loop on every gradient.

Conventions:
- Tensors wrap float32 or float64 numpy arrays. Training code runs float32;
  gradient checks run float64.
- Broadcasting is restricted on purpose: elementwise binary ops accept equal
  shapes or a second operand whose shape matches the trailing dims of the
  first (broadcast over leading batch axes only). Anything else raises.
- Backward accumulation order is fixed by graph construction order, so
  repeated backward passes over the same graph are bit-identical.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

EPS = 1e-12  # norm floor and log-domain clamp; fixed, not configurable

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Shapes do not conform for the requested op."""


class DegenerateInputError(ValueError):
    """Numerically degenerate input (e.g. normalizing a near-zero vector)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus an optional position in a backward graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # Operator sugar; the real implementations are the module functions.
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # No copy when the dtype matches: gradients are never written in place.
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
        t.grad = t.grad + g.astype(t.data.dtype, copy=False)


def _reduce_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over leading axes broadcast during the forward pass."""
    if g.ndim == len(shape):
        return g
    return g.reshape((-1,) + tuple(shape)).sum(axis=0)


def _check_trailing_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    if b.data.ndim < a.data.ndim and a.shape[a.data.ndim - b.data.ndim:] == b.shape:
        return
    if b.data.ndim == 0:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform "
                     "(equal shapes or trailing-dim broadcast only)")


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def full(shape, value: float, dtype=np.float32) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


# ---------------------------------------------------------------------------
# elementwise and linear ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_trailing_broadcast("add", a, b)
    out_data = a.data + b.data

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, _reduce_to_shape(g, b.shape))

    return _make(out_data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_trailing_broadcast("sub", a, b)
    out_data = a.data - b.data

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, -_reduce_to_shape(g, b.shape))

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_trailing_broadcast("mul", a, b)
    out_data = a.data * b.data

    def backward_fn(g):
        _accumulate(a, g * b.data)
        _accumulate(b, _reduce_to_shape(g * a.data, b.shape))

    return _make(out_data, (a, b), backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward_fn)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (not a graph node)."""
    s = float(s)

    def backward_fn(g):
        _accumulate(a, g * s)

    return _make(a.data * s, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward_fn(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    """Natural log with the input clamped to EPS from below."""
    clamped = np.maximum(a.data, EPS)
    out_data = np.log(clamped)

    def backward_fn(g):
        grad = np.where(a.data > EPS, g / clamped, 0.0)
        _accumulate(a, grad)

    return _make(out_data, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    """max(0, x); subgradient 0 exactly at the kink."""
    mask = a.data > 0

    def backward_fn(g):
        _accumulate(a, g * mask)

    return _make(np.where(mask, a.data, 0.0).astype(a.dtype), (a,), backward_fn)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation GELU."""
    x = a.data
    # Products, not `**`: a float32 power goes through pow and costs ~100x more.
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(inner)
    out_data = (0.5 * x * (1.0 + t)).astype(a.dtype)

    def backward_fn(g):
        sech2 = 1.0 - t * t
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        grad = 0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner
        _accumulate(a, g * grad)

    return _make(out_data, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}: {e}") from None

    return _make(out_data, (a, b), lambda g: _matmul_backward(a, b, g))


def _matmul_backward(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    if a.requires_grad:
        _accumulate(a, _reduce_to_shape(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
    if b.requires_grad and b.data.ndim == 2:  # one GEMM over all of a's leading axes
        _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
    elif b.requires_grad:
        _accumulate(b, _reduce_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: x (..., in), w (in, out), b (out,)."""
    if w.data.ndim != 2 or b.shape != w.shape[1:] or x.shape[-1:] != w.shape[:1]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b.shape} do not conform")
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def backward_fn(g):
        _matmul_backward(x, w, g)
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(out_data, (x, w, b), backward_fn)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(out_data, (a,), backward_fn)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    out_data = np.swapaxes(a.data, ax1, ax2)

    def backward_fn(g):
        _accumulate(a, np.swapaxes(g, ax1, ax2))

    return _make(out_data, (a,), backward_fn)


def index(a: Tensor, key) -> Tensor:
    """Static slice/index; gradient scatters back into the source shape."""
    out_data = a.data[key]

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        _accumulate(a, ga)

    return _make(np.array(out_data, copy=True), (a,), backward_fn)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one row per leading index: out[i] = a[i, idx[i]] for a of shape (N, L, D)."""
    if a.data.ndim != 3:
        raise ShapeError(f"gather_rows: expected 3-d input, got {a.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    n = a.shape[0]
    if idx.shape != (n,):
        raise ShapeError(f"gather_rows: index shape {idx.shape} does not match leading dim {n}")
    rows = np.arange(n)
    out_data = a.data[rows, idx]

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g)
        _accumulate(a, ga)

    return _make(np.array(out_data, copy=True), (a,), backward_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; repeated ids accumulate gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding: id out of range for table of {table.shape[0]} rows")
    out_data = table.data[ids]

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        _accumulate(table, gt)

    return _make(np.array(out_data, copy=True), (table,), backward_fn)


# ---------------------------------------------------------------------------
# normalization / attention ops
# ---------------------------------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(a, p * (g - dot))

    return _make(p, (a,), backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(D / n_heads)) v as one node.

    q is (N, L, D), k and v (N, M, D). `mask` is None or an (L, M) bool array;
    masked keys get exactly zero weight, and a query row with no unmasked key
    is rejected. The backward pass needs only q, k, v and the weights.
    """
    if q.data.ndim != 3 or k.data.ndim != 3 or k.shape != v.shape \
            or k.shape[::2] != q.shape[::2] or q.shape[2] % n_heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {n_heads} heads")
    (n, l, d), m = q.shape, k.shape[1]
    dh = d // n_heads
    scale_factor = 1.0 / math.sqrt(dh)

    def heads(x: np.ndarray) -> np.ndarray:  # (N, rows, D) -> (N, heads, rows, D / heads)
        return x.reshape(n, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(n, -1, d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    s = np.matmul(qh, kh.swapaxes(-1, -2))
    s *= scale_factor
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), (l, m))
        if not mask.any(axis=-1).all():
            raise DegenerateInputError("attention: some query row has no unmasked key")
        s = np.where(mask, s, -np.inf)
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s, out=s)
    p /= p.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        gh = heads(g)
        dp = np.matmul(gh, vh.swapaxes(-1, -2))
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= scale_factor
        _accumulate(q, merge(np.matmul(ds, kh)))
        _accumulate(k, merge(np.matmul(ds.swapaxes(-1, -2), qh)))
        _accumulate(v, merge(np.matmul(p.swapaxes(-1, -2), gh)))

    return _make(merge(np.matmul(p, vh)), (q, k, v), backward_fn)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must have shape ({d},), "
                         f"got {gamma.shape} and {beta.shape}")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + EPS)
    xhat = xc * inv
    out_data = (xhat * gamma.data + beta.data).astype(a.dtype)

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gamma, (g * xhat).sum(axis=lead))
        _accumulate(beta, g.sum(axis=lead))
        if a.requires_grad:
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accumulate(a, inv * (gx - m1 - xhat * m2))

    return _make(out_data, (a, gamma, beta), backward_fn)


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """x / ||x|| along `axis`; rejects vectors with norm below EPS."""
    n = np.sqrt((a.data ** 2).sum(axis=axis, keepdims=True))
    if (n < EPS).any():
        raise DegenerateInputError(f"l2_normalize: input norm below {EPS}")
    out_data = (a.data / n).astype(a.dtype)

    def backward_fn(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, (g - out_data * dot) / n)

    return _make(out_data, (a,), backward_fn)


def cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-position negative log-likelihood: out[...] = -log softmax(logits)[target].

    `targets` holds integer class ids with shape logits.shape[:-1].
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy_with_logits: target shape {targets.shape} "
                         f"does not match logits {logits.shape}")
    v = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"cross_entropy_with_logits: target id out of range [0, {v})")
    m = logits.data.max(axis=-1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(logits.data, targets[..., None], axis=-1)[..., 0]
    out_data = lse - picked

    def backward_fn(g):
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        _accumulate(logits, (p - onehot) * g[..., None])

    return _make(out_data, (logits,), backward_fn)


def sum_(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward_fn(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _make(np.asarray(out_data, dtype=a.dtype), (a,), backward_fn)


def mean(a: Tensor, axis=None) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    out_data = a.data.mean(axis=axis)

    def backward_fn(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g / count, a.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g / count, axis), a.shape).copy())

    return _make(np.asarray(out_data, dtype=a.dtype), (a,), backward_fn)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor, leaves=None) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Fills `.grad` on every reachable requires_grad tensor; anything the graph
    reaches is cleared first, so each call computes this loss's gradients
    from scratch (one loss per pass; there is no cross-call accumulation).
    Tensors listed in `leaves` that the loss does not reach get a zero grad.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
    if leaves is not None:
        for t in leaves:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    worst_index: int
    ok: bool
    failure: str | None = None


@dataclass
class FiniteDiffReport:
    ok: bool
    tol: float
    h: float
    params: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    def __str__(self) -> str:
        lines = [f"finite-diff check: {'PASS' if self.ok else 'FAIL'} "
                 f"(h={self.h:g}, tol={self.tol:g})"]
        for p in self.params:
            status = "ok" if p.ok else f"FAIL ({p.failure or 'tolerance exceeded'})"
            lines.append(f"  {p.name}: max_rel_err={p.max_rel_err:.3e} at flat index "
                         f"{p.worst_index} -> {status}")
        return "\n".join(lines)


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1.0, abs(a), abs(n))


def finite_diff_check(f, params: dict, h: float = 1e-5, tol: float = 1e-4) -> FiniteDiffReport:
    """Compare analytic gradients of scalar `f(params)` against central differences.

    Every parameter must be a float64 requires_grad Tensor; relative error uses
    a unit floor: |a - n| / max(1, |a|, |n|).
    """
    if h <= 0:
        raise ValueError("finite_diff_check: h must be positive")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"finite_diff_check: parameter '{name}' must be float64")
    for p in params.values():
        p.zero_grad()
    loss = f(params)
    if loss.data.size != 1:
        raise ShapeError("finite_diff_check: f must return a scalar")
    backward(loss, leaves=params.values())
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report = FiniteDiffReport(ok=True, tol=tol, h=h)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        worst_i = 0
        failure = None
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                fp = float(f(params).data)
            flat[i] = orig - h
            with no_grad():
                fm = float(f(params).data)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                failure = f"non-finite evaluation at flat index {i}"
                worst = np.inf
                worst_i = i
                break
            numeric = (fp - fm) / (2.0 * h)
            err = _rel_err(float(a_flat[i]), numeric)
            if err > worst:
                worst = err
                worst_i = i
        ok = failure is None and worst <= tol
        report.params.append(ParamCheck(name=name, max_rel_err=float(worst),
                                        worst_index=worst_i, ok=ok, failure=failure))
        report.ok = report.ok and ok
    return report

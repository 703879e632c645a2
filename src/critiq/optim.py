"""Adaptive-moment optimizer with decoupled weight decay, global-norm
gradient clipping, and a linear-decay-to-zero learning-rate schedule.

AdamW keeps the parameters, their gradients and both moments in four flat
arenas of one dtype, and updates them in blocks of CHUNK elements rather than
tensor by tensor. Each parameter's `Tensor.data` is a view of the params
arena, so code that changes a parameter writes into its array (`out=`);
rebinding `.data` would take the parameter out of training, and the next step
raises instead. Optimizer state round-trips through the checkpoint container
(moment tensors under "opt/m/" and "opt/v/", the step count under "opt/step")
so a resumed run continues bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW moment decays and denominator floor
CHUNK = 65536  # elements per block of the update and of the norm; scratch is one block


def linear_decay_lr(base_lr: float, step: int, total_steps: int) -> float:
    """lr at step s is base * (1 - s / total); hits zero at the final step."""
    return base_lr * (1.0 - step / total_steps)


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient in place so its L2 norm is at most max_norm, and
    return the norm before scaling. The squares are summed in float64, block by
    block."""
    squares = np.empty(min(CHUNK, grad.size), dtype=np.float64)
    total = 0.0
    for lo in range(0, grad.size, CHUNK):
        block = grad[lo:lo + CHUNK]
        sq = squares[:block.size]
        sq[...] = block
        sq *= sq
        total += float(sq.sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        grad *= grad.dtype.type(max_norm / norm)
    return norm


class AdamW:
    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0,
                 no_decay: tuple[str, ...] = ("log_tau",)):
        dtypes = {t.data.dtype for t in params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"AdamW: parameters must share one dtype, got "
                             f"{sorted(str(d) for d in dtypes)}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        # decayed tensors first: weight decay covers the arena's leading range
        names = sorted(params, key=lambda n: n in no_decay)
        self._decay_end = (sum(params[n].data.size for n in names if n not in no_decay)
                           if weight_decay > 0 else 0)
        size = sum(t.data.size for t in params.values())
        self.data, self.grad, self._m, self._v = (np.zeros(size, dtype) for _ in range(4))
        self._scratch = (np.empty(min(CHUNK, size), dtype), np.empty(min(CHUNK, size), dtype))
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._slots: list[tuple[str, Tensor, np.ndarray, np.ndarray]] = []
        lo = 0
        for name in names:
            t = params[name]
            hi = lo + t.data.size
            data, grad, self.m[name], self.v[name] = (
                a[lo:hi].reshape(t.data.shape) for a in (self.data, self.grad, self._m, self._v))
            data[...] = t.data
            t.data = data
            self._slots.append((name, t, data, grad))
            lo = hi

    def gather_grads(self) -> np.ndarray:
        """Copy each parameter's gradient into the gradient arena, point its
        `.grad` at its view there, and return the arena (to clip in place)."""
        for name, t, data, grad in self._slots:
            if t.grad is None:
                raise ValueError(f"AdamW: parameter '{name}' has no gradient")
            if t.data is not data:
                raise RuntimeError(f"AdamW: parameter '{name}' was rebound and no longer "
                                   "views the optimizer's arena; write into .data instead")
            grad[...] = t.grad
            t.grad = grad
        return self.grad

    def step(self, lr: float) -> None:
        """One update from the gathered gradients; gathers them first unless
        every parameter's `.grad` is still its view of the gradient arena."""
        if any(t.grad is not grad for _, t, _, grad in self._slots):
            self.gather_grads()
        self.step_count += 1
        dt = self.data.dtype.type
        bc1 = dt(1.0 - BETA1 ** self.step_count)
        bc2 = dt(1.0 - BETA2 ** self.step_count)
        a_buf, b_buf = self._scratch
        # per element, the operation order of
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        #   p = p - lr * (m / bc1 / (sqrt(v / bc2) + eps) + wd * p)
        for lo in range(0, self.data.size, CHUNK):
            p, g, m, v = (x[lo:lo + CHUNK] for x in (self.data, self.grad, self._m, self._v))
            a, b = a_buf[:p.size], b_buf[:p.size]
            m *= dt(BETA1)
            np.multiply(dt(1 - BETA1), g, out=a)
            m += a
            v *= dt(BETA2)
            np.multiply(g, g, out=a)
            a *= dt(1 - BETA2)
            v += a
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += dt(EPS)
            np.divide(m, bc1, out=b)
            b /= a
            decay = min(p.size, self._decay_end - lo)
            if decay > 0:
                np.multiply(dt(self.weight_decay), p[:decay], out=a[:decay])
                b[:decay] += a[:decay]
            b *= dt(lr)
            p -= b

    def state_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"opt/step": np.array(float(self.step_count))}
        for name in self.params:
            out[f"opt/m/{name}"] = self.m[name]
            out[f"opt/v/{name}"] = self.v[name]
        return out

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        if "opt/step" not in tensors:
            raise ValueError("optimizer state missing 'opt/step'")
        self.step_count = int(tensors["opt/step"])
        for name, t in self.params.items():
            for prefix, store in (("opt/m/", self.m), ("opt/v/", self.v)):
                key = prefix + name
                if key not in tensors:
                    raise ValueError(f"optimizer state missing '{key}'")
                arr = tensors[key]
                if arr.shape != t.data.shape:
                    raise ValueError(f"optimizer state '{key}' has shape {arr.shape}, "
                                     f"expected {t.data.shape}")
                store[name][...] = arr

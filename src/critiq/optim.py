"""Adaptive-moment optimizer with decoupled weight decay, global-norm
gradient clipping, and a linear-decay-to-zero learning-rate schedule.

Optimizer state round-trips through the checkpoint container (moment tensors
under "opt/m/" and "opt/v/", the step count under "opt/step") so a resumed
run continues bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor


def linear_decay_lr(base_lr: float, step: int, total_steps: int) -> float:
    """lr at step s is base * (1 - s / total); hits zero at the final step."""
    return base_lr * (1.0 - step / total_steps)


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad = t.grad * np.asarray(factor, dtype=t.grad.dtype)
    return norm


class AdamW:
    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 no_decay: tuple[str, ...] = ("log_tau",)):
        self.params = params
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.no_decay = no_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, t in self.params.items():
            if t.grad is None:
                continue
            g = t.grad
            dt = t.data.dtype.type
            # in place, but in the operation order of m = b1 * m + (1 - b1) * g: bit-identical
            m, v = self.m[name], self.v[name]
            m *= dt(self.beta1)
            m += dt(1 - self.beta1) * g
            v *= dt(self.beta2)
            v += dt(1 - self.beta2) * (g * g)
            denom = np.sqrt(v / dt(bc2))
            denom += dt(self.eps)
            update = m / dt(bc1)
            update /= denom
            if self.weight_decay > 0 and name not in self.no_decay:
                update += dt(self.weight_decay) * t.data
            update *= dt(lr)
            t.data = t.data - update

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
                store[name] = arr.astype(t.data.dtype, copy=True)

"""Adam with decoupled weight decay, the Noam learning-rate schedule, and
the one training step every trainer takes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import NonFiniteLossError
from .tensor import Tensor


@dataclass
class AdamState:
    """First/second moment accumulators, zero-initialized on first use."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              weight_decay: float = 0.0) -> None:
    """One update over every parameter that has a gradient.

    Weight decay is decoupled: parameters shrink by lr * wd * param before
    the moment-based update, so decay never enters the moments.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t

    def update(p, m, v, g, s):
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in that operation order
        s = s[:p.size]
        if weight_decay != 0.0:
            p -= np.multiply(p, np.float32(lr * weight_decay), out=s)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=s)
        v *= beta2
        v += np.multiply(np.multiply(g, g, out=s), 1.0 - beta2, out=s)
        np.sqrt(np.divide(v, bc2, out=s), out=s)
        s += eps
        p -= np.multiply(np.divide(m / bc1, s, out=s), np.float32(lr), out=s)

    for name, g in grads.items():
        if name not in params:
            raise ValueError(f"gradient for unknown parameter {name}")
        p = params[name]
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {name} {p.data.shape}"
            )
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        if m.shape != p.data.shape:
            raise ValueError(f"optimizer state shape mismatch for {name}")
        # over tiles of the flat arrays, which are views as the arrays are contiguous
        assert p.data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous
        flat = [a.reshape(-1) for a in (p.data, m, v, g)]
        T._tiled(update, m.size, (*flat, np.empty(min(m.size, T._TILE), dtype=m.dtype)))


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Pull accumulated gradients off the leaves and clear them."""
    grads = {}
    for name, p in params.items():
        if p.grad is not None:
            grads[name] = p.grad
            p.grad = None
    return grads


def train_step(params: dict[str, Tensor], loss: Tensor, state: AdamState,
               lr: float, **adam) -> float:
    """Backpropagate, apply one Adam update, return the loss; a non-finite loss raises first."""
    value = float(loss.data)
    if not math.isfinite(value):
        raise NonFiniteLossError(f"loss is {value}; no update was applied")
    T.backward(loss)
    adam_step(params, collect_grads(params), state, lr=lr, **adam)
    return value


def noam_lr(step: int, warmup_steps: int, d_model: int) -> float:
    """Linear warmup then inverse-sqrt decay; peak at step == warmup_steps."""
    if step < 1:
        raise ValueError(f"schedule step must be >= 1, got {step}")
    if warmup_steps < 1 or d_model < 1:
        raise ValueError(f"warmup_steps and d_model must be >= 1, got {warmup_steps}, {d_model}")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)

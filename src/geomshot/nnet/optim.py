"""AdamW with global-norm gradient clipping, plus the cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NonFiniteGradient
from .layers import ParamBuffer

# AdamW.step's block: its six 128 KiB slices (values, grad, m, v, two scratch) fit in a 2 MiB L2 cache.
_BLOCK = 16_384
BETA1, BETA2 = 0.9, 0.999  # Adam's moment decay rates
EPS = 1e-8  # added to the square root of the second moment


def global_grad_norm(buffer: ParamBuffer) -> float:
    # Per-tensor partial sums: one sum over the flat buffer can differ in the last bit.
    return math.sqrt(sum(float((p.grad**2).sum()) for p in buffer.params))


def clip_global_norm(buffer: ParamBuffer, max_norm: float, norm: float) -> None:
    """Scale the buffer's gradient, whose joint L2 norm is ``norm``, so that norm is at most max_norm."""
    if norm > max_norm:
        buffer.grad *= max_norm / norm


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """base_lr * 0.5 * (1 + cos(pi * epoch / total_epochs)), floored at 0."""
    if not 0 <= epoch <= total_epochs:
        raise ValueError("epoch must be in [0, total_epochs]")
    return max(base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs)), 0.0)


class AdamW:
    """Decoupled-weight-decay Adam over one parameter buffer.

    step() first verifies the gradient is finite (aborting without any
    mutation otherwise), takes the global gradient norm as a sum of
    per-tensor sums and clips by it, then runs over the buffer in blocks of
    16,384 values: the decay p *= 1 - lr*wd, then the bias-corrected Adam
    update. Every operation is elementwise, so the blocks give the bits of
    one pass over the whole buffer.
    """

    def __init__(self, buffer: ParamBuffer, lr: float, weight_decay: float, clip_norm: float | None):
        buffer.bind_grad()  # the gradient this optimizer reads: its buffer's alone
        self.buffer = buffer
        self.params = buffer.params
        self.lr = lr
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m, self._v = np.zeros_like(buffer.values), np.zeros_like(buffer.values)

    def step(self) -> float:
        """One update; returns the global gradient norm before clipping."""
        buf = self.buffer
        if not np.isfinite(buf.grad).all():
            raise NonFiniteGradient("gradient is not finite")
        norm = global_grad_norm(buf)
        if self.clip_norm is not None:
            clip_global_norm(buf, self.clip_norm, norm)
        self.step_count += 1
        t = self.step_count
        decay, bc1, bc2 = 1.0 - self.lr * self.weight_decay, 1.0 - BETA1**t, 1.0 - BETA2**t
        # Two block-sized scratch arrays, allocated per step: the forward and backward passes never hold them.
        scratch_a, scratch_b = (np.empty(min(buf.values.size, _BLOCK)) for _ in range(2))
        for start in range(0, buf.values.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            p, g, m, v = buf.values[block], buf.grad[block], self._m[block], self._v[block]
            a, b = scratch_a[:p.size], scratch_b[:p.size]
            p *= decay
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=a)
            v *= BETA2
            v += np.multiply(1.0 - BETA2, np.square(g, out=a), out=a)
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), in place in the scratch blocks
            np.multiply(self.lr, np.divide(m, bc1, out=a), out=a)
            np.sqrt(np.divide(v, bc2, out=b), out=b)
            b += EPS
            p -= np.divide(a, b, out=a)
        if not np.isfinite(buf.values).all():
            raise NonFiniteGradient("parameters became non-finite after update")
        return norm

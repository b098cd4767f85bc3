"""Adaptive-moment optimizer and the step-decay learning-rate schedule."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moments
EPS = 1e-8  # added to the root of the second moment


class Adam:
    """Standard bias-corrected adaptive moments. Weight decay is added to the
    gradient (L2 regularization), matching the common baseline recipe."""

    def __init__(self, params: list[Tensor], weight_decay: float = 0.0):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: float) -> None:
        """One update at learning rate ``lr`` of every parameter that has a
        gradient; a parameter without one is skipped."""
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data -= (lr * update).astype(p.data.dtype, copy=False)


def decayed_lr(base: float, epoch: int, period: int, factor: float) -> float:
    """Multiply ``base`` by ``factor`` once per completed ``period`` epochs."""
    if period < 1:
        return base
    return base * factor ** (epoch // period)

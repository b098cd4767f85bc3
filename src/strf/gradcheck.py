"""Finite-difference verification of reverse-mode gradients."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, EvaluationError
from .tensor import Tensor, no_grad


def grad_check(f: Callable[[Tensor], Tensor], x: np.ndarray, eps: float = 1e-5) -> float:
    """Compare the tape gradient of a scalar-valued map against central
    differences, coordinate by coordinate.

    Returns the worst relative error max_i |g_tape[i] - g_fd[i]| / max(1, |g_fd[i]|).
    ``x`` must be double precision; single precision cannot resolve the
    differences the check relies on.
    """
    x = np.asarray(x)
    if x.dtype != np.float64:
        raise ContractError(f"grad_check requires double precision input, got {x.dtype}")
    leaf = Tensor(x.copy(), requires_grad=True)
    out = f(leaf)
    if out.data.size != 1:
        raise ContractError(f"grad_check needs a scalar-valued map, got output dims {out.shape}")
    out.backward()
    analytic = leaf.grad.copy() if leaf.grad is not None else np.zeros_like(x)

    def probe(values: np.ndarray) -> float:
        with no_grad():
            result = float(f(Tensor(values)).data)
        if not np.isfinite(result):
            raise EvaluationError("grad_check map produced a non-finite value")
        return result

    worst = 0.0
    flat = x.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += eps
        hi = probe(bumped.reshape(x.shape))
        bumped[i] -= 2.0 * eps
        lo = probe(bumped.reshape(x.shape))
        fd = (hi - lo) / (2.0 * eps)
        err = abs(analytic.reshape(-1)[i] - fd) / max(1.0, abs(fd))
        if err > worst:
            worst = err
    return worst

"""Finite-difference verification of reverse-mode gradients."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, EvaluationError
from .tensor import Tensor, no_grad

COTANGENT_SEED = 7


def inner(out: Tensor, w) -> Tensor:
    """<out, w> as one tape node, for a cotangent ``w`` of ``out``'s dims.

    Its closure hands ``w`` to ``out``, so ``inner(out, w).backward()`` is
    the backward walk of ``out`` seeded with ``w``: every leaf gets Jᵀw."""
    w = np.asarray(w)
    if w.shape != out.shape:
        raise ContractError(f"a cotangent of dims {w.shape} cannot seed an output of dims {out.shape}")
    return Tensor._make(np.array(np.vdot(out.data, w)), [out], lambda g: out._accumulate(g * w, fresh=True))


def grad_check(f: Callable[[Tensor], Tensor], x: np.ndarray, eps: float = 1e-5, w=None) -> float:
    """Compare the tape's Jᵀw for a map ``f`` of any output dims against
    central differences of <f(x), w>, coordinate by coordinate.

    ``w`` defaults to a dense cotangent of f(x)'s dims, every entry of
    magnitude in [0.5, 1] with a random sign, drawn from a generator seeded
    with ``COTANGENT_SEED``, so every output is weighted and none is zero.
    Returns the worst relative error max_i |g_tape[i] - g_fd[i]| / max(1, |g_fd[i]|);
    a non-finite tape gradient reads inf. ``x`` must be double precision;
    single precision cannot resolve the differences the check relies on.
    """
    x = np.asarray(x)
    if x.dtype != np.float64:
        raise ContractError(f"grad_check requires double precision input, got {x.dtype}")
    leaf = Tensor(x.copy(), requires_grad=True)
    out = f(leaf)
    if w is None:
        rng = np.random.Generator(np.random.PCG64(COTANGENT_SEED))
        w = rng.uniform(0.5, 1.0, size=out.shape) * rng.choice((-1.0, 1.0), size=out.shape)
    inner(out, w).backward()
    analytic = (leaf.grad if leaf.grad is not None else np.zeros_like(x)).reshape(-1)
    if not np.isfinite(analytic).all():
        return float("inf")

    def probe(values: np.ndarray) -> float:
        with no_grad():
            result = float(inner(f(Tensor(values)), w).data)
        if not np.isfinite(result):
            raise EvaluationError("grad_check map produced a non-finite value")
        return result

    flat = x.reshape(-1)
    fd = np.empty(flat.size)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += eps
        hi = probe(bumped.reshape(x.shape))
        bumped[i] -= 2.0 * eps
        lo = probe(bumped.reshape(x.shape))
        fd[i] = (hi - lo) / (2.0 * eps)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)), initial=0.0))

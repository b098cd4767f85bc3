"""Factorized spatio-temporal attention over feature volumes.

A unit owns four attention branches, one per (dimension, kind) pair:
temporal/fine, temporal/coarse, spatial/fine, spatial/coarse. Each branch
reduces channels with a pointwise convolution, pools along its dimension at
its kind's resolution, and turns the pooled volume into a row-stochastic
attention mask over spatial sites via a scaled covariance:

    mask = softmax_rows(temperature * T^t T)

where T is a pooled volume flattened to (reduced_channels * time) rows by
(height * width) columns. The unit takes a batch of volumes (batch,
channels, time, height, width) and builds one mask per volume. Applying a
mask right-multiplies the flattened input volume, mixing spatial sites; a
dimension sums its fine and coarse outputs. Temporal and spatial dimensions
combine in cascade (either order) or in parallel.

Each dimension is one tape node (``ffm_branch``) with a closed-form
backward, and taped and untaped calls run the same forward. The node's
steps are array functions, each called by its module name: per kind,
``fam_mask`` runs ``conv_channel_mix``, ``kernels.pool3d``, the Gram
(written into one (sites x sites) buffer; the temperature scales a
contiguous copy of T^t, so numpy runs a plain GEMM) and ``softmax_rows`` in
that buffer; then one ``ffm_apply``. The masks of both kinds are summed
before that apply: ``F (M_fine + M_coarse)`` equals ``F M_fine + F M_coarse``
with one matrix product instead of two. Mask entries below the dtype's
smallest normal number (``np.finfo(dtype).tiny``) are flushed to 0, because
a product over subnormal entries runs up to 100x slower; a row still sums to
1 within rounding. A taped node keeps each kind's mask, T and pool winners,
and no other (sites x sites) buffer.

``StrfConfig`` is the unit's one config and checks every setting once:
``fam_mask`` takes a branch's dimension, resolution, pool mode and
temperature as plain arguments, and the reduction is the shape of its weight.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, fan_in_uniform, records, softmax_rows, softmax_rows_grad
from .kernels import POOL_MODES, check_batch, pool3d

DIMENSIONS = ("temporal", "spatial")
BRANCH_ORDER: tuple[tuple[str, str], ...] = (
    ("temporal", "fine"),
    ("temporal", "coarse"),
    ("spatial", "fine"),
    ("spatial", "coarse"),
)
INTEGRATIONS = ("temporal-then-spatial", "spatial-then-temporal", "parallel")


@dataclass(frozen=True)
class StrfConfig:
    """Configuration of a whole four-branch unit.

    ``fine`` branches pool at ``r_fine`` with ``pool_fine`` and ``coarse`` at
    ``r_coarse`` with ``pool_coarse``; resolutions are odd and the coarse one
    may not be finer than the fine one. ``branches`` selects a subset of the
    four for ablation runs, without repeats; the default keeps all.
    """

    r_fine: int = 1
    r_coarse: int = 3
    pool_fine: str = "max"
    pool_coarse: str = "max"
    integration: str = "temporal-then-spatial"
    reduction: int = 16
    temperature: float = 4.0
    branches: tuple[tuple[str, str], ...] = field(default=BRANCH_ORDER)

    def __post_init__(self):
        for name in ("r_fine", "r_coarse"):
            r = getattr(self, name)
            if r < 1 or r % 2 == 0:
                raise ConfigError(f"pooling resolution {name} must be odd and positive, got {r}")
        for name in ("pool_fine", "pool_coarse"):
            if getattr(self, name) not in POOL_MODES:
                raise ConfigError(f"{name} must be one of {POOL_MODES}, got {getattr(self, name)!r}")
        if self.reduction < 1:
            raise ConfigError(f"channel reduction must be >= 1, got {self.reduction}")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.r_coarse < self.r_fine:
            raise ConfigError(
                f"coarse resolution {self.r_coarse} may not be finer than fine resolution {self.r_fine}"
            )
        if self.integration not in INTEGRATIONS:
            raise ConfigError(f"integration must be one of {INTEGRATIONS}, got {self.integration!r}")
        ordered = tuple(b for b in BRANCH_ORDER if b in set(self.branches))
        if not ordered or len(ordered) != len(self.branches):
            raise ConfigError(f"branches must be a non-empty repeat-free subset of {BRANCH_ORDER}, got {self.branches}")
        object.__setattr__(self, "branches", ordered)

    def active_kinds(self, dimension: str) -> tuple[str, ...]:
        return tuple(k for d, k in self.branches if d == dimension)


def _check_dimension(dimension: str) -> None:
    if dimension not in DIMENSIONS:
        raise ConfigError(f"dimension must be one of {DIMENSIONS}, got {dimension!r}")


def reduced_channels(channels: int, reduction: int) -> int:
    return channels // min(reduction, channels)


def init_strf_params(
    channels: int, cfg: StrfConfig, rng: np.random.Generator, dtype=np.float32
) -> dict[tuple[str, str], Tensor]:
    """Draw the reduction weights for every active branch, uniform in
    +-sqrt(1/channels), keyed by (dimension, kind) in canonical branch order
    (the order checkpoints store them in)."""
    rows = reduced_channels(channels, cfg.reduction)
    return {branch: fan_in_uniform((rows, channels), rng, dtype) for branch in cfg.branches}


def strf_param_count(channels: int, reduction: int = 16, n_branches: int = 4) -> int:
    """Learnable scalar count of one unit: one (channels/reduction, channels)
    matrix per branch, with the reduction capped at the channel count."""
    return n_branches * channels * reduced_channels(channels, reduction)


def _check_branch(f: Tensor, weight: Tensor) -> None:
    check_batch(f)
    if weight.ndim != 2 or weight.shape[1] != f.shape[1]:
        raise ShapeError(f"branch weight dims {weight.shape} do not match the {f.shape[1]} channels of input dims {f.shape}")


def _pool_kernel(dimension: str, resolution: int) -> tuple[int, int, int]:
    _check_dimension(dimension)
    return (resolution, 1, 1) if dimension == "temporal" else (1, resolution, resolution)


def conv_channel_mix(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Pointwise (1x1x1) convolution of the batch ``x`` (n, c, t, h, w) with
    the (reduced_channels, c) ``weight``: dims (n, reduced_channels, t, h, w),
    in ``x``'s dtype."""
    n, c = x.shape[:2]
    return np.matmul(weight, x.reshape(n, c, -1)).astype(x.dtype, copy=False).reshape((n, -1) + x.shape[2:])


def fam_mask(x: np.ndarray, weight: np.ndarray, dimension: str, resolution: int, pool: str = "max",
             temperature: float = 4.0, keep: bool = False):
    """One branch's attention masks for the batch ``x`` (n, c, t, h, w):
    ``conv_channel_mix`` with the branch's (reduced_channels, c) ``weight``,
    ``pool3d`` with an odd ``resolution`` over a (r, 1, 1) kernel for the
    temporal dimension and a (1, r, r) kernel for the spatial one, T (the
    pooled volume flattened to (reduced_channels * t) x (h * w)), then
    ``softmax_rows((temperature * T)^t T)`` in the Gram's own buffer.

    Returns the masks, dims (n, sites, sites), whose rows are probability
    vectors, and, when ``keep``, the branch's backward
    ``(d_mask, need_x, need_w) -> (d_x, d_w)``, with ``d_x`` of dims
    (n, c, t*h*w) or ``None`` when not needed, and likewise ``d_w``. The
    backward holds the masks, T and the pool's winners, and ``x`` and
    ``weight``, which the caller holds anyway."""
    n = x.shape[0]
    reduced = conv_channel_mix(x, weight)
    pooled, pool_backward = pool3d(reduced, _pool_kernel(dimension, resolution), pool, keep)
    t_mat = pooled.reshape(n, -1, x.shape[3] * x.shape[4])
    # temperature * T^t as its own C-contiguous copy: numpy runs a product of
    # a buffer with its own transpose on a slower path than a plain GEMM, and
    # scaling T costs a pass over r*t x sites entries, not sites x sites
    scaled = np.multiply(t_mat.transpose(0, 2, 1), temperature, order="C")
    mask = softmax_rows(np.matmul(scaled, t_mat))
    if not keep:
        return mask, None

    def backward(d_mask: np.ndarray, need_x: bool, need_w: bool):
        d_gram = softmax_rows_grad(d_mask, mask)
        d_gram += d_gram.transpose(0, 2, 1)  # numpy buffers the overlapping operand
        d_t = np.matmul(t_mat, d_gram)
        d_t *= temperature
        d_reduced = pool_backward(d_t.reshape(pooled.shape)).reshape(n, weight.shape[0], -1)
        volume = x.reshape(n, x.shape[1], -1)
        d_w = np.matmul(d_reduced, volume.transpose(0, 2, 1)).sum(axis=0) if need_w else None
        d_x = np.matmul(weight.T, d_reduced) if need_x else None
        return d_x, d_w

    return mask, backward


def ffm_apply(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mix the spatial sites of each volume of the batch ``x``
    (n, c, t, h, w) with its (sites x sites) ``mask``: flatten to
    (c*t) x (h*w), right-multiply by the mask, restore the volume layout."""
    n, c, t, h, w = x.shape
    return np.matmul(x.reshape(n, c * t, h * w), mask).reshape(x.shape)


def ffm_branch(f: Tensor, dimension: str, cfg: StrfConfig, params: dict[tuple[str, str], Tensor]) -> Tensor:
    """Sum of the active fine/coarse attention outputs along one dimension,
    as one tape node: ``F (M_fine + M_coarse)``, with the masks summed before
    a single apply. With no active branch for the dimension, the input
    passes through.

    The backward, with F the flattened input and dY the output gradient:
    dM = F^t dY, shared by both kinds; then per kind the softmax, Gram, pool
    and channel-mix backward (``fam_mask``'s); and dF = dY (sum M)^t plus
    the mixes' input gradients. Untaped, the masks are summed into the first
    one's buffer and nothing is kept."""
    _check_dimension(dimension)
    kinds = cfg.active_kinds(dimension)
    if not kinds:
        return f
    weights = [params[(dimension, kind)] for kind in kinds]
    for weight in weights:
        _check_branch(f, weight)
    keep = records([f, *weights])
    n, c, t, h, w = f.shape
    flat = f.data.reshape(n, c * t, h * w)
    masks, backwards = [], []
    for kind, weight in zip(kinds, weights):
        resolution, pool = (cfg.r_fine, cfg.pool_fine) if kind == "fine" else (cfg.r_coarse, cfg.pool_coarse)
        mask, backward = fam_mask(f.data, weight.data, dimension, resolution, pool, cfg.temperature, keep)
        if masks and not keep:
            masks[0] += mask
        else:
            masks.append(mask)
        backwards.append(backward)
    out = ffm_apply(f.data, sum(masks[1:], masks[0]))

    def grad_fn(g: np.ndarray) -> None:
        g_flat = g.reshape(flat.shape)
        d_mask = np.matmul(flat.transpose(0, 2, 1), g_flat)
        d_x = np.matmul(g_flat, sum(masks[1:], masks[0]).transpose(0, 2, 1)) if f.requires_grad else None
        for weight, backward in zip(weights, backwards):
            d_mix, d_w = backward(d_mask, f.requires_grad, weight.requires_grad)
            if d_w is not None:
                weight._accumulate(d_w, fresh=True)
            if d_mix is not None:
                d_x += d_mix.reshape(d_x.shape)
        if d_x is not None:
            f._accumulate(d_x.reshape(f.shape), fresh=True)

    return Tensor._make(out, [f, *weights], grad_fn)


def strf_forward(f: Tensor, cfg: StrfConfig, params: dict[tuple[str, str], Tensor]) -> Tensor:
    """Run the whole unit: both dimension modules, integrated per config.

    Cascade modes feed one module's output to the other (a module with no
    active branch passes its input through); parallel sums the outputs of the
    modules with an active branch, each computed on the same input. Output
    dims always equal input dims.
    """
    if cfg.integration == "temporal-then-spatial":
        return ffm_branch(ffm_branch(f, "temporal", cfg, params), "spatial", cfg, params)
    if cfg.integration == "spatial-then-temporal":
        return ffm_branch(ffm_branch(f, "spatial", cfg, params), "temporal", cfg, params)
    parts = [ffm_branch(f, d, cfg, params) for d in DIMENSIONS if cfg.active_kinds(d)]
    return sum(parts[1:], parts[0])

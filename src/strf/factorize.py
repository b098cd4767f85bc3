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
branch sums its fine and coarse outputs. Temporal and spatial branches
combine in cascade (either order) or in parallel.

``StrfConfig`` is the unit's one config and checks every setting once:
``fam_mask`` takes a branch's dimension, resolution, pool mode and
temperature as plain arguments, and the reduction is the shape of its weight.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, matmul, softmax_rows
from .kernels import check_batch, conv_channel_mix, pool3d

DIMENSIONS = ("temporal", "spatial")
BRANCH_ORDER: tuple[tuple[str, str], ...] = (
    ("temporal", "fine"),
    ("temporal", "coarse"),
    ("spatial", "fine"),
    ("spatial", "coarse"),
)
INTEGRATIONS = ("temporal-then-spatial", "spatial-then-temporal", "parallel")
POOL_MODES = ("max", "avg")


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
    bound = float(np.sqrt(1.0 / channels))
    rows = reduced_channels(channels, cfg.reduction)
    weights = {}
    for branch in cfg.branches:
        data = rng.uniform(-bound, bound, size=(rows, channels)).astype(dtype)
        weights[branch] = Tensor(data, requires_grad=True)
    return weights


def strf_param_count(channels: int, reduction: int = 16, n_branches: int = 4) -> int:
    """Learnable scalar count of one unit: one (channels/reduction, channels)
    matrix per branch, with the reduction capped at the channel count."""
    return n_branches * channels * reduced_channels(channels, reduction)


def reshape_to_matrix(f: Tensor) -> Tensor:
    """Flatten each volume of a batch to (channels*time) x (height*width)."""
    check_batch(f)
    n, c, t, h, w = f.shape
    return f.reshape((n, c * t, h * w))


def fam_mask(
    f: Tensor, weight: Tensor, dimension: str, resolution: int, pool: str = "max", temperature: float = 4.0
) -> Tensor:
    """Compute one branch's attention mask over spatial sites.

    Returns a batch of (sites, sites) matrices whose rows are probability
    vectors, one per volume of ``f``. ``weight`` is the branch's
    (reduced_channels, channels) matrix. The reduced volume is pooled with an
    odd ``resolution``: over a (r, 1, 1) kernel for the temporal dimension and
    a (1, r, r) kernel for the spatial one.
    """
    _check_dimension(dimension)
    kernel = (resolution, 1, 1) if dimension == "temporal" else (1, resolution, resolution)
    pooled = pool3d(conv_channel_mix(f, weight), kernel, pool)
    flat = reshape_to_matrix(pooled)
    covariance = matmul(flat.transpose(0, 2, 1), flat) * temperature
    return softmax_rows(covariance)


def ffm_apply(f: Tensor, mask: Tensor) -> Tensor:
    """Mix the spatial sites of each volume of ``f`` with its attention mask
    (``mask`` holds one per volume): flatten, right-multiply by the mask,
    restore the volume layout."""
    flat = reshape_to_matrix(f)
    sites = flat.shape[-1]
    if mask.shape[-1] != sites or mask.shape[-2] != sites:
        raise ShapeError(f"mask dims {mask.shape} do not cover the {sites} spatial sites of input dims {f.shape}")
    return matmul(flat, mask).reshape(f.shape)


def ffm_branch(f: Tensor, dimension: str, cfg: StrfConfig, params: dict[tuple[str, str], Tensor]) -> Tensor:
    """Sum of the active fine/coarse attention outputs along one dimension.
    With no active branch for the dimension, the input passes through."""
    _check_dimension(dimension)
    out: Tensor | None = None
    for kind in cfg.active_kinds(dimension):
        resolution, pool = (cfg.r_fine, cfg.pool_fine) if kind == "fine" else (cfg.r_coarse, cfg.pool_coarse)
        mask = fam_mask(f, params[(dimension, kind)], dimension, resolution, pool, cfg.temperature)
        applied = ffm_apply(f, mask)
        out = applied if out is None else out + applied
    return f if out is None else out


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

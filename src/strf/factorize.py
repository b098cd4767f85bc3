"""Factorized spatio-temporal attention over feature volumes.

A unit owns four attention branches, one per (dimension, kind) pair:
temporal/fine, temporal/coarse, spatial/fine, spatial/coarse. Each branch
reduces channels with a pointwise convolution, pools along its dimension at
its kind's resolution, and turns the pooled volume into a row-stochastic
attention mask over spatial sites via a scaled covariance:

    mask = softmax_rows(temperature * T^t T)

where T is the pooled volume flattened to (reduced_channels * time) rows by
(height * width) columns. Applying a mask right-multiplies the flattened
input volume, mixing spatial sites; a branch sums its fine and coarse
outputs. Temporal and spatial branches combine in cascade (either order) or
in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, matmul, softmax_rows
from .kernels import conv_channel_mix, pool3d

DIMENSIONS = ("temporal", "spatial")
KINDS = ("fine", "coarse")
BRANCH_ORDER: tuple[tuple[str, str], ...] = (
    ("temporal", "fine"),
    ("temporal", "coarse"),
    ("spatial", "fine"),
    ("spatial", "coarse"),
)
INTEGRATIONS = ("temporal-then-spatial", "spatial-then-temporal", "parallel")
POOL_MODES = ("max", "avg")


@dataclass(frozen=True)
class FamConfig:
    """One attention branch: which dimension it pools along, at what
    resolution, with which pooling mode."""

    dimension: str
    resolution: int
    pool: str = "max"
    reduction: int = 16
    temperature: float = 4.0

    def __post_init__(self):
        if self.dimension not in DIMENSIONS:
            raise ConfigError(f"dimension must be one of {DIMENSIONS}, got {self.dimension!r}")
        if self.resolution < 1 or self.resolution % 2 == 0:
            raise ConfigError(f"pooling resolution must be odd and positive, got {self.resolution}")
        if self.pool not in POOL_MODES:
            raise ConfigError(f"pool must be one of {POOL_MODES}, got {self.pool!r}")
        if self.reduction < 1:
            raise ConfigError(f"channel reduction must be >= 1, got {self.reduction}")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")

    @property
    def kernel(self) -> tuple[int, int, int]:
        r = self.resolution
        return (r, 1, 1) if self.dimension == "temporal" else (1, r, r)


@dataclass(frozen=True)
class StrfConfig:
    """Configuration of a whole four-branch unit.

    ``fine`` branches pool at ``r_fine`` and ``coarse`` at ``r_coarse``;
    the coarse resolution may not be finer than the fine one. ``branches``
    selects a subset of the four for ablation runs; the default keeps all.
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
        # each branch config checks its own resolution, pool, reduction and temperature
        FamConfig("temporal", self.r_fine, self.pool_fine, self.reduction, self.temperature)
        FamConfig("temporal", self.r_coarse, self.pool_coarse, self.reduction, self.temperature)
        if self.r_coarse < self.r_fine:
            raise ConfigError(
                f"coarse resolution {self.r_coarse} may not be finer than fine resolution {self.r_fine}"
            )
        if self.integration not in INTEGRATIONS:
            raise ConfigError(f"integration must be one of {INTEGRATIONS}, got {self.integration!r}")
        ordered = tuple(b for b in BRANCH_ORDER if b in set(self.branches))
        if not ordered or len(ordered) != len(set(self.branches)):
            raise ConfigError(f"branches must be a non-empty subset of {BRANCH_ORDER}, got {self.branches}")
        object.__setattr__(self, "branches", ordered)

    def branch_config(self, dimension: str, kind: str) -> FamConfig:
        if kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
        resolution = self.r_fine if kind == "fine" else self.r_coarse
        pool = self.pool_fine if kind == "fine" else self.pool_coarse
        return FamConfig(dimension, resolution, pool, self.reduction, self.temperature)

    def active_kinds(self, dimension: str) -> tuple[str, ...]:
        return tuple(k for d, k in self.branches if d == dimension)


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
    """Flatten a feature volume to (channels*time) x (height*width); batched
    input gains a leading batch axis."""
    if f.ndim == 4:
        c, t, h, w = f.shape
        return f.reshape((c * t, h * w))
    if f.ndim == 5:
        n, c, t, h, w = f.shape
        return f.reshape((n, c * t, h * w))
    raise ShapeError(f"expected a rank-4 or rank-5 feature volume, got dims {f.shape}")


def fam_mask(f: Tensor, cfg: FamConfig, weight: Tensor) -> Tensor:
    """Compute one branch's attention mask over spatial sites.

    Returns a (sites, sites) matrix whose rows are probability vectors, or a
    batch of such matrices for batched input. ``weight`` must be a
    (reduced_channels, channels) matrix.
    """
    if f.ndim not in (4, 5):
        raise ShapeError(f"expected a rank-4 or rank-5 feature volume, got dims {f.shape}")
    channels = f.shape[-4]
    if weight.ndim != 2 or weight.shape[1] != channels:
        raise ShapeError(f"reduction weight dims {weight.shape} do not match input dims {f.shape}")
    reduced = conv_channel_mix(f, weight)
    pooled = pool3d(reduced, cfg.kernel, cfg.pool)
    flat = reshape_to_matrix(pooled)
    flat_t = flat.transpose() if flat.ndim == 2 else flat.transpose(0, 2, 1)
    covariance = matmul(flat_t, flat) * cfg.temperature
    return softmax_rows(covariance)


def ffm_apply(f: Tensor, mask: Tensor) -> Tensor:
    """Mix the spatial sites of ``f`` with an attention mask: flatten, right-
    multiply by the mask, restore the volume layout."""
    flat = reshape_to_matrix(f)
    sites = flat.shape[-1]
    if mask.shape[-1] != sites or mask.shape[-2] != sites:
        raise ShapeError(f"mask dims {mask.shape} do not cover the {sites} spatial sites of input dims {f.shape}")
    if flat.ndim != mask.ndim:
        raise ShapeError(f"mask dims {mask.shape} do not match the batching of input dims {f.shape}")
    return matmul(flat, mask).reshape(f.shape)


def ffm_branch(f: Tensor, dimension: str, cfg: StrfConfig, params: dict[tuple[str, str], Tensor]) -> Tensor:
    """Sum of the active fine/coarse attention outputs along one dimension.
    With no active branch for the dimension, the input passes through."""
    if dimension not in DIMENSIONS:
        raise ConfigError(f"dimension must be one of {DIMENSIONS}, got {dimension!r}")
    kinds = cfg.active_kinds(dimension)
    if not kinds:
        return f
    out: Tensor | None = None
    for kind in kinds:
        branch_cfg = cfg.branch_config(dimension, kind)
        mask = fam_mask(f, branch_cfg, params[(dimension, kind)])
        applied = ffm_apply(f, mask)
        out = applied if out is None else out + applied
    return out


def strf_forward(f: Tensor, cfg: StrfConfig, params: dict[tuple[str, str], Tensor]) -> Tensor:
    """Run the whole unit: both dimension modules, integrated per config.

    Cascade modes feed one module's output to the other; parallel sums the
    two module outputs computed on the same input. Output dims always equal
    input dims.
    """
    has_temporal = bool(cfg.active_kinds("temporal"))
    has_spatial = bool(cfg.active_kinds("spatial"))
    if cfg.integration == "temporal-then-spatial":
        mid = ffm_branch(f, "temporal", cfg, params) if has_temporal else f
        return ffm_branch(mid, "spatial", cfg, params) if has_spatial else mid
    if cfg.integration == "spatial-then-temporal":
        mid = ffm_branch(f, "spatial", cfg, params) if has_spatial else f
        return ffm_branch(mid, "temporal", cfg, params) if has_temporal else mid
    parts = []
    if has_temporal:
        parts.append(ffm_branch(f, "temporal", cfg, params))
    if has_spatial:
        parts.append(ffm_branch(f, "spatial", cfg, params))
    if not parts:
        return f
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    return out

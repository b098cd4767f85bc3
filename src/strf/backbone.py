"""Residual 3-d backbones with optional factorized attention units.

The network is a four-stage bottleneck residual net over clips
(batch, 3, time, height, width). Stage blocks come in five flavors:

  c2d    1x1x1 -> 1x3x3 -> 1x1x1 (purely spatial; never carries attention)
  i3d    1x1x1 -> 3x3x3 -> 1x1x1
  p3d-a  spatial 1x3x3 then temporal 3x1x1, in series
  p3d-b  spatial and temporal paths in parallel, summed
  p3d-c  series plus a skip from the spatial output to the block output

An attention unit, when placed, transforms the output of the temporal conv
(the 3x3x3 conv for i3d) before its batch norm. Temporal extent is never
strided; the last stage keeps spatial stride 1 so the final maps stay large.
Features are the stage-4 output pooled over space then averaged over time,
and the classifier is a plain linear map on those features.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, no_grad, relu, sqrt as tensor_sqrt, transpose, matmul
from .kernels import conv3d, strided_max_pool3d
from .factorize import StrfConfig, init_strf_params, strf_forward

BLOCK_VARIANTS = ("c2d", "i3d", "p3d-a", "p3d-b", "p3d-c")


# -- layers ------------------------------------------------------------------


class Conv3dLayer:
    def __init__(self, in_channels, out_channels, kernel, stride, rng, dtype):
        fan_in = in_channels * int(np.prod(kernel))
        bound = float(np.sqrt(1.0 / fan_in))
        data = rng.uniform(-bound, bound, size=(out_channels, in_channels) + tuple(kernel))
        self.weight = Tensor(data.astype(dtype), requires_grad=True)
        self.stride = tuple(stride)

    def __call__(self, x: Tensor) -> Tensor:
        return conv3d(x, self.weight, self.stride, "same")


class BatchNorm3dLayer:
    """Per-channel normalization over (batch, time, height, width)."""

    def __init__(self, channels, dtype, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        shape = (1, self.gamma.size, 1, 1, 1)
        if training:
            mu = x.mean(axis=(0, 2, 3, 4), keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=(0, 2, 3, 4), keepdims=True)
            self.running_mean += self.momentum * (mu.data.reshape(-1) - self.running_mean)
            self.running_var += self.momentum * (var.data.reshape(-1) - self.running_var)
            normed = centered / tensor_sqrt(var + self.eps)
        else:
            denom = np.sqrt(self.running_var + self.eps).reshape(shape)
            normed = (x - self.running_mean.reshape(shape)) / denom
        return normed * self.gamma.reshape(shape) + self.beta.reshape(shape)


class LinearLayer:
    def __init__(self, in_features, out_features, rng, dtype):
        bound = float(np.sqrt(1.0 / in_features))
        data = rng.uniform(-bound, bound, size=(out_features, in_features))
        self.weight = Tensor(data.astype(dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, transpose(self.weight))


# -- blocks ------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """One bottleneck residual block. The bottleneck width is always a
    quarter of the output width."""

    variant: str
    in_channels: int
    out_channels: int
    spatial_stride: int = 1
    strf: StrfConfig | None = None

    def __post_init__(self):
        if self.variant not in BLOCK_VARIANTS:
            raise ConfigError(f"block variant must be one of {BLOCK_VARIANTS}, got {self.variant!r}")
        if self.out_channels % 4 != 0:
            raise ConfigError(f"block output width must be divisible by 4, got {self.out_channels}")
        if self.spatial_stride < 1:
            raise ConfigError(f"spatial stride must be >= 1, got {self.spatial_stride}")
        if self.variant == "c2d" and self.strf is not None:
            raise ConfigError("c2d blocks have no temporal conv and cannot carry an attention unit")

    @property
    def mid_channels(self) -> int:
        return self.out_channels // 4


class Bottleneck:
    def __init__(self, spec: BlockSpec, rng, dtype, registry, prefix: str):
        self.spec = spec
        mid = spec.mid_channels
        s = spec.spatial_stride
        reg_p = registry.add_param

        self.conv1 = Conv3dLayer(spec.in_channels, mid, (1, 1, 1), (1, 1, 1), rng, dtype)
        self.bn1 = _register_bn(registry, f"{prefix}.bn1", BatchNorm3dLayer(mid, dtype))
        reg_p(f"{prefix}.conv1.w", self.conv1.weight)

        self.strf_params: dict[tuple[str, str], Tensor] | None = None
        if spec.variant == "c2d":
            self.conv2 = Conv3dLayer(mid, mid, (1, 3, 3), (1, s, s), rng, dtype)
            self.bn2 = _register_bn(registry, f"{prefix}.bn2", BatchNorm3dLayer(mid, dtype))
            reg_p(f"{prefix}.conv2.w", self.conv2.weight)
        elif spec.variant == "i3d":
            self.conv2 = Conv3dLayer(mid, mid, (3, 3, 3), (1, s, s), rng, dtype)
            reg_p(f"{prefix}.conv2.w", self.conv2.weight)
            self._register_strf(spec, mid, rng, dtype, registry, prefix)
            self.bn2 = _register_bn(registry, f"{prefix}.bn2", BatchNorm3dLayer(mid, dtype))
        else:
            self.conv_spatial = Conv3dLayer(mid, mid, (1, 3, 3), (1, s, s), rng, dtype)
            self.bn_spatial = _register_bn(registry, f"{prefix}.bn_spatial", BatchNorm3dLayer(mid, dtype))
            reg_p(f"{prefix}.conv_spatial.w", self.conv_spatial.weight)
            # p3d-b runs the temporal conv on the block input in parallel, so
            # it must carry the spatial stride itself to stay summable
            t_stride = (1, s, s) if spec.variant == "p3d-b" else (1, 1, 1)
            self.conv_temporal = Conv3dLayer(mid, mid, (3, 1, 1), t_stride, rng, dtype)
            reg_p(f"{prefix}.conv_temporal.w", self.conv_temporal.weight)
            self._register_strf(spec, mid, rng, dtype, registry, prefix)
            self.bn_temporal = _register_bn(registry, f"{prefix}.bn_temporal", BatchNorm3dLayer(mid, dtype))

        self.conv3 = Conv3dLayer(mid, spec.out_channels, (1, 1, 1), (1, 1, 1), rng, dtype)
        self.bn3 = _register_bn(registry, f"{prefix}.bn3", BatchNorm3dLayer(spec.out_channels, dtype))
        reg_p(f"{prefix}.conv3.w", self.conv3.weight)

        self.shortcut = None
        if spec.in_channels != spec.out_channels or s != 1:
            self.shortcut = Conv3dLayer(spec.in_channels, spec.out_channels, (1, 1, 1), (1, s, s), rng, dtype)
            self.shortcut_bn = _register_bn(
                registry, f"{prefix}.shortcut.bn", BatchNorm3dLayer(spec.out_channels, dtype)
            )
            reg_p(f"{prefix}.shortcut.conv.w", self.shortcut.weight)

    def _register_strf(self, spec, mid, rng, dtype, registry, prefix):
        if spec.strf is None:
            return
        self.strf_params = init_strf_params(mid, spec.strf, rng, dtype)
        for (dimension, kind), weight in self.strf_params.items():
            registry.add_param(f"{prefix}.strf.{dimension}_{kind}.w", weight)

    def _attend(self, x: Tensor) -> Tensor:
        if self.strf_params is None:
            return x
        return strf_forward(x, self.spec.strf, self.strf_params)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = relu(self.bn1(self.conv1(x), training))
        variant = self.spec.variant
        if variant == "c2d":
            y = relu(self.bn2(self.conv2(y), training))
        elif variant == "i3d":
            y = relu(self.bn2(self._attend(self.conv2(y)), training))
        elif variant == "p3d-a":
            y = relu(self.bn_spatial(self.conv_spatial(y), training))
            y = relu(self.bn_temporal(self._attend(self.conv_temporal(y)), training))
        elif variant == "p3d-b":
            spatial = relu(self.bn_spatial(self.conv_spatial(y), training))
            temporal = relu(self.bn_temporal(self._attend(self.conv_temporal(y)), training))
            y = spatial + temporal
        else:  # p3d-c
            spatial = relu(self.bn_spatial(self.conv_spatial(y), training))
            temporal = relu(self.bn_temporal(self._attend(self.conv_temporal(spatial)), training))
            y = spatial + temporal
        y = self.bn3(self.conv3(y), training)
        skip = x if self.shortcut is None else self.shortcut_bn(self.shortcut(x), training)
        return relu(y + skip)


def _register_bn(registry, prefix: str, bn: BatchNorm3dLayer) -> BatchNorm3dLayer:
    registry.add_param(f"{prefix}.gamma", bn.gamma)
    registry.add_param(f"{prefix}.beta", bn.beta)
    registry.add_buffer(f"{prefix}.running_mean", bn.running_mean)
    registry.add_buffer(f"{prefix}.running_var", bn.running_var)
    return bn


def build_block(spec: BlockSpec, seed: int = 0, dtype=np.float32) -> Bottleneck:
    """Standalone block constructor, mainly for tests and gradient checks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Bottleneck(spec, rng, dtype, _Registry(), "block")


# -- network -----------------------------------------------------------------


@dataclass(frozen=True)
class StageSpec:
    blocks: int
    width: int
    variant: str = "c2d"
    strf: bool = False

    def __post_init__(self):
        if self.blocks < 1:
            raise ConfigError(f"a stage needs at least one block, got {self.blocks}")
        if self.strf and self.variant == "c2d":
            raise ConfigError("attention units require a temporal conv; pick a p3d or i3d variant")


@dataclass(frozen=True)
class NetworkSpec:
    """Four-stage residual network layout.

    Spatial strides are fixed at (1, 2, 2, 1) across the stages: the final
    stage never downsamples, keeping its maps fine-grained. The feature
    dimension equals the last stage width.
    """

    classes: int
    stages: tuple[StageSpec, StageSpec, StageSpec, StageSpec]
    stem_width: int = 64
    strf_cfg: StrfConfig = field(default_factory=StrfConfig)

    def __post_init__(self):
        if self.classes < 1:
            raise ConfigError(f"class count must be >= 1, got {self.classes}")
        if len(self.stages) != 4:
            raise ConfigError(f"expected exactly 4 stage specs, got {len(self.stages)}")

    @property
    def feature_dim(self) -> int:
        return self.stages[3].width


STAGE_STRIDES = (1, 2, 2, 1)


def resnet50_spec(
    classes: int,
    variant: str = "p3d-c",
    strf_stages: tuple[int, ...] = (2, 3),
    variant_stages: tuple[int, ...] = (2, 3),
    width_div: int = 1,
    blocks: tuple[int, int, int, int] = (3, 4, 6, 3),
    strf_cfg: StrfConfig | None = None,
) -> NetworkSpec:
    """The standard 50-layer layout, optionally width-divided for desk-scale
    runs. ``variant_stages`` pick which stages use the 3-d block flavor
    (1-based); attention goes to ``strf_stages``, which must be a subset."""
    if variant not in BLOCK_VARIANTS:
        raise ConfigError(f"variant must be one of {BLOCK_VARIANTS}, got {variant!r}")
    if width_div < 1:
        raise ConfigError(f"width divisor must be >= 1, got {width_div}")
    if len(blocks) != 4:
        raise ConfigError(f"blocks must list 4 stage depths, got {blocks}")
    widths = (256, 512, 1024, 2048)
    for width in widths + (64,):
        if width % (width_div * 4) != 0:
            raise ConfigError(f"width divisor {width_div} does not divide the stage widths evenly")
    promoted = tuple(sorted(set(variant_stages) | set(strf_stages)))
    for stage in promoted:
        if stage not in (1, 2, 3, 4):
            raise ConfigError(f"stage numbers are 1..4, got {stage}")
    stages = tuple(
        StageSpec(
            blocks=blocks[i],
            width=widths[i] // width_div,
            variant=variant if (i + 1) in promoted else "c2d",
            strf=(i + 1) in strf_stages,
        )
        for i in range(4)
    )
    return NetworkSpec(
        classes=classes,
        stages=stages,
        stem_width=64 // width_div,
        strf_cfg=strf_cfg if strf_cfg is not None else StrfConfig(),
    )


class _Registry:
    def __init__(self):
        self.params: list[tuple[str, Tensor]] = []
        self.buffers: list[tuple[str, np.ndarray]] = []

    def add_param(self, name: str, tensor: Tensor) -> None:
        self.params.append((name, tensor))

    def add_buffer(self, name: str, array: np.ndarray) -> None:
        self.buffers.append((name, array))


class Network:
    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float32):
        self.spec = spec
        self.training = True
        self.captured: dict[int, np.ndarray] = {}
        registry = _Registry()
        rng = np.random.Generator(np.random.PCG64(seed))

        self.stem_conv = Conv3dLayer(3, spec.stem_width, (1, 7, 7), (1, 2, 2), rng, dtype)
        registry.add_param("stem.conv.w", self.stem_conv.weight)
        self.stem_bn = _register_bn(registry, "stem.bn", BatchNorm3dLayer(spec.stem_width, dtype))

        self.stages: list[list[Bottleneck]] = []
        in_channels = spec.stem_width
        for stage_idx, stage in enumerate(spec.stages):
            stage_blocks = []
            for block_idx in range(stage.blocks):
                block_spec = BlockSpec(
                    variant=stage.variant,
                    in_channels=in_channels,
                    out_channels=stage.width,
                    spatial_stride=STAGE_STRIDES[stage_idx] if block_idx == 0 else 1,
                    strf=spec.strf_cfg if stage.strf else None,
                )
                prefix = f"stage{stage_idx + 1}.block{block_idx + 1}"
                stage_blocks.append(Bottleneck(block_spec, rng, dtype, registry, prefix))
                in_channels = stage.width
            self.stages.append(stage_blocks)

        self.classifier = LinearLayer(spec.feature_dim, spec.classes, rng, dtype)
        registry.add_param("classifier.w", self.classifier.weight)

        self._params = registry.params
        self._buffers = registry.buffers

    # -- modes and parameters -------------------------------------------

    def set_train(self, flag: bool) -> None:
        self.training = bool(flag)

    def named_params(self) -> list[tuple[str, Tensor]]:
        return list(self._params)

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return list(self._buffers)

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self._params]

    # -- forward ----------------------------------------------------------

    def forward(self, clips: Tensor, capture: tuple[int, ...] = ()) -> tuple[Tensor, Tensor]:
        """Run clips (batch, 3, time, height, width) through the network.
        Returns (features, logits). Stage outputs listed in ``capture``
        (1-based) are stored in ``self.captured`` as plain arrays."""
        if clips.ndim != 5 or clips.shape[1] != 3:
            raise ShapeError(f"expected clips of dims (n, 3, t, h, w), got {clips.shape}")
        self.captured = {}
        x = relu(self.stem_bn(self.stem_conv(clips), self.training))
        x = strided_max_pool3d(x, (1, 3, 3), (1, 2, 2))
        for stage_idx, stage_blocks in enumerate(self.stages):
            for block in stage_blocks:
                x = block(x, self.training)
            if (stage_idx + 1) in capture:
                self.captured[stage_idx + 1] = x.data
        features = x.mean(axis=(3, 4)).mean(axis=2)
        logits = self.classifier(features)
        return features, logits


def forward_features(net: Network, clips) -> np.ndarray:
    """Inference-mode embedding extraction: no gradient tape, no batch-norm
    statistics updates."""
    was_training = net.training
    net.set_train(False)
    try:
        with no_grad():
            features, _ = net.forward(clips if isinstance(clips, Tensor) else Tensor(clips))
    finally:
        net.set_train(was_training)
    return features.data.copy()


def count_params(net: Network) -> tuple[list[tuple[str, tuple[int, ...], int]], int]:
    """Per-parameter rows (name, dims, count) plus the learnable total.
    Batch-norm running statistics are buffers and are excluded."""
    rows = [(name, tensor.shape, tensor.size) for name, tensor in net.named_params()]
    return rows, sum(count for _, _, count in rows)


def attention_energy_maps(activation: np.ndarray) -> np.ndarray:
    """Collapse a (channels, time, height, width) activation into per-frame
    energy maps scaled to [0, 1]. A frame with no dynamic range maps to 0."""
    energy = np.square(activation).sum(axis=0)
    maps = np.zeros_like(energy)
    for frame in range(energy.shape[0]):
        lo = energy[frame].min()
        hi = energy[frame].max()
        span = hi - lo
        if span > 0:
            maps[frame] = (energy[frame] - lo) / span
    return maps


def attention_export(net: Network, clip, stage: int) -> np.ndarray:
    """Per-frame [0, 1] energy maps of one stage's output for a single clip
    (3, time, height, width)."""
    if stage not in (1, 2, 3, 4):
        raise ConfigError(f"stage must be 1..4, got {stage}")
    arr = clip.data if isinstance(clip, Tensor) else np.asarray(clip, dtype=np.float32)
    if arr.ndim != 4 or arr.shape[0] != 3:
        raise ShapeError(f"expected one clip of dims (3, t, h, w), got {arr.shape}")
    was_training = net.training
    net.set_train(False)
    try:
        with no_grad():
            net.forward(Tensor(arr[None]), capture=(stage,))
    finally:
        net.set_train(was_training)
    return attention_energy_maps(net.captured[stage][0])

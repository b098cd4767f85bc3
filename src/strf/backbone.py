"""Residual 3-d backbones with optional factorized attention units.

The network is a four-stage bottleneck residual net over clips
(batch, 3, time, height, width). Stage blocks come in five flavors:

  c2d    1x1x1 -> 1x3x3 -> 1x1x1 (purely spatial; never carries attention)
  i3d    1x1x1 -> 3x3x3 -> 1x1x1
  p3d-a  spatial 1x3x3 then temporal 3x1x1, in series
  p3d-b  spatial and temporal paths in parallel, summed
  p3d-c  series plus a skip from the spatial output to the block output

Every conv is a ``ConvBn``: the conv, the attention unit it may carry, and
the batch norm after it. A unit, when placed, sits between the temporal conv
(the 3x3x3 conv for i3d) and its batch norm. Each layer lists its own
entries: a pair its conv weight, then the unit's weights, then the batch
norm's; a block its pairs in draw order; the network the stem's, every
block's and the classifier's, which is what checkpoints store. Temporal extent
is never strided; the last stage keeps spatial stride 1 so the final maps
stay large. The head is two tape nodes: the features (``clip_features``) are
the stage-4 output pooled over space then averaged over time, and the
classifier (``LinearLayer``) is a plain linear map on those features.

Every batch norm but the shortcut's also applies the epilogue that follows
it: relu(bn(x)), or relu(bn(x) + skip) at the end of a block. Each is one
tape node with one output buffer, in training and in an unfolded eval.

A network loaded for retrieval is folded once (``fold_batch_norm``): every
pair without a unit then runs its eval batch norm inside the conv, as the
weight W * scale and the bias beta - mean * scale (Jacob et al.,
arXiv:1712.05877), and adds the bias, the skip and the relu in place in the
conv's output buffer, with no tape node. A folded network runs inference
only. The batch norm after a unit cannot fold and runs as before.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, fan_in_uniform, no_grad, records
from .kernels import conv3d, strided_max_pool3d
from .factorize import StrfConfig, init_strf_params, strf_forward

BLOCK_VARIANTS = ("c2d", "i3d", "p3d-a", "p3d-b", "p3d-c")


# -- layers ------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0) written over ``x``, which it returns; a NaN stays NaN. The
    one relu of every epilogue, batch norm's and the folded conv's."""
    return np.maximum(x, 0, out=x)


class BatchNorm3dLayer:
    """Per-channel normalization over (batch, time, height, width), fused
    with the block epilogue that follows it: an optional residual ``skip``
    added to the normalized values and, for a layer built with
    ``relu=True``, a relu. Either way the layer is one tape node with one
    output buffer; only the shortcut's batch norm is built without the
    relu."""

    def __init__(self, channels, dtype, momentum: float = 0.1, eps: float = 1e-5, relu: bool = False):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps
        self.relu = relu

    def __call__(self, x: Tensor, training: bool, skip: Tensor | None = None) -> Tensor:
        """One tape node in both modes: ``(x - mean) * scale + beta`` per
        channel, with ``scale = gamma / sqrt(var + eps)``, then ``+ skip``,
        then the relu in place. Training uses the batch statistics (biased
        variance) and updates the running ones; eval uses a copy of the
        running ones, so a later training call cannot change them under a
        pending backward. The backward recovers the relu's mask from the
        output (``out > 0``), so no pre-activation buffer is kept; a NaN
        stays NaN through the relu."""
        n, c = x.shape[:2]
        flat = x.data.reshape(n, c, -1)
        count = flat.size // c
        if training:
            mean = np.einsum("ncs->c", flat) / count
            out = flat - mean[:, None]
            var = np.einsum("ncs,ncs->c", out, out) / count
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean.copy(), self.running_var
            out = flat - mean[:, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        scale = self.gamma.data * inv_std
        out *= scale[:, None]
        out += self.beta.data[:, None]
        out = out.reshape(x.shape)
        if skip is not None:
            out += skip.data
        if self.relu:
            relu(out)
        gamma, beta, rectified = self.gamma, self.beta, self.relu

        def grad_fn(g: np.ndarray) -> None:
            if rectified:
                g = g * (out > 0)  # subgradient 0 exactly at the kink
            if skip is not None and skip.requires_grad:
                skip._accumulate(g)
            g = g.reshape(flat.shape)
            x_hat = flat - mean[:, None]
            x_hat *= inv_std[:, None]
            d_beta = np.einsum("ncs->c", g)
            d_gamma = np.einsum("ncs,ncs->c", g, x_hat)
            if x.requires_grad:
                if training:
                    # the batch mean and variance depend on x too:
                    # dx = scale * (g - d_beta / M - x_hat * d_gamma / M), in x_hat's buffer
                    dx = x_hat
                    dx *= (-d_gamma / count)[:, None]
                    dx += g
                    dx -= (d_beta / count)[:, None]
                    dx *= scale[:, None]
                else:
                    dx = g * scale[:, None]
                x._accumulate(dx.reshape(x.shape), fresh=True)
            if gamma.requires_grad:
                gamma._accumulate(d_gamma, fresh=True)
            if beta.requires_grad:
                beta._accumulate(d_beta, fresh=True)

        parents = [x, gamma, beta] + ([skip] if skip is not None else [])
        return Tensor._make(out, parents, grad_fn)


class ConvBn:
    """One conv and the fused batch norm after it, with the attention unit
    between them when given a ``StrfConfig``. Weights are drawn conv first,
    then the unit's. ``params`` lists the pair's (name, tensor) entries:
    ``{prefix}.conv{suffix}.w``, the unit's ``{prefix}.strf.*`` in branch
    order, then ``{prefix}.bn{suffix}.gamma`` and ``.beta``; ``buffers``
    lists the batch norm's running mean and variance.

    ``folded`` is None, or, once ``fold_batch_norm`` has run on a pair
    without a unit, the derived (weight, bias) its eval call uses in place
    of the conv weight and the batch norm; the listed parameters and
    buffers are left as they are."""

    def __init__(self, prefix: str, suffix: str, in_channels, out_channels, kernel, stride,
                 rng, dtype, relu: bool = True, strf: StrfConfig | None = None):
        self.weight = fan_in_uniform((out_channels, in_channels) + tuple(kernel), rng, dtype)
        self.stride = tuple(stride)
        self.params = [(f"{prefix}.conv{suffix}.w", self.weight)]
        self.strf, self.strf_params = strf, None
        if strf is not None:
            self.strf_params = init_strf_params(out_channels, strf, rng, dtype)
            self.params += [(f"{prefix}.strf.{d}_{k}.w", w) for (d, k), w in self.strf_params.items()]
        self.bn = BatchNorm3dLayer(out_channels, dtype, relu=relu)
        bn = f"{prefix}.bn{suffix}"
        self.params += [(f"{bn}.gamma", self.bn.gamma), (f"{bn}.beta", self.bn.beta)]
        self.buffers = [(f"{bn}.running_mean", self.bn.running_mean), (f"{bn}.running_var", self.bn.running_var)]
        self.folded = None

    def __call__(self, x: Tensor, training: bool, skip: Tensor | None = None) -> Tensor:
        # conv3d, relu and strf_forward are module lookups: perfbench's tracer patches them here
        if self.folded is not None:
            if training or records([x]):
                raise ContractError("a network folded for retrieval runs inference only, with no tape")
            weight, bias = self.folded
            y = conv3d(x, weight, self.stride)
            y.data += bias
            if skip is not None:
                y.data += skip.data
            if self.bn.relu:
                relu(y.data)
            return y
        y = conv3d(x, self.weight, self.stride)
        if self.strf_params is not None:
            y = strf_forward(y, self.strf, self.strf_params)
        return self.bn(y, training, skip)


def clip_features(x: Tensor) -> Tensor:
    """The head's features of a (batch, channels, time, height, width) map,
    its mean over space and then over time, as one tape node whose backward
    runs the float ops of the two means' backwards in the same order."""
    t, space = x.shape[2], x.shape[3] * x.shape[4]

    def grad_fn(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to((g / t)[:, :, None, None, None], x.shape) / space, fresh=True)

    return Tensor._make(x.data.mean(axis=(3, 4)).mean(axis=2), [x], grad_fn)


class LinearLayer:
    """The classifier ``x @ weightᵀ`` as one tape node, for a weight of dims
    (classes, features)."""

    def __init__(self, weight: Tensor):
        self.weight = weight

    def __call__(self, x: Tensor) -> Tensor:
        weight = self.weight

        def grad_fn(g: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(g @ weight.data, fresh=True)
            if weight.requires_grad:
                # a transposed view of a fresh product: _accumulate copies it
                weight._accumulate((x.data.T @ g).T)

        return Tensor._make(x.data @ weight.data.T, [x, weight], grad_fn)


# -- blocks ------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """One bottleneck residual block. The bottleneck width is always a
    quarter of the output width; only a block with a temporal conv (any
    variant but c2d) can carry an attention unit."""

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
    """``pairs`` lists the block's ``ConvBn``s in the order their weights
    are drawn: conv1, conv2 or the spatial then the temporal conv, conv3,
    then the shortcut's if the block has one."""

    def __init__(self, spec: BlockSpec, rng, dtype, prefix: str):
        self.spec = spec
        mid = spec.mid_channels
        s = spec.spatial_stride
        self.pairs: list[ConvBn] = []

        def pair(suffix, cin, cout, kernel, stride, at=prefix, **kw):
            self.pairs.append(ConvBn(at, suffix, cin, cout, kernel, stride, rng, dtype, **kw))
            return self.pairs[-1]

        self.conv1 = pair("1", spec.in_channels, mid, (1, 1, 1), (1, 1, 1))
        if spec.variant in ("c2d", "i3d"):
            kt = 3 if spec.variant == "i3d" else 1
            self.conv2 = pair("2", mid, mid, (kt, 3, 3), (1, s, s), strf=spec.strf)
        else:
            self.conv_spatial = pair("_spatial", mid, mid, (1, 3, 3), (1, s, s))
            # p3d-b runs the temporal conv on the block input in parallel, so
            # it must carry the spatial stride itself to stay summable
            t_stride = (1, s, s) if spec.variant == "p3d-b" else (1, 1, 1)
            self.conv_temporal = pair("_temporal", mid, mid, (3, 1, 1), t_stride, strf=spec.strf)
        self.conv3 = pair("3", mid, spec.out_channels, (1, 1, 1), (1, 1, 1))

        self.shortcut = None
        if spec.in_channels != spec.out_channels or s != 1:
            self.shortcut = pair("", spec.in_channels, spec.out_channels, (1, 1, 1), (1, s, s),
                                 at=f"{prefix}.shortcut", relu=False)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = self.conv1(x, training)
        variant = self.spec.variant
        if variant in ("c2d", "i3d"):
            y = self.conv2(y, training)
        elif variant == "p3d-a":
            y = self.conv_temporal(self.conv_spatial(y, training), training)
        elif variant == "p3d-b":
            y = self.conv_spatial(y, training) + self.conv_temporal(y, training)
        else:  # p3d-c
            spatial = self.conv_spatial(y, training)
            y = spatial + self.conv_temporal(spatial, training)
        skip = x if self.shortcut is None else self.shortcut(x, training)
        return self.conv3(y, training, skip)


def build_block(spec: BlockSpec, seed: int = 0, dtype=np.float32) -> Bottleneck:
    """Standalone block constructor, mainly for tests and gradient checks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Bottleneck(spec, rng, dtype, "block")


# -- network -----------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSpec:
    """Four-stage residual network layout: each stage's blocks in order. The
    stem feeds the first block, so its width is that block's input width; the
    feature dimension equals the last block's output width.
    """

    classes: int
    stages: tuple[tuple[BlockSpec, ...], ...]

    def __post_init__(self):
        if self.classes < 1:
            raise ConfigError(f"class count must be >= 1, got {self.classes}")

    @property
    def stem_width(self) -> int:
        return self.stages[0][0].in_channels

    @property
    def feature_dim(self) -> int:
        return self.stages[-1][-1].out_channels


STAGE_STRIDES = (1, 2, 2, 1)


def resnet50_spec(
    classes: int,
    variant: str = "p3d-c",
    strf_stages: tuple[int, ...] = (2, 3),
    variant_stages: tuple[int, ...] = (2, 3),
    width_div: int = 1,
    blocks: tuple[int, int, int, int] = (3, 4, 6, 3),
    strf_cfg: StrfConfig = StrfConfig(),
) -> NetworkSpec:
    """The standard 50-layer layout, optionally width-divided for desk-scale
    runs, as one ``BlockSpec`` per block. Stage widths are 256, 512, 1024 and
    2048; each stage's first block takes the previous width and the stage's
    spatial stride (1, 2, 2, 1), the rest keep stride 1. ``variant_stages``
    pick which stages use the 3-d block flavor (1-based); every block of the
    ``strf_stages`` is promoted too and carries a ``strf_cfg`` unit."""
    if variant not in BLOCK_VARIANTS:
        raise ConfigError(f"variant must be one of {BLOCK_VARIANTS}, got {variant!r}")
    if width_div < 1:
        raise ConfigError(f"width divisor must be >= 1, got {width_div}")
    if len(blocks) != 4 or min(blocks) < 1:
        raise ConfigError(f"blocks must list 4 stage depths >= 1, got {blocks}")
    widths = (256, 512, 1024, 2048)
    for width in widths + (64,):
        if width % (width_div * 4) != 0:
            raise ConfigError(f"width divisor {width_div} does not divide the stage widths evenly")
    promoted = set(variant_stages) | set(strf_stages)
    for stage in promoted:
        if stage not in (1, 2, 3, 4):
            raise ConfigError(f"stage numbers are 1..4, got {stage}")
    in_channels, stages = 64 // width_div, []
    for stage, (depth, width, stride) in enumerate(zip(blocks, widths, STAGE_STRIDES), start=1):
        stage_blocks = []
        for block in range(depth):
            stage_blocks.append(BlockSpec(
                variant=variant if stage in promoted else "c2d",
                in_channels=in_channels,
                out_channels=width // width_div,
                spatial_stride=stride if block == 0 else 1,
                strf=strf_cfg if stage in strf_stages else None,
            ))
            in_channels = width // width_div
        stages.append(tuple(stage_blocks))
    return NetworkSpec(classes=classes, stages=tuple(stages))


class Network:
    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float32):
        self.spec = spec
        rng = np.random.Generator(np.random.PCG64(seed))
        self.stem = ConvBn("stem", "", 3, spec.stem_width, (1, 7, 7), (1, 2, 2), rng, dtype)
        self.stages = [
            [
                Bottleneck(block, rng, dtype, f"stage{i}.block{j}")
                for j, block in enumerate(stage, start=1)
            ]
            for i, stage in enumerate(spec.stages, start=1)
        ]
        self.classifier = LinearLayer(fan_in_uniform((spec.classes, spec.feature_dim), rng, dtype))

    # -- parameters -------------------------------------------------------

    def conv_bns(self) -> list[ConvBn]:
        """Every conv + batch-norm pair: the stem's, then each block's."""
        return [self.stem] + [pair for stage in self.stages for block in stage for pair in block.pairs]

    def named_params(self) -> list[tuple[str, Tensor]]:
        """Every pair's entries in ``conv_bns`` order, then ``classifier.w``."""
        entries = [entry for pair in self.conv_bns() for entry in pair.params]
        return entries + [("classifier.w", self.classifier.weight)]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return [entry for pair in self.conv_bns() for entry in pair.buffers]

    # -- forward ----------------------------------------------------------

    def stage_output(self, clips: Tensor, training: bool, stage: int) -> Tensor:
        """Run clips (batch, 3, time, height, width) through the stem and
        stages ``1..stage`` and return that stage's output; later stages do
        not run. ``training`` selects batch or running statistics in every
        batch norm, and only training updates the running ones."""
        if clips.ndim != 5 or clips.shape[1] != 3:
            raise ShapeError(f"expected clips of dims (n, 3, t, h, w), got {clips.shape}")
        x = self.stem(clips, training)
        x = strided_max_pool3d(x, (1, 3, 3), (1, 2, 2))
        for stage_blocks in self.stages[:stage]:
            for block in stage_blocks:
                x = block(x, training)
        return x

    def forward(self, clips: Tensor, training: bool) -> tuple[Tensor, Tensor]:
        """Run clips (batch, 3, time, height, width) through every stage.
        Returns (features, logits)."""
        x = self.stage_output(clips, training, len(self.stages))
        features = clip_features(x)
        logits = self.classifier(features)
        return features, logits


def fold_batch_norm(net: Network) -> None:
    """Fold each eval batch norm into the conv before it, for every
    ``ConvBn`` of ``net`` without an attention unit: the folded weight is
    W * scale per output channel and the bias beta - mean * scale, with
    scale = gamma / sqrt(running_var + eps), computed in float64 and cast
    once to the weight's dtype. Entries below ``np.finfo(dtype).tiny`` in
    magnitude are flushed to 0, as the unit's masks are, so no subnormal
    reaches a GEMM. The parameters and buffers are not touched, so a
    checkpoint of ``net`` is unchanged; but ``net`` can no longer train, and
    a later change to its weights or statistics is not seen by the fold."""
    for pair in net.conv_bns():
        if pair.strf_params is not None:
            continue
        bn, dtype = pair.bn, pair.weight.dtype
        scale = bn.gamma.data.astype(np.float64) / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
        weight = pair.weight.data * scale[:, None, None, None, None]
        bias = (bn.beta.data - bn.running_mean * scale)[:, None, None, None]
        tiny = np.finfo(dtype).tiny
        for derived in (weight, bias):
            derived[np.abs(derived) < tiny] = 0.0
        pair.folded = (Tensor(weight.astype(dtype)), bias.astype(dtype))


def forward_features(net: Network, clips) -> np.ndarray:
    """Inference-mode embedding extraction: no gradient tape, no batch-norm
    statistics updates."""
    with no_grad():
        features, _ = net.forward(clips if isinstance(clips, Tensor) else Tensor(clips), training=False)
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
    with no_grad():
        activation = net.stage_output(Tensor(arr[None]), training=False, stage=stage)
    return attention_energy_maps(activation.data[0])

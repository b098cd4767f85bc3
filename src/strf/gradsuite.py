"""The curated gradient-check suite the CLI runs.

Every entry builds a scalar-valued map in double precision and compares the
tape gradient against central differences. Inputs are drawn from seeded
generators and spread apart slightly so no max-pool or hinge sits within a
finite-difference step of a tie.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, matmul, softmax_rows
from .kernels import conv3d, conv_channel_mix, pool3d, strided_max_pool3d
from .gradcheck import grad_check
from .factorize import StrfConfig, ffm_branch, init_strf_params, strf_forward
from .backbone import BatchNorm3dLayer, BlockSpec, build_block
from .losses import batch_hard_triplet, cross_entropy

TOLERANCE = 1e-6


def _spread(rng: np.random.Generator, shape) -> np.ndarray:
    """Random values with all pairwise gaps well above the probe step."""
    n = int(np.prod(shape))
    base = rng.uniform(-1.0, 1.0, size=n)
    ladder = rng.permutation(n) * 2e-3
    return (base + ladder).reshape(shape)


def run_suite(eps: float = 1e-5) -> list[tuple[str, float]]:
    rng = np.random.Generator(np.random.PCG64(20240817))
    results: list[tuple[str, float]] = []

    def check(name: str, f, x: np.ndarray) -> None:
        results.append((name, grad_check(f, x, eps)))

    a = _spread(rng, (3, 4))
    b = Tensor(_spread(rng, (4, 2)))
    check("matmul", lambda t: matmul(t, b).sum(), a)
    soft_w = Tensor(_fixed(rng, (3, 4)))
    check("softmax_rows", lambda t: (softmax_rows(t) * soft_w).sum(), a)

    vol = _spread(rng, (1, 4, 3, 4, 3))
    check("pool3d_max", lambda t: (pool3d(t, (3, 1, 1), "max") * 0.5 + pool3d(t, (1, 3, 3), "max") * 0.25).sum(), vol)
    check("pool3d_avg", lambda t: (pool3d(t, (3, 3, 3), "avg") ** 2).sum(), vol)

    mix_w = Tensor(_spread(rng, (2, 4)))
    check("conv_channel_mix", lambda t: (conv_channel_mix(t, mix_w) ** 2).sum(), vol)
    conv_w = Tensor(_spread(rng, (2, 4, 3, 3, 3)))
    check("conv3d_same", lambda t: (conv3d(t, conv_w, (1, 2, 2)) ** 2).sum(), vol)
    check(
        "conv3d_weights",
        lambda t: (conv3d(Tensor(vol), t, (1, 1, 1)) ** 2).sum(),
        _spread(rng, (2, 4, 3, 1, 1)),
    )

    cfg = StrfConfig()
    unit_in = _spread(rng, (1, 8, 4, 6, 3))
    params = init_strf_params(8, cfg, rng, dtype=np.float64)
    check("strf_forward_input", lambda t: (strf_forward(t, cfg, params) ** 2).sum(), unit_in)
    fixed_in = Tensor(unit_in)
    for (dimension, kind), weight in params.items():
        def weight_map(t, _branch=(dimension, kind)):
            return (strf_forward(fixed_in, cfg, {**params, _branch: t}) ** 2).sum()

        check(f"strf_weight_{dimension}_{kind}", weight_map, weight.data.copy())

    block_in = _spread(rng, (1, 16, 4, 6, 3))
    for variant in ("i3d", "p3d-a", "p3d-b", "p3d-c"):
        spec = BlockSpec(variant=variant, in_channels=16, out_channels=16, strf=cfg)
        block = build_block(spec, seed=7, dtype=np.float64)
        check(f"block_{variant}_strf", lambda t, _b=block: (_b(t, training=True) ** 2).sum(), block_in)

    logits = _spread(rng, (6, 5))
    labels = np.array([0, 1, 2, 3, 4, 0])
    check("cross_entropy", lambda t: cross_entropy(t, labels), logits)
    emb = _spread(rng, (8, 6)) + 0.5
    ids = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    check("batch_hard_triplet", lambda t: batch_hard_triplet(t, ids, margin=0.3), emb)

    # Strided and pointwise conv geometry as the networks use it (stem,
    # shortcut), plus a stride of 3 on a (1, 3, 1) kernel sliced from a
    # (3, 2, 2, 3, 2) draw; drawn last so the entries above keep their inputs.
    clip = Tensor(_spread(rng, (1, 2, 2, 7, 6)))
    check(
        "conv3d_weights_stem",
        lambda t: (conv3d(clip, t, (1, 2, 2)) ** 2).sum(),
        _spread(rng, (3, 2, 1, 7, 7)),
    )
    shortcut_w = _spread(rng, (3, 4, 1, 1, 1))
    check("conv3d_shortcut", lambda t: (conv3d(t, Tensor(shortcut_w), (1, 2, 2)) ** 2).sum(), vol)
    check(
        "conv3d_shortcut_weights",
        lambda t: (conv3d(Tensor(vol), t, (1, 2, 2)) ** 2).sum(),
        shortcut_w,
    )
    strided_in = _spread(rng, (1, 2, 5, 7, 6))
    strided_w = _spread(rng, (3, 2, 2, 3, 2))[:, :, :1, :, :1].copy()
    check("conv3d_strided", lambda t: (conv3d(t, Tensor(strided_w), (2, 2, 3)) ** 2).sum(), strided_in)
    check("conv3d_strided_weights", lambda t: (conv3d(Tensor(strided_in), t, (2, 2, 3)) ** 2).sum(), strided_w)

    # Batch norm on its own, in both modes, with gamma/beta away from 1/0 and
    # running stats away from 0/1; drawn last for the same reason.
    bn = BatchNorm3dLayer(3, np.float64)
    bn.running_mean[:] = _fixed(rng, 3) * 0.5
    bn.running_var[:] = 1.0 + _fixed(rng, 3) * 0.5
    bn_in = _spread(rng, (2, 3, 3, 4, 2))
    bn_target = Tensor(_fixed(rng, bn_in.shape))
    gamma, beta = 1.0 + _fixed(rng, 3) * 0.5, _fixed(rng, 3)

    def bn_map(x, g, b, training):
        bn.gamma, bn.beta = as_tensor(g), as_tensor(b)
        return ((bn(as_tensor(x), training) - bn_target) ** 2).sum()

    check("batch_norm_train_input", lambda t: bn_map(t, gamma, beta, True), bn_in)
    check("batch_norm_train_gamma", lambda t: bn_map(bn_in, t, beta, True), gamma)
    check("batch_norm_train_beta", lambda t: bn_map(bn_in, gamma, t, True), beta)
    check("batch_norm_eval_input", lambda t: bn_map(t, gamma, beta, False), bn_in)

    # The fused epilogue relu(bn(x) + skip) in training mode, on the same input
    # and gamma/beta. The skip is a target pre-activation minus bn(x), with
    # every target at least 0.1 from 0, so no probe crosses the relu's kink.
    act = BatchNorm3dLayer(3, np.float64, relu=True)
    mean = bn_in.mean(axis=(0, 2, 3, 4), keepdims=True)
    var = bn_in.var(axis=(0, 2, 3, 4), keepdims=True)
    normed = (bn_in - mean) / np.sqrt(var + act.eps) * gamma[:, None, None, None] + beta[:, None, None, None]
    target = rng.uniform(0.1, 1.0, size=bn_in.shape) * rng.choice((-1.0, 1.0), size=bn_in.shape)
    skip = target - normed

    def act_map(x, s, g):
        act.gamma, act.beta = as_tensor(g), as_tensor(beta)
        return ((act(as_tensor(x), True, as_tensor(s)) - bn_target) ** 2).sum()

    check("bn_relu_skip_train_input", lambda t: act_map(t, skip, gamma), bn_in)
    check("bn_relu_skip_train_skip", lambda t: act_map(bn_in, t, gamma), skip)
    check("bn_relu_skip_train_gamma", lambda t: act_map(bn_in, skip, t), gamma)

    # The stem max-pool, whose stride-2 windows overlap; drawn last for the
    # same reason.
    stem_in = _spread(rng, (1, 2, 3, 7, 6))
    check("strided_max_pool3d", lambda t: (strided_max_pool3d(t, (1, 3, 3), (1, 2, 2)) ** 2).sum(), stem_in)

    # Unit-stride convs with odd extents, whose input gradient is the conv of
    # the output gradient with the flipped kernel; the channel counts differ
    # so a swap of the kernel's channel axes shows. Drawn last for the same
    # reason.
    stride1_in = _spread(rng, (1, 3, 4, 5, 4))
    for kernel in ((1, 3, 3), (3, 3, 3)):
        stride1_w = Tensor(_spread(rng, (2, 3) + kernel))
        check(
            "conv3d_stride1_input_" + "x".join(map(str, kernel)),
            lambda t, _w=stride1_w: (conv3d(t, _w, (1, 1, 1)) ** 2).sum(),
            stride1_in,
        )

    # The stem's 1x7x7 conv at stride (1, 2, 2) on even extents, whose spread
    # output gradient starts one cell in; drawn last for the same reason.
    stem_w = Tensor(_spread(rng, (3, 2, 1, 7, 7)))
    check("conv3d_stem_input", lambda t: (conv3d(t, stem_w, (1, 2, 2)) ** 2).sum(), _spread(rng, (1, 2, 2, 8, 6)))

    # One dimension whose kinds pool differently, fine avg-pooled at 3 and
    # coarse max-pooled at 5, through the dimension's one tape node, with
    # respect to the input and each weight; drawn last for the same reason.
    pools = StrfConfig(r_fine=3, r_coarse=5, pool_fine="avg", pool_coarse="max", reduction=4)
    pools_in = _spread(rng, (1, 8, 3, 5, 4))
    pools_params = init_strf_params(8, pools, rng, dtype=np.float64)
    check("ffm_branch_avg3_max5_input", lambda t: (ffm_branch(t, "spatial", pools, pools_params) ** 2).sum(),
          pools_in)
    for kind in ("fine", "coarse"):
        def pools_weight_map(t, _branch=("spatial", kind)):
            return (ffm_branch(Tensor(pools_in), "spatial", pools, {**pools_params, _branch: t}) ** 2).sum()

        check(f"ffm_branch_avg3_max5_weight_{kind}", pools_weight_map, pools_params[("spatial", kind)].data.copy())

    return results


def _fixed(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=shape)


def suite_passes(results: list[tuple[str, float]], tolerance: float = TOLERANCE) -> bool:
    return all(err <= tolerance for _, err in results)

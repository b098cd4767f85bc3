"""The curated gradient-check suite the CLI runs.

Every entry names a map of any output dims in double precision, and
``grad_check`` compares the tape's Jᵀw for a dense cotangent w against
central differences of <f(x), w>. Inputs are drawn from seeded
generators and spread apart slightly so no max-pool or hinge sits within a
finite-difference step of a tie.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor
from .kernels import conv3d, strided_max_pool3d
from .gradcheck import grad_check
from .factorize import StrfConfig, ffm_branch, init_strf_params, strf_forward
from .backbone import BN_EPS, BatchNorm3dLayer, BlockSpec, LinearLayer, Network, build_block, clip_features, resnet50_spec
from .losses import batch_hard_triplet, cross_entropy, pairwise_cosine_distances, total_loss

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

    def check(name: str, f, x: np.ndarray, w=None) -> None:
        results.append((name, grad_check(f, x, eps, w)))

    # the classifier x @ Wᵀ with W = bᵀ, a view, so x @ Wᵀ is x @ b
    a = _spread(rng, (3, 4))
    check("classifier_input", LinearLayer(Tensor(_spread(rng, (4, 2)).T)), a)
    _fixed(rng, (3, 4))  # unused; drawn so the inputs drawn after it keep their values

    vol = _spread(rng, (1, 4, 3, 4, 3))
    check("max_pool_stride1", lambda t: strided_max_pool3d(t, (3, 1, 1), (1, 1, 1))
          + strided_max_pool3d(t, (1, 3, 3), (1, 1, 1)), vol)

    mix_w = Tensor(_spread(rng, (2, 4)).reshape(2, 4, 1, 1, 1))
    check("conv3d_pointwise", lambda t: conv3d(t, mix_w), vol)
    conv_w = Tensor(_spread(rng, (2, 4, 3, 3, 3)))
    check("conv3d_same", lambda t: conv3d(t, conv_w, (1, 2, 2)), vol)
    check("conv3d_weights", lambda t: conv3d(Tensor(vol), t, (1, 1, 1)), _spread(rng, (2, 4, 3, 1, 1)))

    cfg = StrfConfig()
    unit_in = _spread(rng, (1, 8, 4, 6, 3))
    params = init_strf_params(8, cfg, rng, dtype=np.float64)
    check("strf_forward_input", lambda t: strf_forward(t, cfg, params), unit_in)
    fixed_in = Tensor(unit_in)
    for (dimension, kind), weight in params.items():
        def weight_map(t, _branch=(dimension, kind)):
            return strf_forward(fixed_in, cfg, {**params, _branch: t})

        check(f"strf_weight_{dimension}_{kind}", weight_map, weight.data.copy())

    block_in = _spread(rng, (1, 16, 4, 6, 3))
    for variant in ("i3d", "p3d-a", "p3d-b", "p3d-c"):
        spec = BlockSpec(variant=variant, in_channels=16, out_channels=16, strf=cfg)
        block = build_block(spec, seed=7, dtype=np.float64)
        check(f"block_{variant}_strf", lambda t, _b=block: _b(t, training=True), block_in)

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
    check("conv3d_weights_stem", lambda t: conv3d(clip, t, (1, 2, 2)), _spread(rng, (3, 2, 1, 7, 7)))
    shortcut_w = _spread(rng, (3, 4, 1, 1, 1))
    check("conv3d_shortcut", lambda t: conv3d(t, Tensor(shortcut_w), (1, 2, 2)), vol)
    check("conv3d_shortcut_weights", lambda t: conv3d(Tensor(vol), t, (1, 2, 2)), shortcut_w)
    strided_in = _spread(rng, (1, 2, 5, 7, 6))
    strided_w = _spread(rng, (3, 2, 2, 3, 2))[:, :, :1, :, :1].copy()
    check("conv3d_strided", lambda t: conv3d(t, Tensor(strided_w), (2, 2, 3)), strided_in)
    check("conv3d_strided_weights", lambda t: conv3d(Tensor(strided_in), t, (2, 2, 3)), strided_w)

    # Batch norm on its own in training mode, with gamma/beta away from 1/0;
    # drawn last for the same reason.
    bn = BatchNorm3dLayer(3, np.float64)
    _fixed(rng, (2, 3))  # unused; drawn so the inputs drawn after it keep their values
    bn_in = _spread(rng, (2, 3, 3, 4, 2))
    _fixed(rng, bn_in.shape)  # unused; drawn so the inputs drawn after it keep their values
    gamma, beta = 1.0 + _fixed(rng, 3) * 0.5, _fixed(rng, 3)
    fixed_in, fixed_gamma, fixed_beta = Tensor(bn_in), Tensor(gamma), Tensor(beta)

    def bn_map(x, g, b):
        bn.gamma, bn.beta = g, b
        return bn(x, True)

    check("batch_norm_train_input", lambda t: bn_map(t, fixed_gamma, fixed_beta), bn_in)
    check("batch_norm_train_gamma", lambda t: bn_map(fixed_in, t, fixed_beta), gamma)
    check("batch_norm_train_beta", lambda t: bn_map(fixed_in, fixed_gamma, t), beta)

    # The fused epilogue relu(bn(x) + skip) in training mode, on the same input
    # and gamma/beta. The skip is a target pre-activation minus bn(x), with
    # every target at least 0.1 from 0, so no probe crosses the relu's kink.
    act = BatchNorm3dLayer(3, np.float64, relu=True)
    mean = bn_in.mean(axis=(0, 2, 3, 4), keepdims=True)
    var = bn_in.var(axis=(0, 2, 3, 4), keepdims=True)
    normed = (bn_in - mean) / np.sqrt(var + BN_EPS) * gamma[:, None, None, None] + beta[:, None, None, None]
    target = rng.uniform(0.1, 1.0, size=bn_in.shape) * rng.choice((-1.0, 1.0), size=bn_in.shape)
    skip = target - normed
    fixed_skip = Tensor(skip)

    def act_map(x, s, g):
        act.gamma, act.beta = g, fixed_beta
        return act(x, True, s)

    check("bn_relu_skip_train_input", lambda t: act_map(t, fixed_skip, fixed_gamma), bn_in)
    check("bn_relu_skip_train_skip", lambda t: act_map(fixed_in, t, fixed_gamma), skip)
    check("bn_relu_skip_train_gamma", lambda t: act_map(fixed_in, fixed_skip, t), gamma)

    # The stem max-pool, whose stride-2 windows overlap; drawn last for the
    # same reason.
    stem_in = _spread(rng, (1, 2, 3, 7, 6))
    check("strided_max_pool3d", lambda t: strided_max_pool3d(t, (1, 3, 3), (1, 2, 2)), stem_in)

    # Unit-stride convs with odd extents, whose input gradient is the conv of
    # the output gradient with the flipped kernel; the channel counts differ
    # so a swap of the kernel's channel axes shows. Drawn last for the same
    # reason.
    stride1_in = _spread(rng, (1, 3, 4, 5, 4))
    for kernel in ((1, 3, 3), (3, 3, 3)):
        stride1_w = Tensor(_spread(rng, (2, 3) + kernel))
        check(
            "conv3d_stride1_input_" + "x".join(map(str, kernel)),
            lambda t, _w=stride1_w: conv3d(t, _w, (1, 1, 1)),
            stride1_in,
        )

    # The stem's 1x7x7 conv at stride (1, 2, 2) on even extents, whose spread
    # output gradient starts one cell in; drawn last for the same reason.
    stem_w = Tensor(_spread(rng, (3, 2, 1, 7, 7)))
    check("conv3d_stem_input", lambda t: conv3d(t, stem_w, (1, 2, 2)), _spread(rng, (1, 2, 2, 8, 6)))

    # One dimension whose kinds pool differently, fine avg-pooled at 3 and
    # coarse max-pooled at 5, through the dimension's one tape node, with
    # respect to the input and each weight; drawn last for the same reason.
    pools = StrfConfig(r_fine=3, r_coarse=5, pool_fine="avg", pool_coarse="max", reduction=4)
    pools_in = _spread(rng, (1, 8, 3, 5, 4))
    pools_params = init_strf_params(8, pools, rng, dtype=np.float64)
    check("ffm_branch_avg3_max5_input", lambda t: ffm_branch(t, "spatial", pools, pools_params), pools_in)
    for kind in ("fine", "coarse"):
        def pools_weight_map(t, _branch=("spatial", kind)):
            return ffm_branch(Tensor(pools_in), "spatial", pools, {**pools_params, _branch: t})

        check(f"ffm_branch_avg3_max5_weight_{kind}", pools_weight_map, pools_params[("spatial", kind)].data.copy())

    # The whole training objective, total_loss over a tiny p3d-c+STRF Network
    # in training mode, at 200 sampled coordinates: 102 of the clips, all 8
    # of a stage-2 unit branch and 30 each of the stem conv, a stage-3 batch
    # norm's gamma and the classifier. Each leaf is its drawn value with its
    # slice of t written at the sampled positions, by one placement node.
    # Drawn last for the same reason.
    net = Network(resnet50_spec(5, width_div=16, blocks=(1, 1, 1, 1)), seed=11, dtype=np.float64)
    unit, norm = net.stages[1][0].conv_temporal, net.stages[2][0].conv3.bn
    branch = next(iter(unit.strf_params))
    drawn = (_fixed(rng, (4, 3, 2, 32, 16)), net.stem.weight.data, unit.strf_params[branch].data,
             1.0 + _fixed(rng, norm.gamma.shape) * 0.5, net.classifier.weight.data)
    counts = (102, 30, 8, 30, 30)
    slots, sampled, offset = [], [], 0
    for value, count in zip(drawn, counts):
        picked = rng.choice(value.size, size=count, replace=False)
        sampled.append(value.reshape(-1)[picked])
        slots.append((value, picked, slice(offset, offset + count)))
        offset += count
    step_labels = np.array([0, 0, 1, 1])

    def place(t, value, picked, part):
        """``value`` with t[part] written at the flat positions ``picked``."""
        data = value.copy()
        data.reshape(-1)[picked] = t.data[part]

        def grad_fn(g):
            d_t = np.zeros_like(t.data)
            d_t[part] = g.reshape(-1)[picked]
            t._accumulate(d_t, fresh=True)

        return Tensor._make(data, [t], grad_fn)

    def network_map(t):
        leaves = [place(t, *slot) for slot in slots]
        clip, net.stem.weight, unit.strf_params[branch], norm.gamma, net.classifier.weight = leaves
        features, logits = net.forward(clip, training=True)
        return total_loss(logits, features, step_labels)[0]

    check("network_total_loss", network_map, np.concatenate(sampled))

    # Every entry of the distance matrix, weighted by a fixed (n, n) matrix,
    # so the full dD + dD^T path is checked, not only the 2n entries the
    # triplet's hinge selects; drawn last for the same reason.
    dist_w = _fixed(rng, (6, 6))
    check("pairwise_cosine_distances", pairwise_cosine_distances, _spread(rng, (6, 5)), dist_w)

    # The unit's pool and softmax steps through a dimension's tape node: a
    # temporal avg pool at r=3 over the volume above, and one active kind at
    # r=1, whose mask is the softmax of the unpooled Gram; drawn last for the
    # same reason.
    avg3 = StrfConfig(r_fine=3, pool_fine="avg", reduction=2, branches=(("temporal", "fine"),))
    avg3_params = init_strf_params(4, avg3, rng, dtype=np.float64)
    check("ffm_branch_temporal_avg3_input", lambda t: ffm_branch(t, "temporal", avg3, avg3_params), vol)
    one_kind = StrfConfig(reduction=2, branches=(("spatial", "fine"),))
    one_kind_params = init_strf_params(4, one_kind, rng, dtype=np.float64)
    one_kind_in = _spread(rng, (1, 4, 2, 3, 2))
    check("ffm_branch_one_kind_input", lambda t: ffm_branch(t, "spatial", one_kind, one_kind_params), one_kind_in)

    # The network head: the classifier with respect to its weight, and the
    # clip features (the mean over space, then over time) with respect to the
    # map; drawn last for the same reason.
    head_x = Tensor(_spread(rng, (3, 4)))
    check("classifier_weight", lambda t: LinearLayer(t)(head_x), _spread(rng, (2, 4)))
    check("clip_features_input", clip_features, _spread(rng, (2, 3, 4, 3, 2)))

    return results


def _fixed(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=shape)


def suite_passes(results: list[tuple[str, float]], tolerance: float = TOLERANCE) -> bool:
    return all(err <= tolerance for _, err in results)

import hashlib

import numpy as np
import pytest

import strf.backbone
from strf.backbone import (
    BatchNorm3dLayer,
    BlockSpec,
    Network,
    attention_energy_maps,
    attention_export,
    build_block,
    count_params,
    forward_features,
    resnet50_spec,
)
from strf.errors import ConfigError, ShapeError
from strf.factorize import StrfConfig, strf_param_count
from strf.losses import total_loss
from strf.tensor import Tensor, relu

from oracles import batch_norm_composed


def toy_spec(**kw):
    defaults = dict(
        classes=5,
        variant="p3d-c",
        strf_stages=(2, 3),
        variant_stages=(2, 3),
        width_div=16,
        blocks=(1, 1, 1, 1),
    )
    defaults.update(kw)
    return resnet50_spec(**defaults)


def block_spec(variant, strf=False, stride=1, in_ch=16, out_ch=16):
    return BlockSpec(
        variant=variant,
        in_channels=in_ch,
        out_channels=out_ch,
        spatial_stride=stride,
        strf=StrfConfig() if strf else None,
    )


def rand_input(rng, shape=(1, 16, 4, 6, 3)):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)


# -- block level -------------------------------------------------------------

def test_block_spec_validation():
    with pytest.raises(ConfigError):
        block_spec("p5d")
    with pytest.raises(ConfigError):
        BlockSpec(variant="c2d", in_channels=16, out_channels=18, spatial_stride=1, strf=None)
    with pytest.raises(ConfigError):
        block_spec("c2d", strf=True)


def test_mid_channels_is_quarter_width():
    assert block_spec("i3d", out_ch=64).mid_channels == 16


@pytest.mark.parametrize("variant", ["c2d", "i3d", "p3d-a", "p3d-b", "p3d-c"])
def test_block_forward_shape(variant, rng):
    block = build_block(block_spec(variant), seed=1)
    out = block(rand_input(rng), False)
    assert out.data.shape == (1, 16, 4, 6, 3)


@pytest.mark.parametrize("variant", ["c2d", "i3d", "p3d-a", "p3d-b", "p3d-c"])
def test_block_spatial_stride_halves(variant, rng):
    block = build_block(block_spec(variant, stride=2, in_ch=16, out_ch=32), seed=1)
    out = block(rand_input(rng, (1, 16, 4, 6, 4)), False)
    assert out.data.shape == (1, 32, 4, 3, 2)


def test_c2d_block_is_time_degenerate(rng):
    # constant-in-time input stays constant in time through a c2d block
    block = build_block(block_spec("c2d"), seed=2)
    frame = rng.normal(size=(1, 16, 1, 6, 3)).astype(np.float32)
    clip = Tensor(np.repeat(frame, 4, axis=2))
    out = block(clip, False).data
    for t in range(1, 4):
        assert np.allclose(out[:, :, t], out[:, :, 0], atol=1e-5)


def test_i3d_block_mixes_time(rng):
    block = build_block(block_spec("i3d"), seed=2)
    x = rand_input(rng)
    base = block(x, False).data
    bumped = x.data.copy()
    bumped[:, :, 0] += 1.0
    out = block(Tensor(bumped), False).data
    # temporal kernel spreads the frame-0 bump into later frames
    assert not np.allclose(out[:, :, 1], base[:, :, 1], atol=1e-5)


def test_p3d_b_paths_run_in_parallel(rng):
    # the temporal path sees the bottleneck input, not the spatial output:
    # zeroing the spatial kernel must leave the temporal contribution alive
    block = build_block(block_spec("p3d-b"), seed=3)
    x = rand_input(rng)
    base = block(x, False).data
    block.conv_spatial.weight.data[...] = 0.0
    out = block(x, False).data
    assert not np.allclose(out, base, atol=1e-6)
    assert np.abs(out).sum() > 0


def test_p3d_a_is_series(rng):
    # in the series variant the temporal conv consumes the spatial output, so
    # zeroing the spatial kernel silences the temporal path input entirely
    block = build_block(block_spec("p3d-a", in_ch=16, out_ch=16), seed=3)
    x = rand_input(rng)
    block.conv_spatial.weight.data[...] = 0.0
    out_a = block(x, False).data
    block.conv_temporal.weight.data[...] = 0.0
    out_b = block(x, False).data
    # with a dead spatial conv the temporal weights no longer matter
    assert np.allclose(out_a, out_b, atol=1e-6)


@pytest.mark.parametrize("variant,strf", [
    ("i3d", True), ("p3d-a", True), ("p3d-b", True), ("p3d-c", True), ("p3d-c", False),
])
def test_block_backward_runs(variant, strf, rng):
    block = build_block(block_spec(variant, strf=strf), seed=3)
    x = rand_input(rng)
    block(x, False).sum().backward()
    assert x.grad is not None and np.isfinite(x.grad).all()


PAIR_SUFFIXES = {
    "c2d": ("1", "2", "3"),
    "i3d": ("1", "2", "3"),
    "p3d-a": ("1", "_spatial", "_temporal", "3"),
    "p3d-b": ("1", "_spatial", "_temporal", "3"),
    "p3d-c": ("1", "_spatial", "_temporal", "3"),
}


@pytest.mark.parametrize("variant", ["c2d", "i3d", "p3d-a", "p3d-b", "p3d-c"])
def test_block_registers_each_pair_as_conv_unit_bn(variant, monkeypatch):
    registries = []

    class Recording(strf.backbone._Registry):
        def __init__(self):
            super().__init__()
            registries.append(self)

    monkeypatch.setattr(strf.backbone, "_Registry", Recording)
    # stride 2 and a wider output give every block a shortcut
    build_block(block_spec(variant, strf=variant != "c2d", stride=2, out_ch=32), seed=0)
    unit_suffix = {"c2d": None, "i3d": "2"}.get(variant, "_temporal")
    params, buffers = [], []
    for suffix in PAIR_SUFFIXES[variant]:
        params.append(f"block.conv{suffix}.w")
        if suffix == unit_suffix:
            params += [f"block.strf.{dimension}_{kind}.w" for dimension, kind in StrfConfig().branches]
        params += [f"block.bn{suffix}.gamma", f"block.bn{suffix}.beta"]
        buffers += [f"block.bn{suffix}.running_mean", f"block.bn{suffix}.running_var"]
    params += ["block.shortcut.conv.w", "block.shortcut.bn.gamma", "block.shortcut.bn.beta"]
    buffers += ["block.shortcut.bn.running_mean", "block.shortcut.bn.running_var"]
    (registry,) = registries
    assert [name for name, _ in registry.params] == params
    assert [name for name, _ in registry.buffers] == buffers


# -- network level -----------------------------------------------------------

def test_network_forward_shapes(rng):
    net = Network(toy_spec(), seed=0)
    clips = Tensor(rng.normal(size=(2, 3, 8, 64, 32)).astype(np.float32))
    features, logits = net.forward(clips, training=False)
    assert features.data.shape == (2, 128)
    assert logits.data.shape == (2, 5)


def test_network_rejects_bad_rank(rng):
    net = Network(toy_spec(), seed=0)
    with pytest.raises(ShapeError):
        net.forward(Tensor(np.zeros((3, 8, 64, 32), dtype=np.float32)), training=False)


def stage_outputs(net, clips):
    return {stage: net.stage_output(clips, False, stage).data for stage in (1, 2, 3, 4)}


def test_stage_shape_ladder(rng):
    net = Network(toy_spec(), seed=0)
    clips = Tensor(rng.normal(size=(1, 3, 4, 64, 32)).astype(np.float32))
    outputs = stage_outputs(net, clips)
    spatial = {stage: act.shape[-2:] for stage, act in outputs.items()}
    # stem quarters the input; stages 2 and 3 halve; stage 4 keeps size
    assert spatial == {1: (16, 8), 2: (8, 4), 3: (4, 2), 4: (4, 2)}
    times = {stage: act.shape[2] for stage, act in outputs.items()}
    assert times == {1: 4, 2: 4, 3: 4, 4: 4}  # no temporal downsampling anywhere


def test_strf_does_not_change_shapes(rng):
    clips = Tensor(rng.normal(size=(1, 3, 4, 32, 16)).astype(np.float32))
    with_attn = stage_outputs(Network(toy_spec(), seed=0), clips)
    without = stage_outputs(Network(toy_spec(strf_stages=()), seed=0), clips)
    for stage in (1, 2, 3, 4):
        assert with_attn[stage].shape == without[stage].shape


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_stage_output_runs_no_later_stage(stage, rng):
    net = Network(toy_spec(), seed=0)
    for blocks in net.stages[stage:]:
        for block in blocks:
            block.conv1 = None  # a later stage that runs raises TypeError
    clips = Tensor(rng.normal(size=(1, 3, 4, 32, 16)).astype(np.float32))
    assert net.stage_output(clips, False, stage).shape[1] == toy_spec().stages[stage - 1][-1].out_channels
    with pytest.raises(TypeError):
        net.forward(clips, training=False)


# SHA-256 over the toy network's (name, dims, float32 bytes), sorted by name.
# It pins the order in which a network draws its weights from its seed, which
# every checkpoint and every seeded run depends on.
TOY_WEIGHTS_SHA256 = "67f4eaf7b02e97393e53ad4c0c740528f39ae6581c82de3ae53a23fa1dc98841"


def test_toy_network_weights_are_frozen():
    digest = hashlib.sha256()
    for name, tensor in sorted(Network(toy_spec(), seed=0).named_params(), key=lambda entry: entry[0]):
        digest.update(f"{name}\t{'x'.join(map(str, tensor.shape))}\n".encode())
        digest.update(tensor.data.astype("<f4").tobytes())
    assert digest.hexdigest() == TOY_WEIGHTS_SHA256


def test_build_determinism():
    a = Network(toy_spec(), seed=11)
    b = Network(toy_spec(), seed=11)
    for (name, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(pa.data, pb.data), name
    c = Network(toy_spec(), seed=12)
    assert any(
        not np.array_equal(pa.data, pc.data)
        for (_, pa), (_, pc) in zip(a.named_params(), c.named_params())
    )


def test_eval_forward_is_pure(rng):
    net = Network(toy_spec(), seed=4)
    clips = rng.normal(size=(2, 3, 4, 32, 16)).astype(np.float32)
    first = forward_features(net, clips)
    second = forward_features(net, clips)
    assert np.array_equal(first, second)


def test_train_mode_updates_running_stats(rng):
    net = Network(toy_spec(), seed=4)
    clips = Tensor(rng.normal(size=(2, 3, 4, 32, 16)).astype(np.float32))
    before = {name: buf.copy() for name, buf in net.named_buffers()}
    net.forward(clips, training=False)
    assert all(np.array_equal(before[name], buf) for name, buf in net.named_buffers())
    net.forward(clips, training=True)
    after = dict(net.named_buffers())
    assert any(not np.array_equal(before[name], after[name]) for name in before)


# -- batch norm --------------------------------------------------------------

def bn_layer(rng, dtype, channels=3, relu=False):
    """A layer with gamma/beta away from 1/0 and non-default running stats."""
    bn = BatchNorm3dLayer(channels, dtype, relu=relu)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=channels)
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=channels)
    bn.running_mean[:] = rng.uniform(-0.3, 0.3, size=channels)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=channels)
    return bn


def twin(bn):
    """An independent layer in the same state as ``bn``."""
    other = BatchNorm3dLayer(bn.gamma.size, bn.gamma.dtype, bn.momentum, bn.eps)
    other.gamma.data[:], other.beta.data[:] = bn.gamma.data, bn.beta.data
    other.running_mean[:], other.running_var[:] = bn.running_mean, bn.running_var
    return other


def bn_grads(apply, bn, x_data, upstream):
    """Forward ``apply(bn, x)`` and backpropagate ``upstream``; return the
    output and the gradients of x, gamma and beta."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = apply(bn, x)
    (out * upstream).sum().backward()
    return out.data, x.grad, bn.gamma.grad, bn.beta.grad


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_matches_composed_reference(training, rng):
    bn = bn_layer(rng, np.float64)
    ref = twin(bn)
    x = rng.normal(1.0, 2.0, size=(2, 3, 3, 4, 2))
    upstream = rng.normal(size=x.shape)
    fused = bn_grads(lambda layer, t: layer(t, training), bn, x, upstream)
    composed = bn_grads(lambda layer, t: batch_norm_composed(layer, t, training), ref, x, upstream)
    for name, got, want in zip(("out", "dx", "dgamma", "dbeta"), fused, composed):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=name)


def test_batch_norm_running_stats_match_reference(rng):
    bn = bn_layer(rng, np.float64)
    ref = twin(bn)
    x = rng.normal(1.0, 2.0, size=(2, 3, 3, 4, 2))
    bn(Tensor(x), training=True)
    batch_norm_composed(ref, Tensor(x), training=True)
    np.testing.assert_allclose(bn.running_mean, ref.running_mean, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(bn.running_var, ref.running_var, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_float32_rerun_is_bit_identical(training):
    runs = []
    for _ in range(2):
        rng = np.random.Generator(np.random.PCG64(11))
        bn = bn_layer(rng, np.float32, channels=4)
        x = rng.normal(size=(3, 4, 2, 5, 3)).astype(np.float32)
        upstream = rng.normal(size=x.shape).astype(np.float32)
        runs.append(bn_grads(lambda layer, t: layer(t, training), bn, x, upstream) + (bn.running_var.copy(),))
    for first, second in zip(*runs):
        assert first.dtype == np.float32
        assert np.array_equal(first, second)


def test_batch_norm_eval_backward_uses_the_stats_its_forward_saw(rng):
    bn = bn_layer(rng, np.float64)
    ref = twin(bn)
    x_data = rng.normal(size=(2, 3, 3, 4, 2))
    upstream = rng.normal(size=x_data.shape)
    x = Tensor(x_data.copy(), requires_grad=True)
    out = bn(x, training=False)
    # a training call in between moves the running stats in place
    bn(Tensor(rng.normal(3.0, 4.0, size=x_data.shape)), training=True)
    assert not np.allclose(bn.running_mean, ref.running_mean)
    (out * upstream).sum().backward()
    want = bn_grads(lambda layer, t: batch_norm_composed(layer, t, False), ref, x_data, upstream)
    for name, got, expected in zip(("dx", "dgamma", "dbeta"), (x.grad, bn.gamma.grad, bn.beta.grad), want[1:]):
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12, err_msg=name)


def epilogue_grads(apply, bn, x_data, skip_data, upstream):
    """``bn_grads`` for ``apply(bn, x, skip)``, plus the skip's gradient
    (None when ``skip_data`` is None)."""
    skip = None if skip_data is None else Tensor(skip_data.copy(), requires_grad=True)
    out, dx, dgamma, dbeta = bn_grads(lambda layer, x: apply(layer, x, skip), bn, x_data, upstream)
    return out, dx, None if skip is None else skip.grad, dgamma, dbeta


def composed_epilogue(bn, x, skip, training):
    y = batch_norm_composed(bn, x, training)
    return relu(y if skip is None else y + skip)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("with_skip", [False, True])
def test_fused_epilogue_matches_composed_reference(training, with_skip, rng):
    bn = bn_layer(rng, np.float64, relu=True)
    ref = twin(bn)
    x = rng.normal(1.0, 2.0, size=(2, 3, 3, 4, 2))
    skip = rng.normal(size=x.shape) if with_skip else None
    upstream = rng.normal(size=x.shape)
    fused = epilogue_grads(lambda layer, t, s: layer(t, training, s), bn, x, skip, upstream)
    composed = epilogue_grads(lambda layer, t, s: composed_epilogue(layer, t, s, training), ref, x, skip, upstream)
    assert (fused[0] == 0).any() and (fused[0] > 0).any()
    for name, got, want in zip(("out", "dx", "dskip", "dgamma", "dbeta"), fused, composed):
        if want is None:
            assert got is None
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("training", [True, False])
def test_fused_epilogue_float32_rerun_is_bit_identical(training):
    runs = []
    for _ in range(2):
        rng = np.random.Generator(np.random.PCG64(12))
        bn = bn_layer(rng, np.float32, channels=4, relu=True)
        x, skip, upstream = rng.normal(size=(3, 3, 4, 2, 5, 3)).astype(np.float32)
        runs.append(epilogue_grads(lambda layer, t, s: layer(t, training, s), bn, x, skip, upstream))
    for first, second in zip(*runs):
        assert first.dtype == np.float32
        assert np.array_equal(first, second)


@pytest.mark.parametrize("training", [True, False])
def test_fused_epilogue_passes_a_nan_through(training, rng):
    # a relu that maps NaN to 0 would hide a poisoned input from the
    # non-finite loss and gradient checks
    bn = bn_layer(rng, np.float64, relu=True)
    x = rng.normal(size=(2, 3, 3, 4, 2))
    poisoned = x.copy()
    poisoned[1, 2, 0, 3, 1] = np.nan
    assert np.isnan(bn(Tensor(poisoned), training).data[1, 2, 0, 3, 1])
    assert np.isnan(bn(Tensor(x), training, Tensor(poisoned)).data[1, 2, 0, 3, 1])


def test_feature_head_is_mean_pool(rng):
    # features are the spatio-temporal mean of the stage-4 output
    net = Network(toy_spec(), seed=4)
    clips = Tensor(rng.normal(size=(1, 3, 4, 32, 16)).astype(np.float32))
    features, _ = net.forward(clips, training=False)
    manual = net.stage_output(clips, False, 4).data.mean(axis=(2, 3, 4))
    assert np.allclose(features.data, manual, atol=1e-5)


def test_training_features_are_the_mean_of_stage_four(rng):
    # training batch norm normalizes with the batch's own statistics, so the
    # running ones the first call moves do not change the second call
    net = Network(toy_spec(), seed=4)
    clips = Tensor(rng.normal(size=(2, 3, 4, 32, 16)).astype(np.float32))
    stage4 = net.stage_output(clips, True, 4).data
    features, logits = net.forward(clips, training=True)
    assert logits.requires_grad
    assert np.allclose(features.data, stage4.mean(axis=(2, 3, 4)), atol=1e-5)


def test_strf_weight_perturbation_changes_embedding(rng):
    net = Network(toy_spec(), seed=5)
    clips = rng.normal(size=(1, 3, 4, 32, 16)).astype(np.float32)
    base = forward_features(net, clips)
    strf_names = [name for name, _ in net.named_params() if ".strf." in name]
    assert strf_names
    params = dict(net.named_params())
    params[strf_names[0]].data[0, 0] += 0.5
    # eval forward is deterministic, so any byte drift proves the weight is live
    assert not np.array_equal(forward_features(net, clips), base)


def test_variant_stage_promotion():
    spec = resnet50_spec(classes=5, variant="p3d-c", strf_stages=(3,), variant_stages=(2,),
                         width_div=16, blocks=(1, 1, 1, 1))
    variants = [stage[0].variant for stage in spec.stages]
    # stage 3 carries strf, so it gets promoted off c2d too
    assert variants == ["c2d", "p3d-c", "p3d-c", "c2d"]
    assert [stage[0].strf is not None for stage in spec.stages] == [False, False, True, False]


def test_spec_lays_out_every_block():
    unit = StrfConfig(integration="parallel")
    spec = resnet50_spec(classes=5, variant="i3d", strf_stages=(2,), variant_stages=(2, 3),
                         width_div=16, blocks=(2, 2, 1, 1), strf_cfg=unit)
    assert [len(stage) for stage in spec.stages] == [2, 2, 1, 1]
    # the first block of a stage takes the previous width and the stage stride
    assert [[b.in_channels for b in stage] for stage in spec.stages] == [[4, 16], [16, 32], [32], [64]]
    assert [[b.out_channels for b in stage] for stage in spec.stages] == [[16, 16], [32, 32], [64], [128]]
    assert [[b.spatial_stride for b in stage] for stage in spec.stages] == [[1, 1], [2, 1], [2], [1]]
    assert [[b.variant for b in stage] for stage in spec.stages] == [
        ["c2d", "c2d"], ["i3d", "i3d"], ["i3d"], ["c2d"]]
    assert [[b.strf for b in stage] for stage in spec.stages] == [[None, None], [unit, unit], [None], [None]]
    assert spec.stem_width == 4 and spec.feature_dim == 128


def test_strf_on_c2d_stage_rejected():
    with pytest.raises(ConfigError):
        resnet50_spec(classes=5, variant="c2d", strf_stages=(2,), variant_stages=(),
                      width_div=16, blocks=(1, 1, 1, 1))


# -- parameter accounting ----------------------------------------------------

def test_full_spec_param_counts_frozen():
    baseline = resnet50_spec(classes=625, variant="p3d-c", strf_stages=(), variant_stages=(2, 3))
    rows, total = count_params(Network(baseline, seed=0))
    assert total == 26_168_384

    attn = resnet50_spec(classes=625, variant="p3d-c", strf_stages=(2, 3), variant_stages=(2, 3))
    rows_attn, total_attn = count_params(Network(attn, seed=0))
    assert total_attn == 26_283_072
    assert total_attn - total == 114_688


def test_strf_delta_matches_formula_per_stage():
    base = toy_spec(strf_stages=())
    attn = toy_spec()
    _, base_total = count_params(Network(base, seed=0))
    _, attn_total = count_params(Network(attn, seed=0))
    # toy widths: stage2 mid 32//4=8, stage3 mid 64//4=16, one block each
    assert attn_total - base_total == strf_param_count(8) + strf_param_count(16)


def test_param_table_covers_total():
    net = Network(toy_spec(), seed=0)
    rows, total = count_params(net)
    assert total == sum(count for _, _, count in rows)
    names = [name for name, _, _ in rows]
    assert len(set(names)) == len(names)


def test_param_count_excludes_buffers():
    net = Network(toy_spec(), seed=0)
    rows, _ = count_params(net)
    buffer_names = {name for name, _ in net.named_buffers()}
    assert buffer_names  # bn running stats exist
    assert not any(name in buffer_names for name, _, _ in rows)


def test_classifier_has_no_bias():
    net = Network(toy_spec(), seed=0)
    classifier = [name for name, _ in net.named_params() if name.startswith("classifier")]
    assert classifier == ["classifier.w"]


# -- attention maps ----------------------------------------------------------

def test_attention_maps_unit_range(rng):
    net = Network(toy_spec(), seed=6)
    clip = rng.normal(size=(3, 4, 32, 16)).astype(np.float32)
    maps = attention_export(net, clip, stage=3)
    assert maps.shape == (4, 2, 1)  # t frames at stage-3 resolution of a 32x16 clip
    assert maps.min() >= 0.0 and maps.max() <= 1.0


def test_attention_maps_degenerate_zero():
    act = np.full((8, 2, 4, 4), 3.0, dtype=np.float32)
    maps = attention_energy_maps(act)
    assert np.array_equal(maps, np.zeros((2, 4, 4)))


def test_attention_maps_point_mass():
    act = np.zeros((2, 1, 3, 3), dtype=np.float32)
    act[1, 0, 2, 1] = 4.0
    maps = attention_energy_maps(act)
    assert maps[0, 2, 1] == 1.0
    maps[0, 2, 1] = 0.0
    assert np.array_equal(maps, np.zeros((1, 3, 3)))


def test_attention_export_validates_stage_and_shape(rng):
    net = Network(toy_spec(), seed=6)
    clip = rng.normal(size=(3, 4, 32, 16)).astype(np.float32)
    with pytest.raises(ConfigError):
        attention_export(net, clip, stage=5)
    with pytest.raises(ShapeError):
        attention_export(net, clip[0], stage=2)


def test_toy_train_step_tape_nodes():
    # one tape node per active dimension of a unit: 68 nodes for the toy
    # network's layers and losses, plus 2 for each of its two units
    net = Network(toy_spec(), seed=0)
    clips = Tensor(np.random.default_rng(0).normal(size=(4, 3, 4, 32, 16)).astype(np.float32))
    logits, features = net.forward(clips, training=True)
    total, _, _ = total_loss(logits, features, np.array([0, 0, 1, 1]))
    seen, stack = {}, [total]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    assert sum(node._grad_fn is not None for node in seen.values()) == 72

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strf.errors import ConfigError, ShapeError
from strf.factorize import (
    BRANCH_ORDER,
    POOL_MODES,
    StrfConfig,
    fam_mask,
    ffm_apply,
    ffm_branch,
    init_strf_params,
    reduced_channels,
    reshape_to_matrix,
    strf_forward,
    strf_param_count,
)
from strf.tensor import Tensor, no_grad, softmax_rows

from oracles import fam_mask_loops, ffm_apply_loops

# softmax rows of 4*[[16,24],[24,36]], computed by the loop oracle
WORKED_MASK = np.array(
    [
        [1.2664165549094015e-14, 9.9999999999998734e-01],
        [1.4251640827409352e-21, 1.0000000000000000e00],
    ]
)


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def default_cfg(**kw):
    return StrfConfig(**kw)


def make_params(channels, cfg, seed=0):
    return init_strf_params(channels, cfg, np.random.Generator(np.random.PCG64(seed)))


def test_reshape_shape_and_index_arithmetic():
    f = t64(np.arange(2 * 3 * 4 * 5).reshape(1, 2, 3, 4, 5))
    m = reshape_to_matrix(f)
    assert m.data[0].shape == (6, 20)
    # element (c,t,h,w)=(1,2,0,3) lands at row 1*3+2=5, column 0*5+3=3
    assert m.data[0, 5, 3] == f.data[0, 1, 2, 0, 3]


def test_reshape_roundtrip_bit_exact(rng):
    f = t64(rng.normal(size=(1, 3, 2, 4, 5)))
    back = reshape_to_matrix(f).reshape((1, 3, 2, 4, 5))
    assert np.array_equal(back.data, f.data)


def test_reshape_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        reshape_to_matrix(t64(np.zeros((2, 3, 4))))


def test_fam_mask_worked_example():
    f = t64([[[[[1.0, 2.0]]], [[[3.0, 4.0]]]]])  # n=1,c=2,t=1,h=1,w=2
    mask = fam_mask(f, Tensor(np.array([[1.0, 1.0]])), "temporal", 1, pool="max", temperature=4.0)
    assert np.allclose(mask.data[0], WORKED_MASK, rtol=1e-12, atol=0)


def test_fam_mask_constant_input_is_uniform():
    for dimension in ("temporal", "spatial"):
        for pool in ("max", "avg"):
            f = t64(np.full((1, 4, 2, 3, 2), 2.75))
            mask = fam_mask(f, Tensor(np.ones((1, 4))), dimension, 3, pool=pool)
            assert np.allclose(mask.data, 1.0 / 6.0, atol=1e-7)


def test_fam_mask_rows_stochastic(rng):
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    w = Tensor(rng.normal(size=(1, 8)))
    for dimension in ("temporal", "spatial"):
        mask = fam_mask(f, w, dimension, 1).data[0]
        assert mask.shape == (6, 6)
        assert np.allclose(mask.sum(axis=1), 1.0, atol=1e-5)
        assert np.all(mask > 0)


def test_fam_mask_matches_loop_oracle(rng):
    for trial in range(5):
        f = rng.normal(size=(8, 2, 3, 2))
        w = rng.normal(size=(1, 8)) * 0.5
        for dimension in ("temporal", "spatial"):
            for resolution, pool in ((1, "max"), (3, "max"), (3, "avg")):
                got = fam_mask(t64(f[None]), Tensor(w), dimension, resolution, pool=pool).data[0]
                want = fam_mask_loops(f, dimension, resolution, pool, 16, 4.0, w)
                assert np.allclose(got, want, atol=1e-6)


def test_fam_mask_identity_resolution_skips_pooling(rng):
    # r=1 means the pooling stage must not move a single bit
    f = rng.normal(size=(4, 2, 3, 2))
    w = rng.normal(size=(1, 4))
    fine = fam_mask(t64(f[None]), Tensor(w), "temporal", 1).data[0]
    want = fam_mask_loops(f, "temporal", 1, "max", 16, 4.0, w)
    assert np.allclose(fine, want, atol=1e-9)
    spatial = fam_mask(t64(f[None]), Tensor(w), "spatial", 1).data[0]
    assert np.allclose(spatial, fine, atol=1e-12)  # r=1 erases the axis choice


def test_fam_mask_even_resolution_rejected():
    with pytest.raises(ConfigError):
        StrfConfig(r_fine=2)


def test_fam_mask_weight_shape_error(rng):
    f = t64(rng.normal(size=(1, 8, 2, 2, 2)))
    with pytest.raises(ShapeError):
        fam_mask(f, Tensor(np.zeros((1, 5))), "temporal", 1)


def test_zero_weight_gives_uniform_mask(rng):
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    mask = fam_mask(f, Tensor(np.zeros((1, 8))), "spatial", 3)
    assert np.allclose(mask.data, 1.0 / 6.0, atol=1e-12)


def test_ffm_apply_uniform_mask_is_spatial_mean(rng):
    f = rng.normal(size=(3, 2, 2, 3))
    sites = 6
    out = ffm_apply(t64(f[None]), Tensor(np.full((1, sites, sites), 1.0 / sites))).data[0]
    means = f.reshape(3, 2, 6).mean(axis=2)
    assert np.allclose(out, np.broadcast_to(means[:, :, None, None], f.shape).reshape(f.shape))


def test_ffm_apply_zero_input():
    out = ffm_apply(t64(np.zeros((1, 2, 2, 2, 2))), Tensor(np.full((1, 4, 4), 0.25)))
    assert np.array_equal(out.data[0], np.zeros((2, 2, 2, 2)))


def test_ffm_apply_matches_loop_oracle(rng):
    f = rng.normal(size=(4, 2, 3, 2))
    raw = rng.uniform(0.1, 1.0, size=(6, 6))
    mask = raw / raw.sum(axis=1, keepdims=True)
    got = ffm_apply(t64(f[None]), Tensor(mask[None])).data[0]
    assert np.allclose(got, ffm_apply_loops(f, mask), atol=1e-10)


def test_ffm_apply_side_mismatch(rng):
    with pytest.raises(ShapeError):
        ffm_apply(t64(rng.normal(size=(1, 2, 2, 2, 2))), Tensor(np.eye(5)[None]))


def test_branch_constant_input_doubles():
    f = t64(np.full((1, 8, 3, 2, 2), 1.5))
    cfg = default_cfg()
    params = make_params(8, cfg)
    for dimension in ("temporal", "spatial"):
        out = ffm_branch(f, dimension, cfg, params)
        assert np.allclose(out.data, 2 * f.data, atol=1e-5)


def test_branch_identical_kinds_double_single(rng):
    # same resolution, pool, and weights in both kinds => exactly twice one branch
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    cfg = default_cfg(r_fine=3, r_coarse=3)
    params = make_params(8, cfg)
    shared = params[("temporal", "fine")]
    forced = {
        ("temporal", "fine"): shared,
        ("temporal", "coarse"): shared,
        ("spatial", "fine"): params[("spatial", "fine")],
        ("spatial", "coarse"): params[("spatial", "coarse")],
    }
    out = ffm_branch(f, "temporal", cfg, forced)
    single = ffm_apply(f, fam_mask(f, shared, "temporal", cfg.r_fine, cfg.pool_fine, cfg.temperature))
    assert np.allclose(out.data, 2 * single.data, atol=1e-10)


def test_branch_reads_each_kinds_settings(rng):
    # every kind pools at its own resolution and mode, at the unit's temperature
    f = rng.normal(size=(8, 3, 3, 2))
    cfg = default_cfg(r_fine=3, r_coarse=5, pool_fine="avg", pool_coarse="max", temperature=2.5)
    params = make_params(8, cfg)
    for dimension in ("temporal", "spatial"):
        want = 0.0
        for kind, resolution, pool in (("fine", 3, "avg"), ("coarse", 5, "max")):
            w = params[(dimension, kind)].data.astype(np.float64)
            mask = fam_mask_loops(f, dimension, resolution, pool, 16, 2.5, w)
            want = want + np.asarray(ffm_apply_loops(f, mask))
        out = ffm_branch(t64(f[None]), dimension, cfg, params).data[0]
        assert np.allclose(out, want, atol=1e-6), dimension


def test_strf_constant_input_quadruples_all_integrations():
    f = t64(np.full((1, 8, 4, 6, 3), 2.5))
    for integration in ("temporal-then-spatial", "spatial-then-temporal", "parallel"):
        cfg = default_cfg(integration=integration)
        params = make_params(8, cfg)
        out = strf_forward(f, cfg, params)
        assert np.allclose(out.data, 4 * f.data, atol=1e-5), integration


def test_strf_parallel_is_sum_of_branches(rng):
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    cfg = default_cfg(integration="parallel")
    params = make_params(8, cfg)
    out = strf_forward(f, cfg, params)
    manual = ffm_branch(f, "temporal", cfg, params).data + ffm_branch(f, "spatial", cfg, params).data
    assert np.allclose(out.data, manual, atol=1e-10)


def test_strf_cascade_is_composition(rng):
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    cfg = default_cfg(integration="temporal-then-spatial")
    params = make_params(8, cfg)
    out = strf_forward(f, cfg, params)
    manual = ffm_branch(ffm_branch(f, "temporal", cfg, params), "spatial", cfg, params)
    assert np.allclose(out.data, manual.data, atol=1e-10)
    reverse = default_cfg(integration="spatial-then-temporal")
    out_rev = strf_forward(f, reverse, params)
    manual_rev = ffm_branch(ffm_branch(f, "spatial", cfg, params), "temporal", cfg, params)
    assert np.allclose(out_rev.data, manual_rev.data, atol=1e-10)


def test_strf_orders_differ_on_generic_input(rng):
    f = t64(rng.normal(size=(1, 8, 3, 3, 2)))
    params = make_params(8, default_cfg())
    a = strf_forward(f, default_cfg(integration="temporal-then-spatial"), params).data
    b = strf_forward(f, default_cfg(integration="spatial-then-temporal"), params).data
    assert not np.allclose(a, b, atol=1e-6)


def test_strf_shape_preserved_all_integrations(rng):
    f = t64(rng.normal(size=(1, 8, 4, 6, 3)))
    for integration in ("temporal-then-spatial", "spatial-then-temporal", "parallel"):
        cfg = default_cfg(integration=integration)
        out = strf_forward(f, cfg, make_params(8, cfg))
        assert out.data.shape == f.data.shape


def test_strf_batched_matches_per_item(rng):
    f = rng.normal(size=(3, 8, 2, 3, 2))
    cfg = default_cfg()
    params = make_params(8, cfg)
    batched = strf_forward(t64(f), cfg, params).data
    for i in range(3):
        single = strf_forward(t64(f[i : i + 1]), cfg, params).data
        assert np.allclose(batched[i], single[0], atol=1e-10)


def test_channel_permutation_equivariance(rng):
    f = rng.normal(size=(8, 2, 3, 2))
    cfg = default_cfg()
    params = make_params(8, cfg)
    perm = rng.permutation(8)
    permuted_params = {(d, k): Tensor(w.data[:, perm]) for (d, k), w in params.items()}
    base = strf_forward(t64(f[None]), cfg, params).data[0]
    shuffled = strf_forward(t64(f[perm][None]), cfg, permuted_params).data[0]
    assert np.allclose(shuffled, base[perm], atol=1e-8)


def test_param_counts_frozen():
    assert strf_param_count(128) == 4096
    assert strf_param_count(16) == 64
    assert 4 * strf_param_count(128) + 6 * strf_param_count(256) == 114688


def test_param_count_small_channel_clamp():
    # channels below the reduction divisor clamp to one reduced channel
    assert reduced_channels(8, 16) == 1
    assert strf_param_count(8, 16) == 4 * 8 * 1


def test_init_params_shapes_and_determinism():
    cfg = default_cfg()
    a = make_params(32, cfg, seed=9)
    b = make_params(32, cfg, seed=9)
    for (key_a, w_a), (key_b, w_b) in zip(a.items(), b.items()):
        assert key_a == key_b
        assert np.array_equal(w_a.data, w_b.data)
        assert w_a.data.shape == (2, 32)
    assert [key for key, _ in a.items()] == list(BRANCH_ORDER)
    assert sum(w.size for w in a.values()) == strf_param_count(32)


def test_branch_subset_configs(rng):
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    only_tf = default_cfg(branches=(("temporal", "fine"),))
    params = make_params(8, only_tf)
    out = strf_forward(f, only_tf, params)
    cfg_full = default_cfg()
    mask = fam_mask(f, params[("temporal", "fine")], "temporal", cfg_full.r_fine, cfg_full.pool_fine,
                    cfg_full.temperature)
    manual = ffm_apply(f, mask).data  # inactive spatial module passes through untouched
    assert out.data.shape == f.data.shape
    assert np.allclose(out.data, manual, atol=1e-10)


@pytest.mark.parametrize("integration", ("temporal-then-spatial", "spatial-then-temporal", "parallel"))
@pytest.mark.parametrize("dimension", ("temporal", "spatial"))
def test_one_dimension_unit_is_its_branch(rng, integration, dimension):
    # the dimension with no active branch passes its input through in a
    # cascade and adds nothing, not even that input, in parallel
    f = t64(rng.normal(size=(1, 8, 3, 3, 2)))
    cfg = default_cfg(integration=integration, branches=((dimension, "fine"), (dimension, "coarse")))
    params = make_params(8, cfg)
    out = strf_forward(f, cfg, params)
    assert np.array_equal(out.data, ffm_branch(f, dimension, cfg, params).data)


def test_branch_subset_validation():
    with pytest.raises(ConfigError):
        default_cfg(branches=())
    with pytest.raises(ConfigError):
        default_cfg(branches=(("temporal", "sideways"),))


def test_resolution_ordering_enforced():
    with pytest.raises(ConfigError):
        default_cfg(r_fine=5, r_coarse=3)


@pytest.mark.parametrize(
    "name, value, match",
    [
        ("r_fine", 0, "r_fine must be odd and positive"),
        ("r_coarse", 4, "r_coarse must be odd and positive"),
        ("pool_fine", "min", "pool_fine must be one of"),
        ("pool_coarse", "min", "pool_coarse must be one of"),
        ("reduction", 0, "reduction must be >= 1"),
        ("temperature", 0.0, "temperature must be positive"),
        ("temperature", -1.0, "temperature must be positive"),
        ("temperature", float("nan"), "temperature must be positive"),
        ("branches", (("temporal", "fine"), ("temporal", "fine")), "repeat-free"),
    ],
)
def test_strf_config_rejects(name, value, match):
    with pytest.raises(ConfigError, match=match):
        StrfConfig(**{name: value})


def test_unknown_dimension_rejected(rng):
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    cfg = default_cfg()
    params = make_params(8, cfg)
    with pytest.raises(ConfigError, match="dimension"):
        fam_mask(f, params[("temporal", "fine")], "diagonal", 1)
    with pytest.raises(ConfigError, match="dimension"):
        ffm_branch(f, "diagonal", cfg, params)


def test_strf_gradient_flows_to_all_weights(rng):
    f = t64(rng.normal(size=(1, 8, 2, 3, 2)))
    cfg = default_cfg()
    params = make_params(8, cfg)
    for w in params.values():
        w.requires_grad = True
    (strf_forward(f, cfg, params) ** 2).sum().backward()
    assert f.grad is not None and np.abs(f.grad).sum() > 0
    for (d, k), w in params.items():
        assert w.grad is not None and np.abs(w.grad).sum() > 0, (d, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_masks_row_stochastic(seed):
    g = np.random.Generator(np.random.PCG64(seed))
    c = int(g.integers(1, 9))
    f = Tensor(g.normal(size=(1, c, 2, 3, 2)) * g.uniform(0.2, 3.0))
    w = Tensor(g.normal(size=(max(1, c // 16), c)))
    dimension = ("temporal", "spatial")[int(g.integers(0, 2))]
    resolution = int(g.choice([1, 3, 5]))
    pool = ("max", "avg")[int(g.integers(0, 2))]
    mask = fam_mask(f, w, dimension, resolution, pool=pool).data[0]
    assert np.allclose(mask.sum(axis=1), 1.0, atol=1e-5)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_constant_law(seed):
    g = np.random.Generator(np.random.PCG64(seed))
    value = float(g.uniform(-3, 3))
    if abs(value) < 1e-3:
        value = 1.0
    f = Tensor(np.full((1, 8, 3, 2, 3), value))
    cfg = StrfConfig(integration="parallel")
    params = init_strf_params(8, cfg, g)
    out = strf_forward(f, cfg, params)
    assert np.allclose(out.data, 4 * value, atol=1e-5)


# -- one tape node per dimension --------------------------------------------

# the branch subsets tools/fingerprint.py trains, each with its coarse kinds
# average-pooled (at temperature 2.5) and max-pooled
FINGERPRINT_BRANCHES = (BRANCH_ORDER, (("temporal", "fine"),), (("spatial", "coarse"),))


@pytest.mark.parametrize("integration", ("temporal-then-spatial", "spatial-then-temporal", "parallel"))
@pytest.mark.parametrize("branches", FINGERPRINT_BRANCHES, ids=("all", "temporal-fine", "spatial-coarse"))
@pytest.mark.parametrize("pool_coarse, temperature", (("avg", 2.5), ("max", 4.0)))
def test_taped_and_untaped_unit_are_bit_identical(rng, integration, branches, pool_coarse, temperature):
    x = rng.normal(size=(2, 8, 4, 4, 2)).astype(np.float32)
    cfg = StrfConfig(integration=integration, branches=branches, pool_coarse=pool_coarse,
                     temperature=temperature)
    params = make_params(8, cfg)
    taped = strf_forward(Tensor(x, requires_grad=True), cfg, params)
    assert taped.requires_grad
    with no_grad():
        untaped = strf_forward(Tensor(x), cfg, params)
    assert not untaped.requires_grad
    assert np.array_equal(taped.data, untaped.data)


def test_branch_node_matches_summed_loop_oracles(rng):
    f = rng.normal(size=(8, 3, 5, 4))
    for pool_fine in POOL_MODES:
        for pool_coarse in POOL_MODES:
            for r_fine, r_coarse in ((1, 1), (1, 3), (1, 5), (3, 3), (3, 5), (5, 5)):
                cfg = StrfConfig(r_fine=r_fine, r_coarse=r_coarse, pool_fine=pool_fine,
                                 pool_coarse=pool_coarse, reduction=4, temperature=2.5)
                params = init_strf_params(8, cfg, rng, dtype=np.float64)
                for dimension in ("temporal", "spatial"):
                    want = 0.0
                    for kind, resolution, pool in (("fine", r_fine, pool_fine), ("coarse", r_coarse, pool_coarse)):
                        mask = fam_mask_loops(f, dimension, resolution, pool, 4, 2.5, params[(dimension, kind)].data)
                        want = want + np.asarray(ffm_apply_loops(f, mask))
                    got = ffm_branch(t64(f[None]), dimension, cfg, params).data[0]
                    assert np.allclose(got, want, rtol=0, atol=1e-10), (dimension, cfg)


@pytest.mark.parametrize("dtype, logits", (
    (np.float32, [0.0, -90.0, -95.0, -100.0]),
    (np.float64, [0.0, -710.0, -720.0, -730.0]),
))
def test_extreme_logits_leave_no_subnormal(dtype, logits):
    # each logit gap is one whose exponential is subnormal in the dtype
    tiny = np.finfo(dtype).tiny
    mask = softmax_rows(Tensor(np.array([logits, logits[::-1]], dtype=dtype))).data
    assert not np.any((mask > 0) & (mask < tiny))
    assert np.allclose(mask.sum(axis=-1), 1.0, rtol=0, atol=np.finfo(dtype).eps * 4)

    # two sites holding big and 0: the Gram is [[big^2, 0], [0, 0]], so the
    # first mask row is (1, exp(-big^2)), a subnormal, and the unit's output
    # at the second site is big * exp(-big^2) unless that entry is flushed
    big = 10.0 if dtype == np.float32 else 27.0
    f = np.array([big, 0.0], dtype=dtype).reshape(1, 1, 1, 1, 2)
    weight = Tensor(np.ones((1, 1), dtype=dtype), requires_grad=True)
    cfg = StrfConfig(r_fine=1, temperature=1.0, branches=(("spatial", "fine"),))
    mask = fam_mask(Tensor(f), weight, "spatial", 1, temperature=1.0).data
    assert not np.any((mask > 0) & (mask < tiny))
    assert np.allclose(mask.sum(axis=-1), 1.0, rtol=0, atol=np.finfo(dtype).eps * 4)
    for taped in (True, False):
        out = strf_forward(Tensor(f, requires_grad=taped), cfg, {("spatial", "fine"): weight}).data
        assert not np.any((np.abs(out) > 0) & (np.abs(out) < tiny)), taped
        assert out.ravel()[0] == dtype(big)

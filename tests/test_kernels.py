import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strf.errors import ConfigError, ShapeError
from strf.factorize import StrfConfig, conv_channel_mix, ffm_branch, init_strf_params, strf_forward
from strf.kernels import _columns, conv3d, pool3d, strided_max_pool3d
from strf.gradcheck import inner
from strf.tensor import Tensor, no_grad

from oracles import (
    avg_pool_input_grad_loops,
    channel_mix_loops,
    conv3d_input_grad_loops,
    conv3d_loops,
    im2col_windows,
    max_pool_loops,
    pool3d_loops,
)


def vol(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def triple_id(triple):
    return "x".join(map(str, triple))


UNIT = StrfConfig()
UNIT_PARAMS = init_strf_params(4, UNIT, np.random.Generator(np.random.PCG64(0)), dtype=np.float64)
# The unit's array steps run inside ffm_branch, which checks the rank before
# any of them; so the "fam_mask" entry calls ffm_branch, and the
# "conv_channel_mix" entry the network's channel mix, a 1x1x1 conv3d.
VOLUME_OPS = {
    "conv3d": lambda x: conv3d(x, Tensor(np.zeros((2, 4, 1, 3, 3)))),
    "conv_channel_mix": lambda x: conv3d(x, Tensor(np.zeros((2, 4, 1, 1, 1)))),
    "pool3d": lambda x: pool3d(x.data, (3, 1, 1), "max", False)[0],
    "pool3d_identity": lambda x: pool3d(x.data, (1, 1, 1), "avg", False)[0],
    "strided_max_pool3d": lambda x: strided_max_pool3d(x, (1, 3, 3), (1, 2, 2)),
    "fam_mask": lambda x: ffm_branch(x, "temporal", UNIT, UNIT_PARAMS),
    "strf_forward": lambda x: strf_forward(x, UNIT, UNIT_PARAMS),
}


@pytest.mark.parametrize("op", sorted(VOLUME_OPS))
def test_unbatched_volume_rejected(op):
    # a single volume is a batch of one; rank-4 input names the rank-5 layout
    with pytest.raises(ShapeError, match=r"\(batch, channels, time, height, width\)"):
        VOLUME_OPS[op](vol(np.zeros((4, 2, 3, 2))))
    assert VOLUME_OPS[op](vol(np.zeros((1, 4, 2, 3, 2)))).ndim in (3, 5)


# pool3d is the unit's pool step on arrays: it returns the pooled array and,
# when asked to keep it, the backward its caller's tape node runs


def test_max_pool_temporal_window_frozen():
    x = np.array([1.0, 5.0, 2.0, 0.0]).reshape(1, 1, 4, 1, 1)
    out, _ = pool3d(x, (3, 1, 1), "max", False)
    assert np.array_equal(out.reshape(4), [5.0, 5.0, 5.0, 2.0])


def test_pool_identity_kernel_bit_exact(rng):
    x = rng.normal(size=(1, 3, 4, 5, 2)).astype(np.float32)
    for mode in ("max", "avg"):
        out, backward = pool3d(x, (1, 1, 1), mode, True)
        assert out is x
        g = rng.normal(size=x.shape)
        assert backward(g) is g


def test_avg_pool_constant_stays_constant():
    out, _ = pool3d(np.full((1, 2, 5, 4, 3), 3.25), (3, 3, 3), "avg", False)
    # border windows are smaller but divide by the in-bounds count
    assert np.allclose(out, 3.25)


def test_max_pool_padding_never_wins():
    out, _ = pool3d(np.full((1, 1, 3, 3, 3), -7.0), (3, 3, 3), "max", False)
    assert np.allclose(out, -7.0)


def test_pool_even_kernel_rejected():
    x = np.zeros((1, 1, 4, 4, 4))
    with pytest.raises(ConfigError):
        pool3d(x, (2, 1, 1), "max", False)
    with pytest.raises(ConfigError):
        pool3d(x, (1, 4, 4), "avg", False)


@pytest.mark.parametrize("kernel", [(1, 1, 1), (3, 1, 1)])
def test_pool_unknown_mode_rejected(kernel):
    # also where a (1, 1, 1) kernel makes pooling the identity
    with pytest.raises(ConfigError, match="pool mode"):
        pool3d(np.zeros((1, 1, 3, 3, 3)), kernel, "median", False)


def test_pool_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 3, 4, 3))
    for mode in ("max", "avg"):
        for kernel in ((3, 1, 1), (1, 3, 3), (3, 3, 3), (5, 1, 1), (1, 5, 5)):
            got = pool3d(x[None], kernel, mode, False)[0][0]
            assert np.allclose(got, pool3d_loops(x, kernel, mode), atol=1e-12), (mode, kernel)


def test_max_pool_grad_routes_to_first_max():
    # two equal maxima in one window: the earlier scan position takes the grad
    out, backward = pool3d(np.array([2.0, 5.0, 5.0]).reshape(1, 1, 3, 1, 1), (3, 1, 1), "max", True)
    assert np.array_equal(backward(np.ones(out.shape)).reshape(3), [0.0, 3.0, 0.0])


@pytest.mark.parametrize("kernel", [(3, 1, 1), (1, 3, 3), (3, 3, 3), (5, 1, 1), (1, 5, 5)], ids=triple_id)
def test_avg_pool_grad_matches_loop_oracle(rng, kernel):
    x = rng.normal(size=(2, 3, 4, 5, 3))
    out, backward = pool3d(x, kernel, "avg", True)
    upstream = rng.normal(size=out.shape)
    grad = backward(upstream)
    assert grad.shape == x.shape and grad.dtype == np.float64
    for i in range(2):
        np.testing.assert_allclose(grad[i], avg_pool_input_grad_loops(upstream[i], kernel), rtol=0, atol=1e-12)


def test_avg_pool_grad_uniform_over_window():
    out, backward = pool3d(np.zeros((1, 1, 1, 1, 3)), (1, 1, 3), "avg", True)
    # cell 0 is in 2 windows (sizes 2 and 3), cell 1 in 3, cell 2 in 2
    assert np.allclose(backward(np.ones(out.shape)).reshape(3), [1 / 2 + 1 / 3, 1 / 2 + 1 / 3 + 1 / 2, 1 / 3 + 1 / 2])


def test_pool_batched_matches_per_item(rng):
    x = rng.normal(size=(2, 3, 4, 3, 2))
    batched, _ = pool3d(x, (1, 3, 3), "max", False)
    for i in range(2):
        single, _ = pool3d(x[i : i + 1], (1, 3, 3), "max", False)
        assert np.array_equal(batched[i], single[0])


def test_conv_channel_mix_identity_and_sum(rng):
    x = rng.normal(size=(1, 2, 3, 2, 2))
    ident = conv_channel_mix(x, np.eye(2))
    assert np.allclose(ident, x)
    summed = conv_channel_mix(x, np.array([[1.0, 1.0]]))[0]
    assert np.allclose(summed[0], x[0, 0] + x[0, 1])


def test_conv_channel_mix_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 2, 3, 2))
    w = rng.normal(size=(3, 4))
    got = conv_channel_mix(x[None], w)[0]
    assert np.allclose(got, channel_mix_loops(x, w), atol=1e-12)


def test_conv_channel_mix_shape_error():
    # the unit checks its mix weights once, in ffm_branch, before any step runs
    params = {("temporal", "fine"): Tensor(np.zeros((2, 4, 1, 1, 1)))}
    cfg = StrfConfig(branches=(("temporal", "fine"),))
    with pytest.raises(ShapeError, match="branch weight dims"):
        ffm_branch(vol(np.zeros((1, 4, 1, 1, 1))), "temporal", cfg, params)


def test_conv3d_identity_kernel(rng):
    x = rng.normal(size=(1, 3, 2, 4, 4))
    w = np.zeros((3, 3, 1, 1, 1))
    for c in range(3):
        w[c, c, 0, 0, 0] = 1.0
    out = conv3d(vol(x), Tensor(w), (1, 1, 1)).data
    assert np.allclose(out, x)


def test_conv3d_zero_kernel(rng):
    x = rng.normal(size=(1, 2, 2, 3, 3))
    out = conv3d(vol(x), Tensor(np.zeros((4, 2, 3, 3, 3))), (1, 1, 1)).data[0]
    assert np.array_equal(out, np.zeros((4, 2, 3, 3)))


def test_conv3d_same_geometry_is_ceil():
    x = vol(np.zeros((1, 1, 5, 7, 7)))
    w = Tensor(np.zeros((2, 1, 3, 3, 3)))
    out = conv3d(x, w, (2, 2, 2))
    assert out.data[0].shape == (2, 3, 4, 4)


def test_conv3d_matches_loop_oracle(rng):
    x = rng.normal(size=(3, 4, 5, 4))
    w = rng.normal(size=(2, 3, 3, 3, 3))
    for stride in ((1, 1, 1), (1, 2, 2), (2, 2, 2)):
        got = conv3d(vol(x[None]), Tensor(w), stride).data[0]
        assert np.allclose(got, conv3d_loops(x, w, stride), atol=1e-10), stride


def test_conv3d_asymmetric_kernels(rng):
    x = rng.normal(size=(2, 4, 3, 3))
    for kshape in ((3, 1, 1), (1, 3, 3)):
        w = rng.normal(size=(2, 2) + kshape)
        got = conv3d(vol(x[None]), Tensor(w), (1, 1, 1)).data[0]
        assert np.allclose(got, conv3d_loops(x, w, (1, 1, 1)), atol=1e-10)


@pytest.mark.parametrize("op,extents", [
    (lambda x, e: conv3d(x, Tensor(np.zeros((1, 1, 1, 3, 3))), e), (1.9, 2, 2)),
    (lambda x, e: Tensor(pool3d(x.data, e, "avg", False)[0]), (3.7, 1, 1)),
    (lambda x, e: strided_max_pool3d(x, (1, 3, 3), e), (1, 2.5, 2)),
], ids=["conv3d_stride", "pool3d_kernel", "strided_max_pool3d_stride"])
def test_fractional_extent_rejected(op, extents):
    x = vol(np.arange(64.0).reshape(1, 1, 4, 4, 4))
    with pytest.raises(ConfigError, match="must be three positive extents"):
        op(x, extents)
    # numpy integers, as read from an array's dims, are whole extents
    whole = tuple(int(e) for e in extents)
    assert np.array_equal(op(x, tuple(np.int64(e) for e in whole)).data, op(x, whole).data)


def test_conv3d_even_kernel_rejected():
    x = vol(np.zeros((1, 1, 4, 4, 4)))
    with pytest.raises(ConfigError, match="conv kernel extents must be odd"):
        conv3d(x, Tensor(np.zeros((1, 1, 2, 1, 1))))
    with pytest.raises(ConfigError, match="conv kernel extents must be odd"):
        conv3d(x, Tensor(np.zeros((1, 1, 1, 4, 4))), (1, 2, 2))


# Input extents 6 are divisible by every stride, so the output gradient is
# spread onto the input grid floor(stride / 2) cells past the origin on every
# strided axis a kernel of 3 or more spans; extents 5 and 7 leave a remainder
# of 1 (or 2), where that offset is 0 (or 1).
@pytest.mark.parametrize("sizes", [(6, 6, 6), (5, 7, 7)], ids=["divisible", "remainder"])
@pytest.mark.parametrize("stride", [(1, 2, 2), (2, 2, 3), (3, 3, 3)], ids=triple_id)
@pytest.mark.parametrize("kernel", [(1, 1, 1), (1, 3, 3), (1, 7, 7), (3, 3, 3), (5, 5, 5)], ids=triple_id)
def test_conv3d_input_grad_matches_scatter_oracle(rng, kernel, stride, sizes):
    x = vol(rng.normal(size=(2, 2) + sizes))
    w = rng.normal(size=(3, 2) + kernel)
    out = conv3d(x, Tensor(w), stride)
    upstream = rng.normal(size=out.shape)
    inner(out, upstream).backward()
    for i in range(2):
        expect = conv3d_input_grad_loops(upstream[i], w, x.shape[1:], stride)
        np.testing.assert_allclose(x.grad[i], expect, rtol=0, atol=1e-10)


def test_conv3d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv3d(vol(np.zeros((1, 3, 2, 2, 2))), Tensor(np.zeros((1, 4, 1, 1, 1))), (1, 1, 1))


def test_conv3d_batched_matches_per_item(rng):
    x = rng.normal(size=(3, 2, 3, 4, 4))
    w = rng.normal(size=(2, 2, 1, 3, 3))
    batched = conv3d(vol(x), Tensor(w), (1, 2, 2)).data
    for i in range(3):
        single = conv3d(vol(x[i : i + 1]), Tensor(w), (1, 2, 2)).data
        assert np.allclose(batched[i], single[0], atol=1e-12)


@pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2)], ids=["unit", "strided"])
def test_conv3d_float32_reruns_are_bit_identical(stride):
    g = np.random.Generator(np.random.PCG64(11))
    x = g.normal(size=(4, 16, 4, 16, 8)).astype(np.float32)
    w = g.normal(size=(32, 16, 1, 3, 3)).astype(np.float32)
    upstream = g.normal(size=(4, 32, 4, 16 // stride[1], 8 // stride[2])).astype(np.float32)

    def run():
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv3d(xt, wt, stride)
        inner(out, upstream).backward()
        return out.data, xt.grad, wt.grad

    for first, second in zip(run(), run()):
        assert first.dtype == np.float32
        assert np.array_equal(first, second)


@st.composite
def conv_cases(draw, unit_stride=False):
    kernel = tuple(draw(st.sampled_from((1, 3, 5))) for _ in range(3))
    stride = (1, 1, 1) if unit_stride else tuple(draw(st.integers(1, 3)) for _ in range(3))
    sizes = tuple(draw(st.integers(1, 5)) for _ in range(3))
    dims = (draw(st.integers(1, 2)), draw(st.integers(1, 3))) + sizes
    return dims, draw(st.integers(1, 3)), kernel, stride, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=80, deadline=None)
@given(st.one_of(conv_cases(), conv_cases(unit_stride=True)))
def test_property_conv3d_matches_oracle_and_adjoint(case):
    # unit stride on its own as well, where dX convolves the output gradient
    # itself rather than its spread onto the input grid
    dims, c_out, kernel, stride, seed = case
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=dims)
    w = g.normal(size=(c_out, dims[1]) + kernel)
    xt, wt = vol(x), Tensor(w, requires_grad=True)
    out = conv3d(xt, wt, stride)
    for i in range(dims[0]):
        assert np.allclose(out.data[i], conv3d_loops(x[i], w, stride), atol=1e-10)
    # the map is bilinear, so <conv(x, w), s> = <x, dX> = <w, dW> for any seed s
    s = g.normal(size=out.shape)
    inner(out, s).backward()
    pairing = float(np.sum(out.data * s))
    assert np.isclose(np.sum(x * xt.grad), pairing, rtol=1e-10, atol=1e-10)
    assert np.isclose(np.sum(w * wt.grad), pairing, rtol=1e-10, atol=1e-10)


@st.composite
def column_cases(draw):
    kernel = tuple(draw(st.sampled_from((1, 3, 5, 7))) for _ in range(3))
    stride = tuple(draw(st.integers(1, 3)) for _ in range(3))
    dims = (draw(st.integers(1, 2)), draw(st.integers(1, 2))) + tuple(draw(st.integers(1, 9)) for _ in range(3))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    layout = draw(st.sampled_from(("contiguous", "reversed", "w-major", "every-other")))
    nan_share = draw(st.sampled_from((0.0, 0.05, 0.3)))
    return kernel, stride, dims, dtype, layout, nan_share, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=300, deadline=None)
@given(column_cases())
def test_property_columns_match_the_window_view_copy_bit_for_bit(case):
    # Extents run below the kernel and past multiples of the stride. Cells
    # are nonzero, and NaN cells must land in exactly the columns whose
    # window reads them: a shifted run that wraps into a neighbouring row,
    # plane or sample and is left unzeroed fails the comparison.
    kernel, stride, dims, dtype, layout, nan_share, seed = case
    g = np.random.Generator(np.random.PCG64(seed))
    values = g.uniform(1.0, 2.0, size=dims)
    values[g.random(dims) < nan_share] = np.nan
    if layout == "contiguous":
        x = values.astype(dtype)
    elif layout == "reversed":  # negative strides along h
        x = values[:, :, :, ::-1].astype(dtype)[:, :, :, ::-1]
    elif layout == "w-major":  # w varies slowest in memory
        x = np.ascontiguousarray(values.astype(dtype).transpose(4, 0, 1, 2, 3)).transpose(1, 2, 3, 4, 0)
    else:  # every other cell of a wider array along t and w
        wide = np.full(dims[:2] + (2 * dims[2], dims[3], 2 * dims[4]), -7.0, dtype=dtype)
        wide[:, :, ::2, :, ::2] = values
        x = wide[:, :, ::2, :, ::2]
    assert np.array_equal(x, values.astype(dtype), equal_nan=True)
    cols, outs = _columns(x, kernel, stride)
    expect = im2col_windows(x, kernel, stride)
    assert outs == tuple(-(-e // s) for e, s in zip(dims[2:], stride))
    assert cols.dtype == expect.dtype and cols.shape == expect.shape
    assert np.array_equal(cols, expect, equal_nan=True)


def test_strided_max_pool_stem_geometry(rng):
    x = rng.normal(size=(1, 2, 8, 64, 32))
    out = strided_max_pool3d(vol(x), (1, 3, 3), (1, 2, 2)).data[0]
    assert out.shape == (2, 8, 32, 16)


def test_strided_max_pool_values(rng):
    x = rng.normal(size=(1, 1, 4, 4))
    out = strided_max_pool3d(vol(x[None]), (1, 3, 3), (1, 2, 2)).data[0]
    # total pad 1 splits as 0 before / 1 after, so window i starts at 2*i
    pad = np.full((1, 1, 5, 5), -np.inf)
    pad[:, :, 0:4, 0:4] = x
    expect = np.zeros((1, 1, 2, 2))
    for i in range(2):
        for j in range(2):
            expect[0, 0, i, j] = pad[0, 0, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3].max()
    assert np.allclose(out, expect)


def test_strided_max_pool_grad_routes_to_first_max():
    # kernel 3 at stride 2 pads 0 before / 1 after: windows cover rows and
    # columns {0, 1, 2} and {2, 3}, so row and column 2 lie in two windows
    x = vol(np.array([
        [0.0, 1.0, 9.0, 2.0],
        [3.0, 0.0, 1.0, 0.0],
        [1.0, 2.0, 0.0, 0.0],
        [4.0, 4.0, 1.0, 5.0],
    ]).reshape(1, 1, 1, 4, 4))
    out = strided_max_pool3d(x, (1, 3, 3), (1, 2, 2))
    assert np.array_equal(out.data.reshape(2, 2), [[9.0, 9.0], [4.0, 5.0]])
    inner(out, np.array([1.0, 10.0, 100.0, 1000.0]).reshape(1, 1, 1, 2, 2)).backward()
    expect = np.zeros((4, 4))
    expect[0, 2] = 1.0 + 10.0  # the max of both top windows takes both grads
    expect[3, 0] = 100.0  # tie at (3, 0) and (3, 1): the earlier scan position wins
    expect[3, 3] = 1000.0
    assert np.array_equal(x.grad.reshape(4, 4), expect)


def test_strided_max_pool_padding_never_wins(rng):
    # odd and even extents, so some windows run past the far edge
    for shape in ((1, 2, 1, 5, 4), (2, 1, 2, 4, 7)):
        x = vol(-rng.uniform(1.0, 2.0, size=shape))
        out = strided_max_pool3d(x, (1, 3, 3), (1, 2, 2))
        assert np.all(np.isfinite(out.data)) and np.all(out.data < -1.0)
        inner(out, np.ones(out.shape)).backward()
        assert x.grad.sum() == out.size  # every output's grad lands in bounds


def test_max_pool_nan_window_yields_nan_and_routes_to_first_nan():
    x = np.array([1.0, np.nan, 3.0, np.nan, 0.0]).reshape(1, 1, 5, 1, 1)
    out, backward = pool3d(x, (3, 1, 1), "max", True)
    # windows {pad, 1, nan}, {1, nan, 3}, {nan, 3, nan}, {3, nan, 0}, {nan, 0, pad}
    assert np.all(np.isnan(out))
    assert np.array_equal(backward(np.ones(out.shape)).reshape(5), [0.0, 3.0, 0.0, 2.0, 0.0])


def test_strided_max_pool_nan_routes_to_first_nan():
    data = np.zeros((1, 1, 1, 4, 4))
    data[0, 0, 0, 1, 1] = data[0, 0, 0, 0, 2] = np.nan
    x = vol(data)
    out = strided_max_pool3d(x, (1, 3, 3), (1, 2, 2))
    # windows cover rows/columns {0, 1, 2} and {2, 3}: only the bottom-right one is NaN-free
    assert np.array_equal(np.isnan(out.data).reshape(2, 2), [[True, True], [False, False]])
    inner(out, np.ones(out.shape)).backward()
    expect = np.zeros((4, 4))
    expect[0, 2] = 2.0  # first NaN in scan order of both top windows
    expect[2, 0] = 1.0  # all-zero windows: their first in-bounds tap wins
    expect[2, 2] = 1.0
    assert np.array_equal(x.grad.reshape(4, 4), expect)


MAX_POOL_GEOMETRIES = [
    ((3, 1, 1), (1, 1, 1)),
    ((1, 3, 3), (1, 1, 1)),
    ((3, 3, 3), (1, 1, 1)),
    ((1, 3, 3), (1, 2, 2)),  # the network stem
]


@st.composite
def max_pool_cases(draw):
    kernel, stride = draw(st.sampled_from(MAX_POOL_GEOMETRIES))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dims = (draw(st.integers(1, 2)), draw(st.integers(1, 2))) + tuple(draw(st.integers(1, 5)) for _ in range(3))
    # few distinct small integers make ties common, signed zeros among them
    x = draw(arrays(dtype, dims, elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])))
    return x, kernel, stride, draw(st.integers(0, 2**31 - 1))


def pool_max(x: np.ndarray, kernel, stride):
    """Max pooling of ``x`` and its backward: the unit's array ``pool3d`` at
    unit stride, the stem's taped ``strided_max_pool3d`` at any other."""
    if stride == (1, 1, 1):
        return pool3d(x, kernel, "max", True)
    xt = Tensor(x, requires_grad=True)
    out = strided_max_pool3d(xt, kernel, stride)

    def backward(g: np.ndarray) -> np.ndarray:
        inner(out, g).backward()
        return xt.grad

    return out.data, backward


@settings(max_examples=60, deadline=None)
@given(max_pool_cases())
def test_property_max_pool_matches_oracle_values_bits_and_grads(case):
    x, kernel, stride, seed = case
    out, backward = pool_max(x, kernel, stride)
    x_grad = backward(np.ones(out.shape, dtype=x.dtype))
    for i in range(x.shape[0]):
        values, grad = max_pool_loops(x[i], kernel, stride)
        assert out[i].tobytes() == values.tobytes()  # -0.0 and 0.0 differ here
        assert x_grad.dtype == x.dtype
        assert np.array_equal(x_grad[i], grad)
    # a distinct upstream gradient per output, so each winner must receive
    # its own output's share; a cell that wins three or more windows may sum
    # them in another order than the oracle
    s = np.random.Generator(np.random.PCG64(seed)).normal(size=out.shape)
    x_grad = pool_max(x.astype(np.float64), kernel, stride)[1](s)
    for i in range(x.shape[0]):
        _, grad = max_pool_loops(x[i].astype(np.float64), kernel, stride, s[i])
        np.testing.assert_allclose(x_grad[i], grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel, stride", MAX_POOL_GEOMETRIES)
def test_max_pool_unrecorded_forward_is_bit_identical_and_keeps_no_closure(rng, kernel, stride):
    x = rng.integers(-2, 3, size=(2, 3, 4, 6, 5)).astype(np.float32)
    x[x == 0] = np.where(rng.random(np.count_nonzero(x == 0)) < 0.5, -0.0, 0.0)
    if stride == (1, 1, 1):
        kept, backward = pool3d(x, kernel, "max", True)
        plain, none = pool3d(x, kernel, "max", False)
        assert backward is not None and none is None
        assert plain.tobytes() == kept.tobytes()
        return
    recorded = strided_max_pool3d(Tensor(x, requires_grad=True), kernel, stride)
    assert recorded._grad_fn is not None
    with no_grad():
        plain = strided_max_pool3d(Tensor(x, requires_grad=True), kernel, stride)
    constant = strided_max_pool3d(Tensor(x), kernel, stride)
    for out in (plain, constant):
        assert out.data.tobytes() == recorded.data.tobytes()
        assert out._grad_fn is None and out._parents == () and not out.requires_grad


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["max", "avg"]))
def test_property_pool_identity_kernel(seed, mode):
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=(1, 2, 3, 3, 2)).astype(np.float32)
    assert pool3d(x, (1, 1, 1), mode, False)[0] is x


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_pool_matches_oracle(seed):
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=(2, 3, 3, 2))
    kernel = tuple(g.choice([1, 3], size=3))
    mode = ["max", "avg"][int(g.integers(0, 2))]
    got = pool3d(x[None], kernel, mode, False)[0][0]
    assert np.allclose(got, pool3d_loops(x, kernel, mode), atol=1e-12)

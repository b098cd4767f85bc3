import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strf.errors import ConfigError, ShapeError
from strf.kernels import conv3d, conv_channel_mix, pool3d, strided_max_pool3d
from strf.tensor import Tensor

from oracles import channel_mix_loops, conv3d_loops, pool3d_loops


def vol(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_max_pool_temporal_window_frozen():
    x = vol(np.array([1.0, 5.0, 2.0, 0.0]).reshape(1, 4, 1, 1))
    out = pool3d(x, (3, 1, 1), "max")
    assert np.array_equal(out.data.reshape(4), [5.0, 5.0, 5.0, 2.0])


def test_pool_identity_kernel_bit_exact(rng):
    x = rng.normal(size=(3, 4, 5, 2)).astype(np.float32)
    for mode in ("max", "avg"):
        out = pool3d(Tensor(x), (1, 1, 1), mode)
        assert np.array_equal(out.data, x)


def test_avg_pool_constant_stays_constant():
    x = vol(np.full((2, 5, 4, 3), 3.25))
    out = pool3d(x, (3, 3, 3), "avg")
    # border windows are smaller but divide by the in-bounds count
    assert np.allclose(out.data, 3.25)


def test_max_pool_padding_never_wins():
    x = vol(np.full((1, 3, 3, 3), -7.0))
    out = pool3d(x, (3, 3, 3), "max")
    assert np.allclose(out.data, -7.0)


def test_pool_even_kernel_rejected():
    x = vol(np.zeros((1, 4, 4, 4)))
    with pytest.raises(ConfigError):
        pool3d(x, (2, 1, 1), "max")
    with pytest.raises(ConfigError):
        pool3d(x, (1, 4, 4), "avg")


def test_pool_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 3, 4, 3))
    for mode in ("max", "avg"):
        for kernel in ((3, 1, 1), (1, 3, 3), (3, 3, 3), (5, 1, 1), (1, 5, 5)):
            got = pool3d(vol(x), kernel, mode).data
            assert np.allclose(got, pool3d_loops(x, kernel, mode), atol=1e-12), (mode, kernel)


def test_max_pool_grad_routes_to_first_max():
    # two equal maxima in one window: the earlier scan position takes the grad
    x = vol(np.array([2.0, 5.0, 5.0]).reshape(1, 3, 1, 1))
    out = pool3d(x, (3, 1, 1), "max")
    out.sum().backward()
    assert np.array_equal(x.grad.reshape(3), [0.0, 3.0, 0.0])


def test_avg_pool_grad_uniform_over_window():
    x = vol(np.zeros((1, 1, 1, 3)))
    pool3d(x, (1, 1, 3), "avg").sum().backward()
    # cell 0 is in 2 windows (sizes 2 and 3), cell 1 in 3, cell 2 in 2
    assert np.allclose(x.grad.reshape(3), [1 / 2 + 1 / 3, 1 / 2 + 1 / 3 + 1 / 2, 1 / 3 + 1 / 2])


def test_pool_batched_matches_per_item(rng):
    x = rng.normal(size=(2, 3, 4, 3, 2))
    batched = pool3d(vol(x), (1, 3, 3), "max").data
    for i in range(2):
        single = pool3d(vol(x[i]), (1, 3, 3), "max").data
        assert np.array_equal(batched[i], single)


def test_conv_channel_mix_identity_and_sum(rng):
    x = rng.normal(size=(2, 3, 2, 2))
    ident = conv_channel_mix(vol(x), Tensor(np.eye(2))).data
    assert np.allclose(ident, x)
    summed = conv_channel_mix(vol(x), Tensor(np.array([[1.0, 1.0]]))).data
    assert np.allclose(summed[0], x[0] + x[1])


def test_conv_channel_mix_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 2, 3, 2))
    w = rng.normal(size=(3, 4))
    got = conv_channel_mix(vol(x), Tensor(w)).data
    assert np.allclose(got, channel_mix_loops(x, w), atol=1e-12)


def test_conv_channel_mix_shape_error():
    with pytest.raises(ShapeError):
        conv_channel_mix(vol(np.zeros((3, 1, 1, 1))), Tensor(np.zeros((2, 4))))


def test_conv3d_valid_ones_gives_kernel_volume():
    x = vol(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 1, 3, 3)))
    out = conv3d(x, w, (1, 1, 1), "valid")
    assert out.data.shape == (1, 1, 1, 1)
    assert np.isclose(out.data.item(), 9.0)


def test_conv3d_identity_kernel(rng):
    x = rng.normal(size=(3, 2, 4, 4))
    w = np.zeros((3, 3, 1, 1, 1))
    for c in range(3):
        w[c, c, 0, 0, 0] = 1.0
    out = conv3d(vol(x), Tensor(w), (1, 1, 1), "same").data
    assert np.allclose(out, x)


def test_conv3d_zero_kernel(rng):
    x = rng.normal(size=(2, 2, 3, 3))
    out = conv3d(vol(x), Tensor(np.zeros((4, 2, 3, 3, 3))), (1, 1, 1), "same").data
    assert np.array_equal(out, np.zeros((4, 2, 3, 3)))


def test_conv3d_same_geometry_is_ceil():
    x = vol(np.zeros((1, 5, 7, 7)))
    w = Tensor(np.zeros((2, 1, 3, 3, 3)))
    out = conv3d(x, w, (2, 2, 2), "same")
    assert out.data.shape == (2, 3, 4, 4)


def test_conv3d_matches_loop_oracle(rng):
    x = rng.normal(size=(3, 4, 5, 4))
    w = rng.normal(size=(2, 3, 3, 3, 3))
    for stride in ((1, 1, 1), (1, 2, 2), (2, 2, 2)):
        got = conv3d(vol(x), Tensor(w), stride, "same").data
        assert np.allclose(got, conv3d_loops(x, w, stride, "same"), atol=1e-10), stride
    got = conv3d(vol(x), Tensor(w), (1, 1, 1), "valid").data
    assert np.allclose(got, conv3d_loops(x, w, (1, 1, 1), "valid"), atol=1e-10)


def test_conv3d_asymmetric_kernels(rng):
    x = rng.normal(size=(2, 4, 3, 3))
    for kshape in ((3, 1, 1), (1, 3, 3)):
        w = rng.normal(size=(2, 2) + kshape)
        got = conv3d(vol(x), Tensor(w), (1, 1, 1), "same").data
        assert np.allclose(got, conv3d_loops(x, w, (1, 1, 1), "same"), atol=1e-10)


def test_conv3d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv3d(vol(np.zeros((3, 2, 2, 2))), Tensor(np.zeros((1, 4, 1, 1, 1))), (1, 1, 1), "same")


def test_conv3d_batched_matches_per_item(rng):
    x = rng.normal(size=(3, 2, 3, 4, 4))
    w = rng.normal(size=(2, 2, 1, 3, 3))
    batched = conv3d(vol(x), Tensor(w), (1, 2, 2), "same").data
    for i in range(3):
        single = conv3d(vol(x[i]), Tensor(w), (1, 2, 2), "same").data
        assert np.allclose(batched[i], single, atol=1e-12)


def test_conv3d_float32_reruns_are_bit_identical():
    g = np.random.Generator(np.random.PCG64(11))
    x = g.normal(size=(4, 16, 4, 16, 8)).astype(np.float32)
    w = g.normal(size=(32, 16, 1, 3, 3)).astype(np.float32)
    upstream = g.normal(size=(4, 32, 4, 8, 4)).astype(np.float32)

    def run():
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv3d(xt, wt, (1, 2, 2), "same")
        (out * Tensor(upstream)).sum().backward()
        return out.data, xt.grad, wt.grad

    for first, second in zip(run(), run()):
        assert first.dtype == np.float32
        assert np.array_equal(first, second)


@st.composite
def conv_cases(draw):
    padding = draw(st.sampled_from(["same", "valid"]))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(3))
    stride = tuple(draw(st.integers(1, 3)) for _ in range(3))
    low = kernel if padding == "valid" else (1, 1, 1)
    sizes = tuple(draw(st.integers(k, 5)) for k in low)
    dims = (draw(st.integers(1, 2)), draw(st.integers(1, 3))) + sizes
    return dims, draw(st.integers(1, 3)), kernel, stride, padding, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=40, deadline=None)
@given(conv_cases())
def test_property_conv3d_matches_oracle_and_adjoint(case):
    dims, c_out, kernel, stride, padding, seed = case
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=dims)
    w = g.normal(size=(c_out, dims[1]) + kernel)
    xt, wt = vol(x), Tensor(w, requires_grad=True)
    out = conv3d(xt, wt, stride, padding)
    for i in range(dims[0]):
        assert np.allclose(out.data[i], conv3d_loops(x[i], w, stride, padding), atol=1e-10)
    # the map is bilinear, so <conv(x, w), s> = <x, dX> = <w, dW> for any seed s
    s = g.normal(size=out.shape)
    (out * Tensor(s)).sum().backward()
    pairing = float(np.sum(out.data * s))
    assert np.isclose(np.sum(x * xt.grad), pairing, rtol=1e-10, atol=1e-10)
    assert np.isclose(np.sum(w * wt.grad), pairing, rtol=1e-10, atol=1e-10)


def test_strided_max_pool_stem_geometry(rng):
    x = rng.normal(size=(2, 8, 64, 32))
    out = strided_max_pool3d(vol(x), (1, 3, 3), (1, 2, 2)).data
    assert out.shape == (2, 8, 32, 16)


def test_strided_max_pool_values(rng):
    x = rng.normal(size=(1, 1, 4, 4))
    out = strided_max_pool3d(vol(x), (1, 3, 3), (1, 2, 2)).data
    # total pad 1 splits as 0 before / 1 after, so window i starts at 2*i
    pad = np.full((1, 1, 5, 5), -np.inf)
    pad[:, :, 0:4, 0:4] = x
    expect = np.zeros((1, 1, 2, 2))
    for i in range(2):
        for j in range(2):
            expect[0, 0, i, j] = pad[0, 0, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3].max()
    assert np.allclose(out, expect)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["max", "avg"]))
def test_property_pool_identity_kernel(seed, mode):
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=(2, 3, 3, 2)).astype(np.float32)
    assert np.array_equal(pool3d(Tensor(x), (1, 1, 1), mode).data, x)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_pool_matches_oracle(seed):
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=(2, 3, 3, 2))
    kernel = tuple(g.choice([1, 3], size=3))
    mode = ["max", "avg"][int(g.integers(0, 2))]
    got = pool3d(vol(x), kernel, mode).data
    assert np.allclose(got, pool3d_loops(x, kernel, mode), atol=1e-12)

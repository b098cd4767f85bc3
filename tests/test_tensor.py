import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strf.errors import ContractError, ShapeError
from strf.tensor import (
    Tensor,
    exp,
    log,
    matmul,
    no_grad,
    power,
    relu,
    select_entries,
    softmax_rows,
    sqrt,
)

from oracles import matmul_loops, softmax_rows_loops


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def test_add_mul_values():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal((a + b).data, [[11, 22], [33, 44]])
    assert np.array_equal((a * b).data, [[10, 40], [90, 160]])
    assert np.array_equal((b - a).data, [[9, 18], [27, 36]])
    assert np.allclose((b / a).data, [[10, 10], [10, 10]])


def test_matmul_matches_loop_oracle(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = matmul(t(a), t(b)).data
    assert np.allclose(got, matmul_loops(a, b), atol=1e-12)


def test_matmul_identity_and_zero(rng):
    a = rng.normal(size=(2, 2))
    assert np.allclose(matmul(t(np.eye(2)), t(a)).data, a)
    assert np.array_equal(matmul(t(a), t(np.zeros((2, 2)))).data, np.zeros((2, 2)))


def test_matmul_frozen_example():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).data, [[19, 22], [43, 50]])


def test_matmul_shape_error_names_dims():
    with pytest.raises(ShapeError) as err:
        matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))
    assert "3" in str(err.value) and "4" in str(err.value)


def test_matmul_batched_3d(rng):
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(5, 4, 2))
    got = matmul(t(a), t(b)).data
    for i in range(5):
        assert np.allclose(got[i], matmul_loops(a[i], b[i]), atol=1e-12)


def test_sum_backward_is_ones():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_scalar_product_rule():
    x = t(3.0)
    y = t(5.0)
    (x * y).backward()
    assert x.grad == 5.0 and y.grad == 3.0


def test_broadcast_add_grad():
    x = t(np.ones((3, 4)))
    bias = t(np.arange(4.0))
    (x + bias).sum().backward()
    # each bias entry feeds 3 output cells
    assert np.array_equal(bias.grad, np.full(4, 3.0))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_mean_backward():
    x = t(np.arange(6.0).reshape(2, 3))
    x.mean().backward()
    assert np.allclose(x.grad, np.full((2, 3), 1 / 6))


def test_relu_subgradient_zero_at_kink():
    x = t([-1.0, 0.0, 2.0])
    relu(x).sum().backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_matmul_backward_closed_form(rng):
    a_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(4, 2))
    a, b = t(a_val), t(b_val)
    matmul(a, b).sum().backward()
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, ones @ b_val.T)
    assert np.allclose(b.grad, a_val.T @ ones)


def test_transpose_reshape_roundtrip_grad(rng):
    x = t(rng.normal(size=(2, 3, 4)))
    y = x.transpose(2, 0, 1).reshape(4, 6)
    (y * y).sum().backward()
    assert np.allclose(x.grad, 2 * x.data)


def test_exp_log_chain():
    x = t(2.0)
    log(exp(x)).backward()
    assert np.isclose(x.grad, 1.0)


def test_power_and_sqrt():
    x = t(4.0)
    (x**3).backward()
    assert np.isclose(x.grad, 48.0)
    y = t(9.0)
    sqrt(y).backward()
    assert np.isclose(y.grad, 1 / 6)


def test_softmax_rows_uniform_and_closed_form():
    m = softmax_rows(t(np.zeros((2, 4)))).data
    assert np.allclose(m, 0.25)
    row = softmax_rows(t([[0.0, np.log(2.0)]])).data
    assert np.allclose(row, [[1 / 3, 2 / 3]])


def test_softmax_rows_shift_invariance(rng):
    x = rng.normal(size=(3, 5))
    a = softmax_rows(t(x)).data
    b = softmax_rows(t(x + 7.5)).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_rows_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 6)) * 3
    assert np.allclose(softmax_rows(t(x)).data, softmax_rows_loops(x), atol=1e-12)


def test_softmax_rows_backward_matches_jacobian(rng):
    x_val = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3))
    x = t(x_val)
    (softmax_rows(x) * Tensor(w)).sum().backward()
    for i in range(2):
        s = softmax_rows_loops(x_val[i : i + 1])[0]
        jac = np.diag(s) - np.outer(s, s)
        assert np.allclose(x.grad[i], jac @ w[i], atol=1e-12)


def test_select_entries_gather_and_scatter():
    x = t(np.arange(12.0).reshape(3, 4))
    rows = np.array([0, 2, 2])
    cols = np.array([1, 3, 3])
    picked = select_entries(x, rows, cols)
    assert np.array_equal(picked.data, [1.0, 11.0, 11.0])
    picked.sum().backward()
    expected = np.zeros((3, 4))
    expected[0, 1] = 1.0
    expected[2, 3] = 2.0  # duplicate picks accumulate
    assert np.array_equal(x.grad, expected)


def test_no_grad_blocks_recording():
    x = t([1.0, 2.0])
    with no_grad():
        y = (x * 2).sum()
    assert y._grad_fn is None and not y.requires_grad


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ContractError):
        (x * 2).backward()


def test_grad_accumulates_across_uses():
    x = t(2.0)
    y = x * x + x
    y.backward()
    assert np.isclose(x.grad, 5.0)


def test_first_gradient_is_a_private_copy(rng):
    # add hands one gradient array to both parents; a later contribution to
    # one leaf must not leak into the other through a shared buffer, whichever
    # order the walk takes
    w, v = rng.normal(size=(2, 3, 2))
    for mul_first in (False, True):
        a, b = t(rng.normal(size=(3, 2))), t(rng.normal(size=(3, 2)))
        via_add = ((a + b) * Tensor(w)).sum()
        via_mul = (a * Tensor(v)).sum()
        (via_mul + via_add if mul_first else via_add + via_mul).backward()
        assert np.array_equal(b.grad, w)
        assert np.allclose(a.grad, w + v)
    # sum and mean hand out read-only broadcast views; a second use adds onto the copy
    b = t(rng.normal(size=(2, 3)))
    (b.sum() + b.mean() * 3.0).backward()
    assert np.allclose(b.grad, np.full((2, 3), 1.5))


def test_backward_releases_the_interior_of_the_graph(rng):
    a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
    hidden = relu(matmul(a, b))
    loss = (softmax_rows(hidden * 2.0) * hidden).sum()
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    interior = [node for node in nodes.values() if node._grad_fn is not None]
    assert len(interior) == 6
    assert {id(node) for node in nodes.values() if node._grad_fn is None} == {id(a), id(b)}
    closures = [weakref.ref(node._grad_fn) for node in interior]
    loss.backward()
    assert all(ref() is None for ref in closures)
    assert all(node._parents == () for node in interior)
    assert all(node.grad is None for node in interior if node is not loss)
    assert loss.grad == 1.0
    assert a.grad.shape == (3, 4) and b.grad.shape == (4, 2)


def test_second_backward_through_a_consumed_graph_raises(rng):
    a = t(rng.normal(size=(3,)))
    hidden = a * 2.0
    loss = (hidden * hidden).sum()
    loss.backward()
    kept = a.grad.copy()
    with pytest.raises(ContractError):
        loss.backward()
    with pytest.raises(ContractError):
        (hidden * 3.0).sum().backward()
    assert np.array_equal(a.grad, kept)
    assert loss.grad == 1.0


def test_float32_stays_float32():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    out = relu(a * 2.0 + 1.0)
    assert out.data.dtype == np.float32
    out.sum().backward()
    assert a.grad.dtype == np.float32


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_softmax_rows_stochastic(seed):
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=(3, 4)) * g.uniform(0.1, 20)
    s = softmax_rows(Tensor(x)).data
    assert np.all(s > 0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_matmul_associative(seed):
    g = np.random.Generator(np.random.PCG64(seed))
    a, b, c = (Tensor(g.normal(size=(3, 3))) for _ in range(3))
    left = matmul(matmul(a, b), c).data
    right = matmul(a, matmul(b, c)).data
    assert np.allclose(left, right, rtol=1e-5, atol=1e-8)


def test_first_gradient_is_adopted_only_when_fresh_and_writable():
    x = t(np.zeros(3))
    fresh = np.ones(3)
    x._accumulate(fresh, fresh=True)
    assert x.grad is fresh
    for g, flag in ((np.ones(3), False), (np.broadcast_to(np.ones(1), (3,)), True), (np.ones(3, np.float32), True)):
        y = t(np.zeros(3))
        y._accumulate(g, fresh=flag)
        assert y.grad is not g and not np.shares_memory(y.grad, g) and y.grad.dtype == np.float64
        assert y.grad.flags.writeable


def test_gradient_fed_to_two_parents_is_not_aliased(rng):
    # add hands its one incoming gradient to both parents
    a, b = t(rng.normal(size=(3, 2))), t(rng.normal(size=(3, 2)))
    ((a + b) * 2.0).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    assert np.array_equal(b.grad, np.full((3, 2), 2.0))
    # a parent used twice by one op gets both of its gradients
    c = t(rng.normal(size=(3, 2)))
    (c * c).sum().backward()
    assert np.allclose(c.grad, 2.0 * c.data)

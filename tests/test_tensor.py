import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strf.errors import ContractError, ShapeError
from strf.gradcheck import inner
from strf.backbone import BatchNorm3dLayer, LinearLayer, clip_features
from strf.tensor import Tensor, no_grad, softmax_rows, softmax_rows_grad

from oracles import matmul_loops, softmax_rows_loops


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def test_add_values_and_dims():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal((a + b).data, [[11, 22], [33, 44]])
    # every add joins operands of equal dims, so none is broadcast
    with pytest.raises(ShapeError):
        a + t([1.0, 2.0])


# the tape's one matrix product is the classifier node x @ Wᵀ


def test_matmul_matches_loop_oracle(rng):
    a = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    got = LinearLayer(t(w))(t(a)).data
    assert np.allclose(got, matmul_loops(a, w.T), atol=1e-12)


def test_matmul_identity_and_zero(rng):
    a = rng.normal(size=(2, 2))
    assert np.allclose(LinearLayer(t(np.eye(2)))(t(a)).data, a)
    assert np.array_equal(LinearLayer(t(np.zeros((2, 2))))(t(a)).data, np.zeros((2, 2)))


def test_matmul_frozen_example():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    w = t([[5.0, 7.0], [6.0, 8.0]])
    assert np.array_equal(LinearLayer(w)(x).data, [[19, 22], [43, 50]])


def test_scalar_product_rule():
    x = t([[3.0]])
    y = t([[5.0]])
    LinearLayer(y)(x).backward()
    assert x.grad == 5.0 and y.grad == 3.0


def test_mean_backward():
    # the head's features: each cell of a (1, 1, 2, 3, 1) map gets 1/6
    x = t(np.arange(6.0).reshape(1, 1, 2, 3, 1))
    clip_features(x).backward()
    assert np.allclose(x.grad, np.full(x.shape, 1 / 6))


def test_relu_subgradient_zero_at_kink():
    # every relu is a batch norm's epilogue; in eval with unit scale and no
    # shift it is relu(x), whose backward reads its mask back from the output
    bn = BatchNorm3dLayer(1, np.float64, eps=0.0, relu=True)
    x = t(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 3, 1, 1))
    inner(bn(x, training=False), np.ones(x.shape)).backward()
    assert np.array_equal(x.grad.ravel(), [0.0, 0.0, 1.0])


def test_matmul_backward_closed_form(rng):
    a_val = rng.normal(size=(3, 4))
    w_val = rng.normal(size=(2, 4))
    a, w = t(a_val), t(w_val)
    inner(LinearLayer(w)(a), np.ones((3, 2))).backward()
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, ones @ w_val)
    assert np.allclose(w.grad, ones.T @ a_val)


def test_softmax_rows_uniform_and_closed_form():
    m = softmax_rows(np.zeros((2, 4)))
    assert np.allclose(m, 0.25)
    row = softmax_rows(np.array([[0.0, np.log(2.0)]]))
    assert np.allclose(row, [[1 / 3, 2 / 3]])


def test_softmax_rows_shift_invariance(rng):
    x = rng.normal(size=(3, 5))
    a = softmax_rows(x.copy())
    b = softmax_rows(x + 7.5)
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_rows_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 6)) * 3
    buf = x.copy()
    assert softmax_rows(buf) is buf  # written over its input
    assert np.allclose(buf, softmax_rows_loops(x), atol=1e-12)


def test_softmax_rows_backward_matches_jacobian(rng):
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3))
    grad = softmax_rows_grad(w, softmax_rows(x.copy()))
    for i in range(2):
        s = softmax_rows_loops(x[i : i + 1])[0]
        jac = np.diag(s) - np.outer(s, s)
        assert np.allclose(grad[i], jac @ w[i], atol=1e-12)


def test_no_grad_blocks_recording():
    x = t([1.0, 2.0])
    with no_grad():
        y = x + x
    assert y._grad_fn is None and not y.requires_grad


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ContractError):
        (x + x).backward()


def test_grad_accumulates_across_uses():
    x = t([[2.0]])
    y = LinearLayer(x)(x) + x
    y.backward()
    assert np.isclose(x.grad, 5.0)


def test_first_gradient_is_a_private_copy(rng):
    # add hands one gradient array to both parents; a later contribution to
    # one leaf must not leak into the other through a shared buffer, whichever
    # order the walk takes. On the identity the classifier node is Wᵀ.
    w = rng.normal(size=(3, 3))
    eye = t(np.eye(3), grad=False)
    for view_first in (False, True):
        a, b = t(rng.normal(size=(3, 3))), t(rng.normal(size=(3, 3)))
        via_add, via_view = a + b, LinearLayer(a)(eye)
        inner(via_view + via_add if view_first else via_add + via_view, w).backward()
        assert np.array_equal(b.grad, w)
        assert np.array_equal(a.grad, w + w.T)
    # the classifier hands its weight a transposed view; a second use adds onto the copy
    b = t(rng.normal(size=(2, 3)))
    inner(LinearLayer(b)(eye) + LinearLayer(b)(eye), np.ones((3, 2))).backward()
    assert np.array_equal(b.grad, np.full((2, 3), 2.0))


def test_backward_releases_the_interior_of_the_graph(rng):
    a, b, c = t(rng.normal(size=(3, 4))), t(rng.normal(size=(2, 4))), t(rng.normal(size=(2, 2)))
    hidden = LinearLayer(b)(a)
    loss = inner(LinearLayer(c)(hidden) + hidden, rng.normal(size=(3, 2)))
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    interior = [node for node in nodes.values() if node._grad_fn is not None]
    assert len(interior) == 4
    assert {id(node) for node in nodes.values() if node._grad_fn is None} == {id(a), id(b), id(c)}
    closures = [weakref.ref(node._grad_fn) for node in interior]
    loss.backward()
    assert all(ref() is None for ref in closures)
    assert all(node._parents == () for node in interior)
    assert all(node.grad is None for node in interior if node is not loss)
    assert loss.grad == 1.0
    assert a.grad.shape == (3, 4) and b.grad.shape == (2, 4) and c.grad.shape == (2, 2)


def test_second_backward_through_a_consumed_graph_raises(rng):
    a = t(rng.normal(size=(3, 2)))
    hidden = a + a
    loss = inner(hidden, np.ones((3, 2)))
    loss.backward()
    kept = a.grad.copy()
    with pytest.raises(ContractError):
        loss.backward()
    with pytest.raises(ContractError):
        inner(hidden, np.ones((3, 2))).backward()
    assert np.array_equal(a.grad, kept)
    assert loss.grad == 1.0


def test_float32_stays_float32():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    out = LinearLayer(a)(a + a)
    assert out.data.dtype == np.float32
    inner(out, np.ones((2, 2), dtype=np.float32)).backward()
    assert a.grad.dtype == np.float32


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_softmax_rows_stochastic(seed):
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.normal(size=(3, 4)) * g.uniform(0.1, 20)
    s = softmax_rows(x)
    assert np.all(s > 0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-6)


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
    inner(a + b, np.full((3, 2), 2.0)).backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    assert np.array_equal(b.grad, np.full((3, 2), 2.0))
    # a parent used twice by one op gets both of its gradients
    c = t(rng.normal(size=(3, 2)))
    inner(c + c, np.ones((3, 2))).backward()
    assert np.array_equal(c.grad, np.full((3, 2), 2.0))

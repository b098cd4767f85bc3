import numpy as np
import pytest

from strf.backbone import LinearLayer
from strf.errors import ContractError, EvaluationError
from strf.gradcheck import grad_check, inner
from strf.gradsuite import TOLERANCE
from strf.tensor import Tensor, softmax_rows, softmax_rows_grad


def test_linear_is_exact(rng):
    x = rng.normal(size=(3, 4))
    assert grad_check(lambda t: t, x) <= 1e-10


def test_quadratic(rng):
    x = rng.uniform(-1, 1, size=(4, 4))
    # the classifier node with its weight set to t: t @ tᵀ
    assert grad_check(lambda t: LinearLayer(t)(t), x) <= 1e-8


def test_softmax_mean(rng):
    # the unit's row softmax and its input gradient, as one node
    def softmax_node(t):
        out = softmax_rows(t.data.copy())
        return Tensor._make(out, [t], lambda g: t._accumulate(softmax_rows_grad(g, out), fresh=True))

    x = rng.normal(size=(3, 3))
    assert grad_check(softmax_node, x, w=np.full((3, 3), 1 / 9)) <= 1e-6
    # the mean of a row-stochastic matrix is constant, so also weight each entry
    assert grad_check(softmax_node, x) <= 1e-6


def test_rejects_single_precision():
    x = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(ContractError):
        grad_check(lambda t: t, x)


def test_nonfinite_probe_raises():
    def log(t):
        return Tensor._make(np.log(t.data), [t], lambda g: t._accumulate(g / t.data))

    # the tape is finite at x, but the lower probe of the first entry is below 0
    with pytest.raises(EvaluationError), np.errstate(invalid="ignore"):
        grad_check(log, np.array([[4e-6, 1.0], [1.0, 1.0]]))


def test_detached_term_detected():
    # a function whose recorded graph misses half the true dependence
    def leaky(t):
        return LinearLayer(Tensor(t.data.copy()))(t)

    err = grad_check(leaky, np.array([[0.5, -0.75]]))
    assert err > 1e-2


def test_custom_epsilon(rng):
    x = rng.uniform(0.5, 1.5, size=(3, 3))
    assert grad_check(lambda t: LinearLayer(t)(LinearLayer(t)(t)), x, eps=1e-4) <= 1e-6


def test_nan_tape_gradient_fails(rng):
    # NaN compares False against any error, so it must not read as a pass
    def poisoned(t):
        return Tensor._make(np.array(t.data.sum()), [t], lambda g: t._accumulate(np.full(t.shape, np.nan)))

    assert grad_check(poisoned, rng.normal(size=(2, 3))) == np.inf


def test_inner_seeds_the_backward_walk_with_the_cotangent(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    with pytest.raises(ContractError):
        inner(LinearLayer(b)(a), w.T)
    inner(LinearLayer(b)(a), w).backward()
    assert np.array_equal(a.grad, w @ b.data)
    assert np.array_equal(b.grad, (a.data.T @ w).T)


@pytest.mark.parametrize("factor,passes", [(3.0, True), (6.0, False)])
def test_non_scalar_map_is_checked_through_its_closure(rng, factor, passes):
    def triple(t):
        return Tensor._make(3.0 * t.data, [t], lambda g: t._accumulate(factor * g))

    err = grad_check(triple, rng.normal(size=(2, 3, 4)))
    assert err <= TOLERANCE if passes else err > 0.1

import numpy as np
import pytest

from strf.errors import ContractError, EvaluationError
from strf.gradcheck import grad_check
from strf.tensor import Tensor, softmax_rows


def test_linear_is_exact(rng):
    x = rng.normal(size=(3, 4))
    assert grad_check(lambda t: t.sum(), x) <= 1e-10


def test_quadratic(rng):
    x = rng.uniform(-1, 1, size=(4, 4))
    assert grad_check(lambda t: (t * t).sum(), x) <= 1e-8


def test_softmax_mean(rng):
    x = rng.normal(size=(3, 3))
    assert grad_check(lambda t: softmax_rows(t).mean(), x) <= 1e-6


def test_rejects_single_precision():
    x = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(ContractError):
        grad_check(lambda t: t.sum(), x)


def test_nonfinite_probe_raises(rng):
    x = rng.normal(size=(2, 2))

    def blows_up(t):
        return (t**0.5).sum()  # negative entries make this NaN

    with pytest.raises(EvaluationError), np.errstate(invalid="ignore"):
        grad_check(blows_up, np.array([[-1.0, 1.0], [1.0, 1.0]]))


def test_detached_term_detected():
    # a function whose recorded graph misses half the true dependence
    def leaky(t):
        return (t * Tensor(t.data.copy())).sum()

    err = grad_check(leaky, np.array([[0.5, -0.75]]))
    assert err > 1e-2


def test_custom_epsilon(rng):
    x = rng.uniform(0.5, 1.5, size=(3,))
    assert grad_check(lambda t: (t**3).sum(), x, eps=1e-4) <= 1e-6

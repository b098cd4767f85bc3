import numpy as np
import pytest

from strf.optim import EPS, Adam
from strf.tensor import Tensor


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_constant_gradient_moves_each_weight_by_lr_over_its_sign():
    # with g held fixed, both bias-corrected moments equal g and g², so each
    # step moves a weight by lr·g/(|g| + eps)
    g = np.array([0.5, -2.0, 1e-3])
    p = leaf(np.zeros(3))
    opt = Adam([p])
    for step in range(1, 6):
        before = p.data.copy()
        p.grad = g.copy()
        opt.step(lr=0.01)
        assert np.allclose(before - p.data, 0.01 * g / (np.abs(g) + EPS), rtol=1e-9, atol=0.0)
    assert opt.t == 5


@pytest.mark.parametrize("steps", [1, 3])
def test_weight_decay_is_added_to_the_gradient(rng, steps):
    start, g, decay = rng.normal(size=4), rng.normal(size=4), 0.25
    decayed, plain = leaf(start), leaf(start)
    opt_decayed, opt_plain = Adam([decayed], weight_decay=decay), Adam([plain])
    for _ in range(steps):
        decayed.grad = g.copy()
        plain.grad = g + decay * plain.data
        opt_decayed.step(lr=0.1)
        opt_plain.step(lr=0.1)
    assert np.array_equal(decayed.data, plain.data)


def test_a_parameter_without_a_gradient_is_skipped():
    moved, idle = leaf([1.0, 2.0]), leaf([3.0, 4.0])
    opt = Adam([moved, idle], weight_decay=0.5)
    moved.grad = np.array([1.0, -1.0])
    opt.step(lr=0.1)
    assert np.array_equal(idle.data, [3.0, 4.0]) and idle.grad is None
    assert not np.array_equal(moved.data, [1.0, 2.0])
    opt.zero_grad()
    assert moved.grad is None

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strf.errors import ContractError, DomainError
from strf.evaluation import distance_matrix
from strf.losses import (
    batch_hard_triplet,
    cross_entropy,
    pairwise_cosine_distances,
    total_loss,
)
from strf.tensor import Tensor

from oracles import batch_hard_loops, cosine_distance_loops, cross_entropy_loops


# -- cross entropy -----------------------------------------------------------

def test_cross_entropy_two_class_frozen():
    loss = cross_entropy(Tensor(np.array([[1.0, 2.0]], dtype=np.float32)), [1])
    assert math.isclose(loss.data.item(), math.log(1.0 + math.exp(-1.0)), rel_tol=1e-6)


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(Tensor(np.zeros((3, 4), dtype=np.float32)), [0, 1, 3])
    assert math.isclose(loss.data.item(), math.log(4.0), rel_tol=1e-6)


def test_cross_entropy_saturated_is_near_zero():
    logits = np.full((2, 3), -30.0, dtype=np.float32)
    logits[0, 1] = 30.0
    logits[1, 2] = 30.0
    loss = cross_entropy(Tensor(logits), [1, 2])
    assert 0.0 <= loss.data.item() < 1e-6


def test_cross_entropy_shift_invariance(rng):
    logits = rng.normal(size=(4, 6)).astype(np.float32)
    labels = rng.integers(0, 6, size=4)
    a = cross_entropy(Tensor(logits), labels).data.item()
    b = cross_entropy(Tensor(logits + 100.0), labels).data.item()
    assert math.isclose(a, b, rel_tol=1e-4)


def test_cross_entropy_handles_huge_logits():
    loss = cross_entropy(Tensor(np.array([[1e4, 0.0]], dtype=np.float32)), [0])
    assert np.isfinite(loss.data.item())


def test_cross_entropy_matches_oracle(rng):
    for _ in range(20):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        logits = rng.normal(size=(n, k)).astype(np.float32)
        labels = rng.integers(0, k, size=n)
        ours = cross_entropy(Tensor(logits), labels).data.item()
        ref = cross_entropy_loops(logits.tolist(), labels.tolist())
        assert math.isclose(ours, ref, rel_tol=1e-5, abs_tol=1e-6)


def test_cross_entropy_gradient_pushes_toward_label():
    logits = Tensor(np.zeros((1, 3), dtype=np.float32), requires_grad=True)
    cross_entropy(logits, [2]).backward()
    grad = logits.grad[0]
    assert grad[2] < 0 and grad[0] > 0 and grad[1] > 0
    assert math.isclose(grad.sum(), 0.0, abs_tol=1e-6)


def test_cross_entropy_validation():
    logits = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros(3, dtype=np.float32)), [0])
    with pytest.raises(ContractError):
        cross_entropy(logits, [0])
    with pytest.raises(ContractError, match="3"):
        cross_entropy(logits, [0, 3])
    with pytest.raises(ContractError):
        cross_entropy(logits, [0, -1])


def test_cross_entropy_rejects_non_integer_labels():
    logits = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ContractError, match="float64"):
        cross_entropy(logits, [0.9, 1.6])  # would otherwise truncate to [0, 1]
    with pytest.raises(ContractError, match="bool"):
        cross_entropy(logits, np.array([True, False]))
    for dtype in (np.int8, np.uint16, np.int64):
        assert np.isfinite(cross_entropy(logits, np.array([0, 2], dtype=dtype)).data.item())


# -- cosine distance ---------------------------------------------------------
# The training loss and the retrieval protocol each compute cosine distances:
# ``pairwise_cosine_distances`` on the tape, ``distance_matrix`` in float64.

def test_cosine_distance_landmarks():
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 5.0], [-3.0, 0.0]])
    landmarks = [0.0, 0.0, 1.0, 2.0]  # from row 0: itself, parallel, orthogonal, opposite
    for matrix in (pairwise_cosine_distances(Tensor(rows)).data, distance_matrix(rows, rows)):
        for j, want in enumerate(landmarks):
            assert math.isclose(matrix[0, j], want, abs_tol=1e-12)


def test_cosine_distance_zero_vector_rejected():
    unit, zero = np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])
    with pytest.raises(DomainError):
        pairwise_cosine_distances(Tensor(np.concatenate([zero, unit])))
    with pytest.raises(DomainError):
        distance_matrix(zero, unit)
    with pytest.raises(DomainError):
        distance_matrix(unit, zero)


def test_cosine_distance_matches_oracle(rng):
    for _ in range(50):
        d = int(rng.integers(1, 9))
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        want = cosine_distance_loops(u.tolist(), v.tolist())
        assert math.isclose(pairwise_cosine_distances(Tensor(np.stack([u, v]))).data[0, 1], want, abs_tol=1e-9)
        assert math.isclose(distance_matrix(u[None], v[None])[0, 0], want, abs_tol=1e-9)


def test_pairwise_matrix_agrees_with_scalar(rng):
    rows = rng.normal(size=(5, 7)).astype(np.float32)
    matrix = pairwise_cosine_distances(Tensor(rows)).data
    for i in range(5):
        for j in range(5):
            assert math.isclose(
                float(matrix[i, j]), cosine_distance_loops(rows[i], rows[j]), abs_tol=1e-5
            )


def test_pairwise_matrix_zero_row_names_offender(rng):
    rows = rng.normal(size=(4, 3)).astype(np.float32)
    rows[2] = 0.0
    with pytest.raises(DomainError, match="2"):
        pairwise_cosine_distances(Tensor(rows))


# -- batch-hard triplet ------------------------------------------------------

def test_triplet_matches_oracle(rng):
    for _ in range(30):
        p, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        labels = np.repeat(np.arange(p), k)
        emb = rng.normal(size=(p * k, 6)).astype(np.float32) + 0.1
        margin = float(rng.uniform(0.05, 0.6))
        ours = batch_hard_triplet(Tensor(emb), labels, margin).data.item()
        ref = batch_hard_loops(emb, labels.tolist(), margin)
        assert math.isclose(ours, ref, rel_tol=1e-5, abs_tol=1e-6)


def test_triplet_identical_embeddings_hit_margin():
    emb = np.ones((4, 3), dtype=np.float32)
    loss = batch_hard_triplet(Tensor(emb), [0, 0, 1, 1], margin=0.3)
    assert math.isclose(loss.data.item(), 0.3, abs_tol=1e-6)


def test_triplet_satisfied_margin_is_zero():
    # tight same-id clusters on orthogonal axes: pos dist ~0, neg dist ~1
    emb = np.array(
        [[1, 0, 0], [1, 0.01, 0], [0, 1, 0], [0, 1, 0.01]], dtype=np.float32
    )
    loss = batch_hard_triplet(Tensor(emb), [0, 0, 1, 1], margin=0.3)
    assert loss.data.item() == 0.0


def test_triplet_anchor_at_the_hinge_sends_zero():
    # every positive at distance 0 and every negative at 1, so with a margin
    # of 1 each anchor sits exactly at the hinge
    emb = Tensor(np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.float32), requires_grad=True)
    loss = batch_hard_triplet(emb, [0, 0, 1, 1], margin=1.0)
    loss.backward()
    assert loss.data.item() == 0.0
    assert np.array_equal(emb.grad, np.zeros((4, 2), dtype=np.float32))


def test_triplet_is_scale_invariant(rng):
    emb = rng.normal(size=(6, 4)).astype(np.float32) + 0.2
    labels = [0, 0, 1, 1, 2, 2]
    a = batch_hard_triplet(Tensor(emb), labels).data.item()
    b = batch_hard_triplet(Tensor(emb * 7.5), labels).data.item()
    assert math.isclose(a, b, rel_tol=1e-4, abs_tol=1e-6)


def test_triplet_label_validation(rng):
    emb = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    with pytest.raises(ContractError):
        batch_hard_triplet(emb, [0, 0, 0, 0])  # single identity
    with pytest.raises(ContractError, match="identity 1"):
        batch_hard_triplet(emb, [0, 0, 1, 2])  # identity 1 lacks a positive
    with pytest.raises(ContractError):
        batch_hard_triplet(emb, [0, 0, 1])  # label count mismatch
    with pytest.raises(ContractError):
        batch_hard_triplet(Tensor(rng.normal(size=(2, 2, 2)).astype(np.float32)), [0, 1])


def test_triplet_gradient_flows_to_selected_pairs(rng):
    emb = Tensor(rng.normal(size=(4, 5)).astype(np.float32) + 0.3, requires_grad=True)
    loss = batch_hard_triplet(emb, [0, 0, 1, 1], margin=5.0)  # hinge surely active
    loss.backward()
    assert emb.grad is not None
    assert np.abs(emb.grad).sum() > 0


def test_total_loss_is_plain_sum(rng):
    logits = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    emb = Tensor(rng.normal(size=(4, 6)).astype(np.float32) + 0.1)
    labels = [0, 0, 1, 1]
    total, ce, trip = total_loss(logits, emb, labels, margin=0.3)
    assert math.isclose(
        total.data.item(), ce.data.item() + trip.data.item(), rel_tol=1e-6
    )
    assert math.isclose(ce.data.item(), cross_entropy(logits, labels).data.item())
    assert math.isclose(
        trip.data.item(), batch_hard_triplet(emb, labels, 0.3).data.item()
    )


# -- properties --------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_cross_entropy_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 5)), int(rng.integers(2, 6))
    logits = rng.normal(size=(n, k)).astype(np.float32) * 3.0
    labels = rng.integers(0, k, size=n)
    assert cross_entropy(Tensor(logits), labels).data.item() >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_triplet_bounded_by_margin_plus_two(seed):
    # cosine distances live in [0, 2], so the hinge can never exceed margin + 2
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(4, 3)).astype(np.float32)
    if np.any(np.linalg.norm(emb, axis=1) == 0.0):
        return
    loss = batch_hard_triplet(Tensor(emb), [0, 0, 1, 1], margin=0.3).data.item()
    assert 0.0 <= loss <= 2.3 + 1e-6

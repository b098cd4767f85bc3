"""Training objectives: identity classification plus metric learning.

The total objective is the unweighted sum of a softmax cross-entropy over
identity logits and a batch-hard triplet loss over cosine distances between
embeddings. Batches are expected to follow the P-identities x K-clips
recipe, so every anchor has at least one positive and one negative.

The cross-entropy, the distance matrix and the triplet's hinge are one tape
node each, with a closed-form backward whose float operations are the ones
the elementary tape ops would run, in the same order.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError, DomainError
from .tensor import Tensor


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax.
    Row maxima are subtracted before exponentiation, so arbitrarily large
    logits stay finite. The backward of an upstream ``g`` is
    ``(softmax - onehot) * g / N``: ``exps * ((g / N) / sums)`` with
    ``g / N`` subtracted at each (row, label)."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ContractError(f"logits must be (batch, classes), got dims {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ContractError(f"expected {n} labels for logits dims {logits.shape}, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    rows, cols = np.arange(n), labels.astype(np.intp)
    x = logits.data
    shift = x.max(axis=1, keepdims=True)
    exps = np.exp(x - shift)
    sums = exps.sum(axis=1)
    loss = (np.log(sums) + shift.reshape(-1) - x[rows, cols]).mean()

    def grad_fn(g: np.ndarray) -> None:
        share = g / n
        grad = exps * (share / sums)[:, None]
        grad[rows, cols] -= share
        logits._accumulate(grad, fresh=True)

    return Tensor._make(loss, [logits], grad_fn)


def _validate_batch_labels(labels: np.ndarray) -> None:
    values, counts = np.unique(labels, return_counts=True)
    if values.size < 2:
        raise ContractError("batch-hard mining needs at least two distinct identities in the batch")
    lonely = values[counts < 2]
    if lonely.size:
        raise ContractError(f"identity {lonely[0]} has a single clip in the batch; every anchor needs a positive")


def pairwise_cosine_distances(embeddings: Tensor) -> Tensor:
    """Differentiable (n, n) matrix of cosine distances ``1 - u u^T`` between
    the unit rows ``u = x / |x|`` of ``embeddings``.

    The backward of an upstream ``G`` is ``du = -(G u + (u^T G)^T)``, then
    ``dx = du / |x| + 2 s x`` with ``s = rowsum(-du x / |x|^2) * 0.5 / |x|``,
    the gradient of the squared norm ``x . x``. It reaches ``x`` in three
    accumulations, ``du / |x|`` and then ``s x`` once per factor of ``x . x``,
    because ``x`` may already hold a gradient and float addition is not
    associative.
    """
    x = embeddings.data
    norms_sq = (x * x).sum(axis=1, keepdims=True)
    bad = np.flatnonzero(norms_sq.reshape(-1) == 0.0)
    if bad.size:
        raise DomainError(f"embedding row {bad[0]} is the zero vector; cosine distance is undefined")
    norms = np.sqrt(norms_sq)
    unit = x / norms

    def grad_fn(g: np.ndarray) -> None:
        g = -g
        d_unit = g @ unit
        d_unit += (unit.T @ g).T
        d_sq = (-d_unit * x / (norms * norms)).sum(axis=1, keepdims=True) * 0.5 / norms
        through_sq = d_sq * x
        embeddings._accumulate(d_unit / norms, fresh=True)
        embeddings._accumulate(through_sq)
        embeddings._accumulate(through_sq)

    return Tensor._make(1.0 - unit @ unit.T, [embeddings], grad_fn)


def batch_hard_triplet(embeddings: Tensor, labels, margin: float = 0.3) -> Tensor:
    """Batch-hard triplet loss over cosine distances.

    For each anchor, take its farthest same-identity clip and nearest
    different-identity clip (ties go to the first index), hinge their gap at
    ``margin``, and average over anchors. The hinge is one tape node over the
    distance matrix: each active anchor sends ``+g / N`` to its selected
    positive and ``-g / N`` to its selected negative; an anchor sitting
    exactly at the hinge sends zero.
    """
    labels = np.asarray(labels)
    if embeddings.ndim != 2:
        raise ContractError(f"embeddings must be (batch, dim), got dims {embeddings.shape}")
    if labels.shape != (embeddings.shape[0],):
        raise ContractError(
            f"expected {embeddings.shape[0]} labels for embeddings dims {embeddings.shape}, got shape {labels.shape}"
        )
    _validate_batch_labels(labels)

    distances = pairwise_cosine_distances(embeddings)
    values = distances.data
    same = labels[:, None] == labels[None, :]
    n = labels.size
    eye = np.eye(n, dtype=bool)

    pos_candidates = np.where(same & ~eye, values, -np.inf)
    neg_candidates = np.where(~same, values, np.inf)
    hardest_pos = pos_candidates.argmax(axis=1)
    hardest_neg = neg_candidates.argmin(axis=1)

    anchors = np.arange(n)
    hinge = values[anchors, hardest_pos] - values[anchors, hardest_neg] + float(margin)
    active = hinge > 0
    loss = np.where(active, hinge, 0.0).mean()

    def grad_fn(g: np.ndarray) -> None:
        share = (g / n) * active
        grad = np.zeros_like(values)
        grad[anchors, hardest_pos] += share
        grad[anchors, hardest_neg] -= share
        distances._accumulate(grad, fresh=True)

    return Tensor._make(loss, [distances], grad_fn)


def total_loss(logits: Tensor, embeddings: Tensor, labels, margin: float = 0.3):
    """Unweighted sum of the two objectives. Returns (total, ce, triplet)."""
    ce = cross_entropy(logits, labels)
    triplet = batch_hard_triplet(embeddings, labels, margin)
    return ce + triplet, ce, triplet

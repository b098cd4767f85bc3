"""Training objectives: identity classification plus metric learning.

The total objective is the unweighted sum of a softmax cross-entropy over
identity logits and a batch-hard triplet loss over cosine distances between
embeddings. Batches are expected to follow the P-identities x K-clips
recipe, so every anchor has at least one positive and one negative.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError, DomainError
from .tensor import Tensor, exp, log, relu, select_entries, sqrt, matmul, transpose


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax.
    Row maxima are subtracted before exponentiation, so arbitrarily large
    logits stay finite."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ContractError(f"logits must be (batch, classes), got dims {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ContractError(f"expected {n} labels for logits dims {logits.shape}, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    shift = logits.data.max(axis=1, keepdims=True)
    log_norm = log(exp(logits - shift).sum(axis=1)) + shift.reshape(-1)
    picked = select_entries(logits, np.arange(n), labels.astype(np.intp))
    return (log_norm - picked).mean()


def cosine_distance(u, v) -> float:
    """1 - cos(angle) between two vectors; 0 for parallel, 2 for opposite."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ContractError(f"cosine_distance needs equal-length vectors, got {u.shape} and {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine distance is undefined for a zero vector")
    return 1.0 - float(u @ v) / (nu * nv)


def _validate_batch_labels(labels: np.ndarray) -> None:
    values, counts = np.unique(labels, return_counts=True)
    if values.size < 2:
        raise ContractError("batch-hard mining needs at least two distinct identities in the batch")
    lonely = values[counts < 2]
    if lonely.size:
        raise ContractError(f"identity {lonely[0]} has a single clip in the batch; every anchor needs a positive")


def pairwise_cosine_distances(embeddings: Tensor) -> Tensor:
    """Differentiable (n, n) matrix of cosine distances between embedding rows."""
    norms_sq = (embeddings * embeddings).sum(axis=1, keepdims=True)
    bad = np.flatnonzero(norms_sq.data.reshape(-1) == 0.0)
    if bad.size:
        raise DomainError(f"embedding row {bad[0]} is the zero vector; cosine distance is undefined")
    normalized = embeddings / sqrt(norms_sq)
    return 1.0 - matmul(normalized, transpose(normalized))


def batch_hard_triplet(embeddings: Tensor, labels, margin: float = 0.3) -> Tensor:
    """Batch-hard triplet loss over cosine distances.

    For each anchor, take its farthest same-identity clip and nearest
    different-identity clip, hinge their gap at ``margin``, and average over
    anchors. Selection is done on values, so gradients flow only through the
    selected pairs; an anchor sitting exactly at the hinge contributes zero
    gradient.
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
    pulled = select_entries(distances, anchors, hardest_pos)
    pushed = select_entries(distances, anchors, hardest_neg)
    return relu(pulled - pushed + float(margin)).mean()


def total_loss(logits: Tensor, embeddings: Tensor, labels, margin: float = 0.3):
    """Unweighted sum of the two objectives. Returns (total, ce, triplet)."""
    ce = cross_entropy(logits, labels)
    triplet = batch_hard_triplet(embeddings, labels, margin)
    return ce + triplet, ce, triplet

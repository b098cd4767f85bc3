"""Clip sampling, tracklet embeddings, and the retrieval protocol.

Test-time features: a tracklet is cut into consecutive non-overlapping
clips, each clip is embedded, and the embeddings are averaged. Clips of
consecutive tracklets share forward batches, which leaves every embedding as
it is: each kernel treats batch items on their own (the conv is a stacked
``W @ cols``, eval batch norm folded into it as a per-channel bias or, after
an attention unit, a per-channel affine, pooling and the unit per sample).
Clips of different frame dims never share a batch.
Retrieval ranks gallery tracklets by cosine distance; gallery entries sharing
both the query's identity and its camera are excluded before scoring, queries
with no remaining positive are skipped (and tallied), and ties are broken
stably by gallery index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, EvaluationError
from .backbone import Network, forward_features


@dataclass
class Tracklet:
    """An ordered stack of frames (length, 3, height, width) with labels."""

    frames: np.ndarray
    identity: int
    camera: int
    name: str = ""

    def __len__(self) -> int:
        return self.frames.shape[0]


def train_clip_indices(length: int, clip_len: int, stride: int, rng: np.random.Generator) -> np.ndarray:
    """One clip of ``clip_len`` frames at ``stride`` from a random start.
    Short tracklets wrap around, repeating from the beginning."""
    if length < 1:
        raise ContractError("cannot sample a clip from an empty tracklet")
    if clip_len < 1 or stride < 1:
        raise ContractError(f"clip length and stride must be >= 1, got {clip_len} and {stride}")
    span = (clip_len - 1) * stride + 1
    offsets = np.arange(clip_len) * stride
    if length >= span:
        start = int(rng.integers(0, length - span + 1))
        return start + offsets
    start = int(rng.integers(0, length))
    return (start + offsets) % length


def test_clip_indices(length: int, clip_len: int) -> list[np.ndarray]:
    """Consecutive non-overlapping windows covering the whole tracklet; the
    last window repeats the final frame to fill up."""
    if length < 1:
        raise ContractError("cannot sample clips from an empty tracklet")
    if clip_len < 1:
        raise ContractError(f"clip length must be >= 1, got {clip_len}")
    chunks = -(-length // clip_len)
    return [
        np.minimum(np.arange(c * clip_len, (c + 1) * clip_len), length - 1)
        for c in range(chunks)
    ]


def sample_clips(tracklet: Tracklet, clip_len: int) -> np.ndarray:
    """Materialize the test-protocol clips as (count, 3, clip_len, height, width)."""
    clips = [tracklet.frames[idx].transpose(1, 0, 2, 3) for idx in test_clip_indices(len(tracklet), clip_len)]
    return np.stack(clips)


def stacked_features(net: Network, tracklets, clip_len: int, batch_size: int = 16) -> np.ndarray:
    """Mean embedding of each tracklet's test-protocol clips, one row per
    tracklet. Only one forward batch of at most ``batch_size`` clips is held at
    a time, and a clip whose dims differ from the batch's starts a new batch."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    if not tracklets:
        raise ContractError("cannot embed an empty list of tracklets")
    parts, batch, counts = [], [], []
    for tracklet in tracklets:
        clips = sample_clips(tracklet, clip_len)
        counts.append(len(clips))
        for clip in clips:
            if len(batch) == batch_size or (batch and clip.shape != batch[0].shape):
                parts.append(forward_features(net, np.stack(batch)))
                batch = []
            batch.append(clip)
    parts.append(forward_features(net, np.stack(batch)))
    feats = np.concatenate(parts)
    ends = np.cumsum(counts)
    return np.stack([feats[start:end].mean(axis=0) for start, end in zip(np.r_[0, ends[:-1]], ends)])


def distance_matrix(query: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances between feature rows, (queries, gallery)."""
    query = np.asarray(query, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    if query.ndim != 2 or gallery.ndim != 2 or query.shape[1] != gallery.shape[1]:
        raise ContractError(f"feature matrices disagree: query {query.shape} vs gallery {gallery.shape}")
    for side, mat in (("query", query), ("gallery", gallery)):
        norms = np.linalg.norm(mat, axis=1)
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DomainError(f"{side} feature row {bad[0]} is the zero vector")
    qn = query / np.linalg.norm(query, axis=1, keepdims=True)
    gn = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
    return 1.0 - qn @ gn.T


@dataclass
class RetrievalResult:
    cmc: np.ndarray
    mean_ap: float
    average_precisions: np.ndarray
    counted: int
    skipped: int

    def rank_k(self, k: int) -> float:
        if not 1 <= k <= self.cmc.size:
            raise ContractError(f"rank k must lie in [1, {self.cmc.size}], got {k}")
        return float(self.cmc[k - 1])


def evaluate(
    distances: np.ndarray,
    query_ids,
    query_cams,
    gallery_ids,
    gallery_cams,
    max_rank: int = 20,
) -> RetrievalResult:
    """Score a distance matrix under the cross-camera retrieval protocol."""
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise ContractError(f"distances must be a (queries, gallery) matrix, got dims {distances.shape}")
    query_ids = np.asarray(query_ids)
    query_cams = np.asarray(query_cams)
    gallery_ids = np.asarray(gallery_ids)
    gallery_cams = np.asarray(gallery_cams)
    n_query, n_gallery = distances.shape
    if query_ids.shape != (n_query,) or query_cams.shape != (n_query,):
        raise ContractError(f"query labels do not match distance dims {distances.shape}")
    if gallery_ids.shape != (n_gallery,) or gallery_cams.shape != (n_gallery,):
        raise ContractError(f"gallery labels do not match distance dims {distances.shape}")
    if max_rank < 1:
        raise ContractError(f"max_rank must be >= 1, got {max_rank}")

    cmc_hits = np.zeros(max_rank, dtype=np.int64)
    average_precisions = []
    skipped = 0
    for q in range(n_query):
        # ascending distance; equal distances keep gallery order
        order = np.argsort(distances[q], kind="stable")
        keep = ~((gallery_ids[order] == query_ids[q]) & (gallery_cams[order] == query_cams[q]))
        ranked = order[keep]
        relevant = gallery_ids[ranked] == query_ids[q]
        total_relevant = int(relevant.sum())
        if total_relevant == 0:
            skipped += 1
            continue
        first_hit = int(np.flatnonzero(relevant)[0])
        cmc_hits += (np.arange(max_rank) >= first_hit).astype(np.int64)
        precision_at = np.cumsum(relevant) / np.arange(1, relevant.size + 1)
        average_precisions.append(float(precision_at[relevant].sum() / total_relevant))

    counted = n_query - skipped
    if counted == 0:
        raise EvaluationError("every query was skipped; no cross-camera positives exist")
    aps = np.asarray(average_precisions)
    return RetrievalResult(
        cmc=cmc_hits / counted,
        mean_ap=float(aps.mean()),
        average_precisions=aps,
        counted=counted,
        skipped=skipped,
    )


def write_report(result: RetrievalResult, path: str, ranks=(1, 5, 10, 20)) -> None:
    lines = [
        f"queries counted: {result.counted}",
        f"queries skipped (no cross-camera positive): {result.skipped}",
        f"mAP: {result.mean_ap:.6f}",
    ]
    lines += [f"rank-{k}: {result.rank_k(k):.6f}" for k in ranks]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_cmc_csv(result: RetrievalResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,cmc\n")
        for k, value in enumerate(result.cmc, start=1):
            fh.write(f"{k},{value:.6f}\n")


def write_ap_csv(result: RetrievalResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query,ap\n")
        for q, value in enumerate(result.average_precisions):
            fh.write(f"{q},{value:.6f}\n")

"""Clip sampling, tracklet embeddings, and the retrieval protocol.

Test-time features: a tracklet is cut into consecutive non-overlapping
clips, each clip is embedded, and the embeddings are averaged. Retrieval
ranks gallery tracklets by cosine distance; gallery entries sharing both the
query's identity and its camera are excluded before scoring, queries with no
remaining positive are skipped (and tallied), and ties are broken stably by
gallery index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, EvaluationError
from .tensor import Tensor
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
    chunks = -(-length // clip_len)
    return [
        np.minimum(np.arange(c * clip_len, (c + 1) * clip_len), length - 1)
        for c in range(chunks)
    ]


def sample_clips(
    tracklet: Tracklet,
    clip_len: int,
    stride: int = 8,
    mode: str = "test",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Materialize clips as (count, 3, clip_len, height, width)."""
    if mode == "train":
        if rng is None:
            raise ContractError("train-mode sampling needs a random generator")
        index_lists = [train_clip_indices(len(tracklet), clip_len, stride, rng)]
    elif mode == "test":
        index_lists = test_clip_indices(len(tracklet), clip_len)
    else:
        raise ContractError(f"mode must be 'train' or 'test', got {mode!r}")
    clips = [tracklet.frames[idx].transpose(1, 0, 2, 3) for idx in index_lists]
    return np.stack(clips)


def clip_features(net: Network, clips: np.ndarray, batch_size: int = 16) -> np.ndarray:
    parts = [
        forward_features(net, Tensor(clips[i : i + batch_size]))
        for i in range(0, clips.shape[0], batch_size)
    ]
    return np.concatenate(parts, axis=0)


def tracklet_feature(net: Network, tracklet: Tracklet, clip_len: int, batch_size: int = 16) -> np.ndarray:
    """Mean embedding of the tracklet's test-protocol clips."""
    clips = sample_clips(tracklet, clip_len, mode="test")
    return clip_features(net, clips, batch_size).mean(axis=0)


def stacked_features(net: Network, tracklets, clip_len: int, batch_size: int = 16) -> np.ndarray:
    return np.stack([tracklet_feature(net, t, clip_len, batch_size) for t in tracklets])


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
        if k < 1:
            raise ContractError(f"rank k must be >= 1, got {k}")
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
    for k in ranks:
        if k <= result.cmc.size:
            lines.append(f"rank-{k}: {result.rank_k(k):.6f}")
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

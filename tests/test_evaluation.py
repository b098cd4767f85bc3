import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strf.evaluation
from strf.backbone import Network, forward_features, resnet50_spec
from strf.errors import ContractError, DomainError, EvaluationError
from strf.evaluation import (
    RetrievalResult,
    Tracklet,
    distance_matrix,
    evaluate,
    sample_clips,
    stacked_features,
    train_clip_indices,
)
from strf.evaluation import test_clip_indices as gallery_clip_indices

from oracles import evaluate_loops


# -- clip sampling -----------------------------------------------------------

def test_test_indices_cover_and_pad():
    chunks = gallery_clip_indices(3, 4)
    assert len(chunks) == 1
    assert chunks[0].tolist() == [0, 1, 2, 2]


def test_test_indices_exact_split():
    chunks = gallery_clip_indices(8, 4)
    assert [c.tolist() for c in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_test_indices_partial_tail():
    chunks = gallery_clip_indices(10, 4)
    assert len(chunks) == 3
    assert chunks[-1].tolist() == [8, 9, 9, 9]


def test_test_indices_reject_empty():
    with pytest.raises(ContractError):
        gallery_clip_indices(0, 4)
    with pytest.raises(ContractError, match="clip length must be >= 1, got 0"):
        gallery_clip_indices(5, 0)


def test_train_indices_long_tracklet(rng):
    for _ in range(50):
        idx = train_clip_indices(40, 4, 8, rng)
        assert idx.shape == (4,)
        assert np.all(np.diff(idx) == 8)
        assert idx[0] >= 0 and idx[-1] <= 39


def test_train_indices_short_tracklet_wraps(rng):
    for _ in range(50):
        idx = train_clip_indices(3, 4, 1, rng)
        assert idx.shape == (4,)
        assert np.all(idx < 3)
        assert len(np.unique(idx)) == 3  # one frame repeats via wraparound


@pytest.mark.parametrize("length, clip_len, stride", [(0, 4, 8), (5, 0, 2), (5, 4, 0), (5, -1, 1), (5, 4, -2)])
def test_train_indices_reject_empty_tracklet_clip_or_stride(length, clip_len, stride, rng):
    with pytest.raises(ContractError):
        train_clip_indices(length, clip_len, stride, rng)


def test_train_indices_deterministic_under_seed():
    a = train_clip_indices(30, 4, 8, np.random.default_rng(5))
    b = train_clip_indices(30, 4, 8, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_clips_shapes(rng):
    frames = rng.normal(size=(10, 3, 8, 4)).astype(np.float32)
    t = Tracklet(frames=frames, identity=0, camera=0)
    assert sample_clips(t, clip_len=4).shape == (3, 3, 4, 8, 4)


def test_sample_clips_values_match_indices(rng):
    frames = rng.normal(size=(6, 3, 4, 2)).astype(np.float32)
    t = Tracklet(frames=frames, identity=1, camera=0)
    clips = sample_clips(t, clip_len=4)
    # second chunk is frames [4, 5, 5, 5], channel-first
    expect = frames[[4, 5, 5, 5]].transpose(1, 0, 2, 3)
    assert np.array_equal(clips[1], expect)


# -- tracklet embeddings ------------------------------------------------------

EMBED_SPECS = {
    "p3d-c-strf": dict(variant="p3d-c", strf_stages=(2,), variant_stages=(2,)),
    "c2d": dict(variant="c2d", strf_stages=(), variant_stages=()),
}
# 1 + 1 + 1 + 3 + 5 = 11 clips of 4 frames, so batches straddle tracklets
UNEVEN_LENGTHS = (1, 3, 4, 9, 17)


def _embed_setup(rng, model):
    spec = resnet50_spec(classes=3, width_div=16, blocks=(1, 1, 1, 1), **EMBED_SPECS[model])
    net = Network(spec, seed=0)
    tracklets = [
        Tracklet(frames=rng.normal(size=(n, 3, 32, 16)).astype(np.float32), identity=i, camera=0)
        for i, n in enumerate(UNEVEN_LENGTHS)
    ]
    return net, tracklets


@pytest.mark.parametrize("model", sorted(EMBED_SPECS))
def test_stacked_features_is_mean_of_clip_embeddings(rng, model):
    net, tracklets = _embed_setup(rng, model)
    expect = np.stack([
        np.concatenate([forward_features(net, clip[None]) for clip in sample_clips(t, 4)])
        .mean(axis=0)
        for t in tracklets
    ])
    assert expect.shape == (len(UNEVEN_LENGTHS), 128)
    for batch_size in (1, 3, 16):
        assert np.array_equal(stacked_features(net, tracklets, 4, batch_size), expect), batch_size


@pytest.mark.parametrize("batch_size", [1, 3, 16])
def test_stacked_features_fills_batches_across_tracklets(rng, monkeypatch, batch_size):
    net, tracklets = _embed_setup(rng, "c2d")
    batches = []

    def counting(net, clips):
        batches.append(clips.shape[0])
        return forward_features(net, clips)

    monkeypatch.setattr(strf.evaluation, "forward_features", counting)
    stacked_features(net, tracklets, 4, batch_size)
    total = sum(len(gallery_clip_indices(n, 4)) for n in UNEVEN_LENGTHS)
    assert sum(batches) == total
    assert len(batches) == math.ceil(total / batch_size)
    assert max(batches) <= batch_size


def test_stacked_features_samples_each_tracklet_once(rng, monkeypatch):
    net, tracklets = _embed_setup(rng, "c2d")
    calls = []

    def counting(length, clip_len):
        calls.append(length)
        return gallery_clip_indices(length, clip_len)

    monkeypatch.setattr(strf.evaluation, "test_clip_indices", counting)
    stacked_features(net, tracklets, 4)
    assert calls == list(UNEVEN_LENGTHS)


def test_stacked_features_splits_batches_at_frame_dims(rng):
    net, _ = _embed_setup(rng, "c2d")
    tracklets = [
        Tracklet(frames=rng.normal(size=(n, 3, h, w)).astype(np.float32), identity=i, camera=0)
        for i, (n, h, w) in enumerate([(5, 32, 16), (3, 64, 32), (4, 64, 32), (6, 32, 16)])
    ]
    alone = np.concatenate([stacked_features(net, [t], 4) for t in tracklets])
    for batch_size in (1, 3, 16):
        assert np.array_equal(stacked_features(net, tracklets, 4, batch_size), alone), batch_size


def test_stacked_features_rejects_batch_size_below_one(rng):
    net, tracklets = _embed_setup(rng, "c2d")
    with pytest.raises(ContractError, match="batch_size"):
        stacked_features(net, tracklets, 4, 0)


def test_stacked_features_rejects_empty_tracklet_list(rng):
    net, _ = _embed_setup(rng, "c2d")
    with pytest.raises(ContractError, match="empty"):
        stacked_features(net, [], 4)


# -- distance matrix ---------------------------------------------------------

def test_distance_matrix_values(rng):
    q = np.array([[1.0, 0.0], [0.0, 2.0]])
    g = np.array([[3.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    d = distance_matrix(q, g)
    assert np.allclose(d[0], [0.0, 1.0, 2.0], atol=1e-12)
    assert np.allclose(d[1], [1.0, 0.0, 1.0], atol=1e-12)


def test_distance_matrix_zero_row_names_side_and_row():
    q = np.ones((2, 3))
    g = np.ones((2, 3))
    g[1] = 0.0
    with pytest.raises(DomainError, match="gallery.*1"):
        distance_matrix(q, g)
    q[0] = 0.0
    with pytest.raises(DomainError, match="query.*0"):
        distance_matrix(q, np.ones((2, 3)))


def test_distance_matrix_shape_mismatch():
    with pytest.raises(ContractError):
        distance_matrix(np.ones((2, 3)), np.ones((2, 4)))


# -- retrieval protocol ------------------------------------------------------

def test_exclusion_drops_same_id_same_cam():
    # the nearest gallery entry shares the query's id AND camera, so it is
    # struck from the ranking and the cross-camera copy becomes the first hit
    distances = np.array([[0.1, 0.2, 0.3]])
    result = evaluate(distances, [0], [0], [0, 0, 1], [0, 1, 1], max_rank=3)
    assert result.rank_k(1) == 1.0
    assert math.isclose(result.mean_ap, 1.0)
    assert result.counted == 1 and result.skipped == 0
    # flip the offending entry to another camera and it is kept instead
    kept = evaluate(distances, [0], [0], [0, 0, 1], [1, 1, 1], max_rank=3)
    assert kept.average_precisions[0] == 1.0  # both positives lead the ranking


def test_perfect_retrieval_scores_one():
    # every relevant entry precedes every irrelevant one for both queries
    distances = np.array([[0.0, 0.9, 0.8], [0.7, 0.1, 0.2]])
    result = evaluate(distances, [0, 1], [0, 0], [0, 1, 1], [1, 1, 1], max_rank=3)
    assert result.rank_k(1) == 1.0
    assert math.isclose(result.mean_ap, 1.0)


def test_rank_two_of_two_ap_half():
    # one relevant doc in gallery of two, ranked second: AP = 1/2
    distances = np.array([[0.2, 0.9]])
    result = evaluate(distances, [5], [0], [6, 5], [1, 1], max_rank=2)
    assert math.isclose(result.mean_ap, 0.5)
    assert result.cmc.tolist() == [0.0, 1.0]


def test_skipped_queries_are_tallied():
    distances = np.array([[0.1, 0.2], [0.3, 0.4]])
    # q1's only same-id entry shares its camera, so q1 is skipped
    result = evaluate(distances, [0, 1], [0, 0], [0, 1], [1, 0], max_rank=2)
    assert result.counted == 1 and result.skipped == 1
    assert result.rank_k(1) == 1.0


def test_all_skipped_raises():
    distances = np.array([[0.1]])
    with pytest.raises(EvaluationError):
        evaluate(distances, [0], [0], [0], [0], max_rank=1)


def test_ties_break_by_gallery_index():
    # equal distances: gallery 0 (wrong id) precedes gallery 1 (right id)
    distances = np.array([[0.5, 0.5]])
    result = evaluate(distances, [1], [0], [0, 1], [1, 1], max_rank=2)
    assert result.cmc.tolist() == [0.0, 1.0]


def test_cmc_is_monotone(rng):
    d = rng.uniform(size=(10, 30))
    gi = rng.integers(0, 5, size=30)
    gc = rng.integers(0, 2, size=30)
    qi = rng.integers(0, 5, size=10)
    qc = rng.integers(0, 2, size=10)
    try:
        result = evaluate(d, qi, qc, gi, gc, max_rank=30)
    except EvaluationError:
        return
    assert np.all(np.diff(result.cmc) >= -1e-12)
    assert 0.0 <= result.mean_ap <= 1.0


def test_evaluate_matches_oracle(rng):
    for trial in range(10):
        n_q, n_g = 20, 50
        d = rng.uniform(size=(n_q, n_g))
        qi = rng.integers(0, 8, size=n_q)
        qc = rng.integers(0, 3, size=n_q)
        gi = rng.integers(0, 8, size=n_g)
        gc = rng.integers(0, 3, size=n_g)
        result = evaluate(d, qi, qc, gi, gc, max_rank=20)
        cmc_ref, map_ref, counted_ref, skipped_ref = evaluate_loops(
            d.tolist(), qi.tolist(), qc.tolist(), gi.tolist(), gc.tolist(), 20
        )
        assert result.counted == counted_ref and result.skipped == skipped_ref
        assert np.allclose(result.cmc, cmc_ref, atol=1e-9)
        assert math.isclose(result.mean_ap, map_ref, abs_tol=1e-9)


def test_label_shape_validation():
    distances = np.ones((2, 3))
    with pytest.raises(ContractError):
        evaluate(distances, [0], [0, 0], [0, 1, 2], [0, 0, 0])
    with pytest.raises(ContractError):
        evaluate(distances, [0, 1], [0, 0], [0, 1], [0, 0])
    with pytest.raises(ContractError):
        evaluate(distances, [0, 1], [0, 0], [0, 1, 2], [0, 0, 0], max_rank=0)


@pytest.mark.parametrize("dims", [(3,), (1, 2, 3), ()])
def test_evaluate_rejects_distances_that_are_not_a_matrix(dims):
    with pytest.raises(ContractError, match="matrix"):
        evaluate(np.zeros(dims), [0], [0], [0, 1], [1, 1])


def test_rank_k_accessor():
    result = RetrievalResult(
        cmc=np.array([0.5, 0.75, 1.0]),
        mean_ap=0.8,
        average_precisions=np.array([0.8]),
        counted=1,
        skipped=0,
    )
    assert result.rank_k(1) == 0.5
    assert result.rank_k(3) == 1.0
    # past max_rank there is no curve to read
    with pytest.raises(ContractError, match="rank k"):
        result.rank_k(4)


@pytest.mark.parametrize("k", [0, -1])
def test_rank_k_below_one_is_contract_error(k):
    result = RetrievalResult(
        cmc=np.array([0.5, 1.0]), mean_ap=0.8, average_precisions=np.array([0.8]), counted=1, skipped=0
    )
    # cmc[k - 1] would silently read from the end of the curve
    with pytest.raises(ContractError, match="rank k"):
        result.rank_k(k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_evaluate_oracle_property(seed):
    rng = np.random.default_rng(seed)
    n_q, n_g = int(rng.integers(2, 8)), int(rng.integers(5, 15))
    d = rng.uniform(size=(n_q, n_g))
    qi = rng.integers(0, 4, size=n_q)
    qc = rng.integers(0, 2, size=n_q)
    gi = rng.integers(0, 4, size=n_g)
    gc = rng.integers(0, 2, size=n_g)
    try:
        result = evaluate(d, qi, qc, gi, gc, max_rank=n_g)
    except EvaluationError:
        return
    cmc_ref, map_ref, counted_ref, skipped_ref = evaluate_loops(
        d.tolist(), qi.tolist(), qc.tolist(), gi.tolist(), gc.tolist(), n_g
    )
    assert result.counted == counted_ref
    assert np.allclose(result.cmc, cmc_ref, atol=1e-9)
    assert math.isclose(result.mean_ap, map_ref, abs_tol=1e-9)

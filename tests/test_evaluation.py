import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strf.backbone import Network, resnet50_spec
from strf.errors import ContractError, DomainError, EvaluationError
from strf.evaluation import (
    RetrievalResult,
    Tracklet,
    distance_matrix,
    evaluate,
    sample_clips,
    tracklet_feature,
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


def test_train_indices_deterministic_under_seed():
    a = train_clip_indices(30, 4, 8, np.random.default_rng(5))
    b = train_clip_indices(30, 4, 8, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_clips_shapes(rng):
    frames = rng.normal(size=(10, 3, 8, 4)).astype(np.float32)
    t = Tracklet(frames=frames, identity=0, camera=0)
    test_clips = sample_clips(t, clip_len=4, mode="test")
    assert test_clips.shape == (3, 3, 4, 8, 4)
    train_clips = sample_clips(t, clip_len=4, stride=2, mode="train", rng=rng)
    assert train_clips.shape == (1, 3, 4, 8, 4)
    with pytest.raises(ContractError):
        sample_clips(t, clip_len=4, mode="train")  # rng required
    with pytest.raises(ContractError):
        sample_clips(t, clip_len=4, mode="valid")


def test_sample_clips_values_match_indices(rng):
    frames = rng.normal(size=(6, 3, 4, 2)).astype(np.float32)
    t = Tracklet(frames=frames, identity=1, camera=0)
    clips = sample_clips(t, clip_len=4, mode="test")
    # second chunk is frames [4, 5, 5, 5], channel-first
    expect = frames[[4, 5, 5, 5]].transpose(1, 0, 2, 3)
    assert np.array_equal(clips[1], expect)


def test_tracklet_feature_is_mean_of_clip_embeddings(rng):
    spec = resnet50_spec(classes=3, variant="p3d-c", strf_stages=(2,), variant_stages=(2,),
                         width_div=16, blocks=(1, 1, 1, 1))
    net = Network(spec, seed=0)
    frames = rng.normal(size=(9, 3, 32, 16)).astype(np.float32)
    t = Tracklet(frames=frames, identity=0, camera=0)
    feat = tracklet_feature(net, t, clip_len=4)
    from strf.evaluation import clip_features

    manual = clip_features(net, sample_clips(t, 4, mode="test")).mean(axis=0)
    assert np.allclose(feat, manual)
    assert feat.shape == (128,)


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

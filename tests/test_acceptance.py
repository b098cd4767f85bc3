"""End-to-end acceptance gate for the package.

Nine criteria, one test each: gradient fidelity of the tape against finite
differences, the attention-mask laws, exact identity cases of the pooling
path, brute-force oracle agreement for the four numerically subtle routines,
parameter accounting against the published rounded totals, an overfit sanity
run, a directional benchmark (attention model vs flat baseline on appearance
twins), hand-built retrieval metric fixtures, and a full ablation matrix
through the real CLI.
"""
import csv
import math
import os
import time

import numpy as np
import pytest

from strf.backbone import Network, count_params, resnet50_spec
from strf.cli import dispatch
from strf.config import RunConfig, parse_config_text, synth_spec_from, with_overrides
from strf.evaluation import distance_matrix, evaluate, stacked_features
from strf.factorize import (
    BRANCH_ORDER,
    StrfConfig,
    fam_mask,
    init_strf_params,
    strf_forward,
    strf_param_count,
    ffm_apply,
)
from strf.gradsuite import run_suite
from strf.kernels import pool3d
from strf.losses import batch_hard_triplet
from strf.synthdata import generate, load_tracklets
from strf.tensor import Tensor
from strf.train import load_eval_network, params_report, run_retrieval, run_training

from oracles import batch_hard_loops, evaluate_loops, fam_mask_loops, ffm_apply_loops

GRAD_TOLERANCE = 1e-6
MASK_TOLERANCE = 1e-5
ORACLE_TOLERANCE = 1e-6

# externally reported rounded totals for this architecture family
REPORTED_BASELINE = 25_480_000
REPORTED_WITH_ATTENTION = 25_530_000
REPORT_BAND = 0.03

EXACT_BASELINE = 26_168_384
EXACT_WITH_ATTENTION = 26_283_072
EXACT_DELTA = 114_688

TOY_MODEL = {
    "width_div": 16,
    "blocks": (1, 1, 1, 1),
    "variant": "p3d-c",
    "strf_stages": (2, 3),
    "variant_stages": (2, 3),
}
FLAT_MODEL = {
    "width_div": 16,
    "blocks": (1, 1, 1, 1),
    "variant": "c2d",
    "strf_stages": (),
    "variant_stages": (),
}


def random_volume(rng, max_dims=(8, 2, 3, 2)):
    dims = tuple(int(rng.integers(1, top + 1)) for top in max_dims)
    return rng.normal(size=dims)


# 1 ----------------------------------------------------------------------------

def test_gradient_fidelity():
    started = time.time()
    results = run_suite(eps=1e-5)
    elapsed = time.time() - started
    names = {name for name, _ in results}
    # the suite must actually include the advertised probes
    assert "strf_forward_input" in names
    assert {"block_i3d_strf", "block_p3d-a_strf", "block_p3d-b_strf", "block_p3d-c_strf"} <= names
    assert "cross_entropy" in names and "batch_hard_triplet" in names
    assert {"conv3d_stride1_input_1x3x3", "conv3d_stride1_input_3x3x3"} <= names
    assert {"conv3d_strided", "conv3d_strided_weights", "conv3d_stem_input"} <= names
    assert {"ffm_branch_avg3_max5_input", "ffm_branch_avg3_max5_weight_fine",
            "ffm_branch_avg3_max5_weight_coarse"} <= names
    worst = max(err for _, err in results)
    assert worst <= GRAD_TOLERANCE, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 300.0


# 2 ----------------------------------------------------------------------------

def test_mask_row_stochasticity_and_constant_laws(rng):
    for trial in range(1000):
        volume = random_volume(rng)
        f = Tensor(volume[None])
        dimension = ("temporal", "spatial")[trial % 2]
        resolution = (1, 3)[(trial // 2) % 2]
        pool = ("max", "avg")[(trial // 4) % 2]
        reduction = (2, 16)[(trial // 8) % 2]
        c = volume.shape[0]
        c_r = c // min(reduction, c)
        weight = Tensor(rng.normal(size=(c_r, c)))
        mask = fam_mask(f, weight, dimension, resolution, pool=pool, temperature=4.0)
        sums = mask.data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= MASK_TOLERANCE), f"trial {trial}"

    # constant input: every mask row is uniform and the unit is multiply-by-4
    const = Tensor(np.full((1, 4, 2, 3, 2), 1.7, dtype=np.float32))
    weight = Tensor(np.random.default_rng(0).normal(size=(1, 4)).astype(np.float32))
    mask = fam_mask(const, weight, "temporal", 3)
    assert np.allclose(mask.data, 1.0 / 6.0, atol=MASK_TOLERANCE)
    for integration in ("temporal-then-spatial", "spatial-then-temporal", "parallel"):
        cfg = StrfConfig(integration=integration)
        params = init_strf_params(4, cfg, np.random.default_rng(1), dtype=np.float32)
        out = strf_forward(const, cfg, params)
        assert np.allclose(out.data, 4.0 * const.data, atol=MASK_TOLERANCE), integration


# 3 ----------------------------------------------------------------------------

def test_pooling_identity_cases(rng):
    for mode in ("max", "avg"):
        for _ in range(20):
            x = Tensor(rng.normal(size=(1,) + tuple(rng.integers(1, 5, size=4))))
            out = pool3d(x, (1, 1, 1), mode)
            assert np.array_equal(out.data, x.data), mode  # bit-identical

    # resolution 1 makes the branch's pooling stage the exact identity: the
    # pool kind can no longer influence the mask a single bit
    for _ in range(20):
        f = Tensor(rng.normal(size=(1, 4, 2, 3, 2)))
        weight = Tensor(rng.normal(size=(2, 4)))
        for dimension in ("temporal", "spatial"):
            via_max = fam_mask(f, weight, dimension, 1, pool="max")
            via_avg = fam_mask(f, weight, dimension, 1, pool="avg")
            assert np.array_equal(via_max.data, via_avg.data)


# 4 ----------------------------------------------------------------------------

def test_brute_force_oracle_agreement(rng):
    for trial in range(100):
        f = random_volume(rng)
        c = f.shape[0]
        reduction = int(rng.choice([2, 4, 16]))
        c_r = c // min(reduction, c)
        weight = rng.normal(size=(c_r, c))
        dimension = ("temporal", "spatial")[trial % 2]
        resolution = (1, 3)[(trial // 2) % 2]
        pool = ("max", "avg")[trial % 2]
        ours = fam_mask(Tensor(f[None]), Tensor(weight), dimension, resolution, pool=pool,
                        temperature=4.0).data[0]
        ref = fam_mask_loops(f, dimension, resolution, pool, reduction, 4.0, weight)
        assert np.max(np.abs(ours - np.asarray(ref))) <= ORACLE_TOLERANCE

        sites = f.shape[2] * f.shape[3]
        mask = rng.dirichlet(np.ones(sites), size=sites)
        mixed = ffm_apply(Tensor(f[None]), Tensor(mask[None])).data[0]
        ref_mixed = ffm_apply_loops(f, mask)
        assert np.max(np.abs(mixed - np.asarray(ref_mixed))) <= ORACLE_TOLERANCE

    for trial in range(100):
        p, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        labels = np.repeat(np.arange(p), k)
        emb = rng.normal(size=(p * k, 5)) + 0.1
        margin = float(rng.uniform(0.1, 0.5))
        ours = batch_hard_triplet(Tensor(emb), labels, margin).data.item()
        assert abs(ours - batch_hard_loops(emb, labels.tolist(), margin)) <= ORACLE_TOLERANCE

    checked = 0
    while checked < 100:
        n_q = int(rng.integers(2, 21))
        n_g = int(rng.integers(5, 51))
        d = rng.uniform(size=(n_q, n_g))
        qi, qc = rng.integers(0, 6, size=n_q), rng.integers(0, 3, size=n_q)
        gi, gc = rng.integers(0, 6, size=n_g), rng.integers(0, 3, size=n_g)
        cmc_ref, map_ref, counted_ref, skipped_ref = evaluate_loops(
            d.tolist(), qi.tolist(), qc.tolist(), gi.tolist(), gc.tolist(), n_g
        )
        if counted_ref == 0:
            continue
        result = evaluate(d, qi, qc, gi, gc, max_rank=n_g)
        assert result.counted == counted_ref and result.skipped == skipped_ref
        assert np.max(np.abs(result.cmc - np.asarray(cmc_ref))) <= ORACLE_TOLERANCE
        assert abs(result.mean_ap - map_ref) <= ORACLE_TOLERANCE
        checked += 1


# 5 ----------------------------------------------------------------------------

def test_parameter_accounting():
    baseline_spec = resnet50_spec(classes=625, variant="p3d-c", strf_stages=(),
                                  variant_stages=(2, 3))
    attention_spec = resnet50_spec(classes=625, variant="p3d-c", strf_stages=(2, 3),
                                   variant_stages=(2, 3))
    _, baseline_total = count_params(Network(baseline_spec, seed=0))
    _, attention_total = count_params(Network(attention_spec, seed=0))

    assert baseline_total == EXACT_BASELINE
    assert attention_total == EXACT_WITH_ATTENTION
    assert abs(baseline_total - REPORTED_BASELINE) / REPORTED_BASELINE <= REPORT_BAND
    assert abs(attention_total - REPORTED_WITH_ATTENTION) / REPORTED_WITH_ATTENTION <= REPORT_BAND

    delta = attention_total - baseline_total
    formula = 4 * strf_param_count(128) + 6 * strf_param_count(256)
    assert delta == EXACT_DELTA == formula

    report = params_report(RunConfig())
    assert str(EXACT_WITH_ATTENTION) in report
    assert str(EXACT_DELTA) in report
    # the three mutually inconsistent published overhead figures are
    # documented, not matched
    for figure in ("0.15M", "0.05M", "0.5M"):
        assert figure in report
    assert "inconsistent" in report


# 6 ----------------------------------------------------------------------------

def evaluate_tracklet_pool(net, tracklets, clip_len, max_rank):
    """Self-retrieval over one pool (each tracklet queries all the others);
    the protocol's same-camera exclusion removes the self match."""
    feats = stacked_features(net, tracklets, clip_len)
    ids = [t.identity for t in tracklets]
    cams = [t.camera for t in tracklets]
    return evaluate(distance_matrix(feats, feats), ids, cams, ids, cams, max_rank=max_rank)


def overfit_config():
    return with_overrides(
        RunConfig(),
        model=TOY_MODEL,
        train={"lr": 1e-3, "weight_decay": 0.0, "epochs": 30, "steps_per_epoch": 10,
               "lr_decay_epochs": 20, "lr_decay_factor": 0.1, "batch_p": 8, "batch_k": 4,
               "clip_len": 4, "clip_stride": 2, "flip_prob": 0.0, "erase_prob": 0.0,
               "seed": 0, "log_every": 50},
        data={"synth_identities": 8, "synth_tracklets": 4, "synth_frames": 16,
              "synth_height": 32, "synth_width": 16, "synth_cameras": 2,
              "synth_pairing": "none", "synth_train_identities": 8, "synth_seed": 1},
    )


def test_toy_overfit_reaches_perfect_train_retrieval(tmp_path):
    started = time.time()
    cfg = overfit_config()
    root = str(tmp_path / "data")
    generate(synth_spec_from(cfg.data), root)
    manifest = os.path.join(root, "manifest.tsv")

    summary = run_training(cfg, str(tmp_path / "run"), manifest=manifest)
    assert summary["steps"] <= 300
    assert summary["total"] < 0.1, f"final total loss {summary['total']:.4f}"

    net = load_eval_network(cfg, summary["checkpoint"], manifest)
    tracklets = load_tracklets(manifest, "train")
    result = evaluate_tracklet_pool(net, tracklets, cfg.train.clip_len, max_rank=5)
    assert result.rank_k(1) == 1.0
    assert time.time() - started < 900.0

    # determinism per seed: a short rerun of the same recipe reproduces the
    # losses bit for bit
    short = with_overrides(cfg, train={"epochs": 1, "steps_per_epoch": 10})
    first = run_training(short, str(tmp_path / "det_a"), manifest=manifest)
    second = run_training(short, str(tmp_path / "det_b"), manifest=manifest)
    assert (first["ce"], first["triplet"], first["total"]) == (
        second["ce"], second["triplet"], second["total"]
    )


# 7 ----------------------------------------------------------------------------

def test_attention_model_beats_flat_baseline_on_twins(tmp_path):
    base = with_overrides(
        RunConfig(),
        train={"lr": 1e-3, "weight_decay": 0.0, "epochs": 15, "steps_per_epoch": 10,
               "lr_decay_epochs": 1000, "batch_p": 8, "batch_k": 4,
               "clip_len": 4, "clip_stride": 2, "flip_prob": 0.0, "erase_prob": 0.0,
               "log_every": 50},
        data={"synth_identities": 16, "synth_tracklets": 4, "synth_frames": 16,
              "synth_height": 32, "synth_width": 16, "synth_cameras": 2,
              "synth_pairing": "appearance", "synth_train_identities": 8,
              "synth_seed": 2},
        eval={"max_rank": 5, "ranks": (1, 5)},
    )
    root = str(tmp_path / "twins")
    generate(synth_spec_from(base.data), root)
    manifest = os.path.join(root, "manifest.tsv")

    def rank1(model, seed, tag):
        cfg = with_overrides(base, model=model, train={"seed": seed})
        out = str(tmp_path / f"run_{tag}_{seed}")
        summary = run_training(cfg, out, manifest=manifest)
        result = run_retrieval(cfg, summary["checkpoint"], out + "_eval", manifest=manifest)
        return result.rank_k(1)

    diffs = []
    for seed in (0, 1, 2):
        with_attention = rank1(TOY_MODEL, seed, "attn")
        flat = rank1(FLAT_MODEL, seed, "flat")
        diffs.append(with_attention - flat)
    mean_diff = sum(diffs) / len(diffs)
    assert mean_diff > 0.0, f"per-seed rank-1 differences {diffs}"


# 8 ----------------------------------------------------------------------------

def test_retrieval_metric_fixtures():
    # perfect retrieval: every relevant entry precedes every irrelevant one
    perfect = evaluate(
        np.array([[0.0, 0.9, 0.8], [0.7, 0.1, 0.2]]),
        [0, 1], [0, 0], [0, 1, 1], [1, 1, 1], max_rank=3,
    )
    assert perfect.rank_k(1) == 1.0
    assert math.isclose(perfect.mean_ap, 1.0)

    # a single relevant document ranked second of two: AP = 1/2
    half = evaluate(np.array([[0.2, 0.9]]), [5], [0], [6, 5], [1, 1], max_rank=2)
    assert math.isclose(half.mean_ap, 0.5)
    assert half.cmc.tolist() == [0.0, 1.0]

    # 3-query hand fixture: same-id same-camera gallery entries are excluded.
    # q0's nearest neighbor g0 and q2's nearest neighbor g3 both share their
    # query's identity AND camera, so both are struck from the ranking.
    distances = np.array(
        [
            [0.05, 0.10, 0.20, 0.90, 0.90],
            [0.90, 0.10, 0.90, 0.90, 0.30],
            [0.50, 0.90, 0.90, 0.05, 0.40],
        ]
    )
    query_ids, query_cams = [0, 5, 2], [0, 0, 1]
    gallery_ids = [0, 5, 0, 2, 2]
    gallery_cams = [0, 1, 1, 1, 0]
    result = evaluate(distances, query_ids, query_cams, gallery_ids, gallery_cams, max_rank=5)
    # by hand: q0 loses g0, so the wrong-id g1 takes rank 1 and the true hit
    # g2 lands at rank 2 (AP 1/2); q1 keeps its cross-camera hit at rank 1
    # (AP 1); q2 loses g3 and its cross-camera copy g4 takes rank 1 (AP 1)
    assert result.counted == 3 and result.skipped == 0
    assert result.average_precisions.tolist() == [0.5, 1.0, 1.0]
    assert math.isclose(result.mean_ap, 2.5 / 3.0)
    assert math.isclose(result.rank_k(1), 2.0 / 3.0)
    assert result.rank_k(2) == 1.0

    # counterfactual: with no camera collisions nothing is excluded, the two
    # struck entries come back as rank-1 hits, and the scores rise exactly as
    # hand computation predicts
    kept = evaluate(distances, query_ids, [0, 0, 0], gallery_ids, [1, 1, 1, 1, 0], max_rank=5)
    assert kept.rank_k(1) == 1.0
    assert math.isclose(kept.mean_ap, (5.0 / 6.0 + 1.0 + 1.0) / 3.0)


# 9 ----------------------------------------------------------------------------

MATRIX_BASE = """
[model]
width_div = 16
blocks = 1, 1, 1, 1
variant = p3d-c
strf_stages = 2, 3
variant_stages = 2, 3

[train]
lr = 0.0005
weight_decay = 0.0
epochs = 2
steps_per_epoch = 3
batch_p = 2
batch_k = 2
clip_len = 4
clip_stride = 2
flip_prob = 0.0
erase_prob = 0.0
seed = 7

[data]
synth_identities = 4
synth_tracklets = 2
synth_frames = 8
synth_height = 32
synth_width = 16
synth_cameras = 2
synth_train_identities = 2
synth_seed = 3

[eval]
max_rank = 2
ranks = 1, 2
"""

MATRIX_RUNS = [
    ("phi_ts", "integration = temporal-then-spatial"),
    ("phi_st", "integration = spatial-then-temporal"),
    ("phi_par", "integration = parallel"),
    ("pool_max", "pool_fine = max\npool_coarse = max"),
    ("pool_avg", "pool_fine = avg\npool_coarse = avg"),
    ("branch_tf", "branches = temporal-fine"),
    ("branch_tc", "branches = temporal-coarse"),
    ("branch_sf", "branches = spatial-fine"),
    ("branch_sc", "branches = spatial-coarse"),
    ("res_1_1", "r_fine = 1\nr_coarse = 1"),
    ("res_1_3", "r_fine = 1\nr_coarse = 3"),
    ("res_1_5", "r_fine = 1\nr_coarse = 5"),
    ("res_3_5", "r_fine = 3\nr_coarse = 5"),
]


def test_ablation_matrix_runs_clean(tmp_path, capsys):
    started = time.time()
    base_cfg = tmp_path / "base.cfg"
    base_cfg.write_text(MATRIX_BASE)
    data = str(tmp_path / "data")
    assert dispatch(["synth", "--config", str(base_cfg), "--out", data]) == 0
    manifest = os.path.join(data, "manifest.tsv")

    rows = []
    for tag, overrides in MATRIX_RUNS:
        cfg_path = tmp_path / f"{tag}.cfg"
        cfg_path.write_text(MATRIX_BASE + "\n[model]\n" + overrides + "\n")
        parse_config_text(cfg_path.read_text(), source=str(cfg_path))  # schema sanity

        run_dir = str(tmp_path / f"run_{tag}")
        rc = dispatch(["train", "--config", str(cfg_path), "--out", run_dir,
                       "--manifest", manifest])
        assert rc == 0, f"{tag}: train exited {rc}"
        eval_dir = str(tmp_path / f"eval_{tag}")
        rc = dispatch(["eval", "--config", str(cfg_path), "--checkpoint",
                       os.path.join(run_dir, "checkpoint"), "--out", eval_dir,
                       "--manifest", manifest])
        assert rc == 0, f"{tag}: eval exited {rc}"

        rows.append((tag, eval_dir))
    capsys.readouterr()

    # collect one comparable CSV across the whole matrix
    table_path = tmp_path / "ablation.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "map", "rank1"])
        for tag, eval_dir in rows:
            values = {}
            with open(os.path.join(eval_dir, "report.txt")) as fh_r:
                for line in fh_r:
                    key, _, value = line.partition(":")
                    values[key.strip()] = value.strip()
            writer.writerow([tag, values["mAP"], values["rank-1"]])

    with open(table_path) as fh:
        read_back = list(csv.reader(fh))
    assert len(read_back) == len(MATRIX_RUNS) + 1
    for row in read_back[1:]:
        assert 0.0 <= float(row[1]) <= 1.0 and 0.0 <= float(row[2]) <= 1.0
    assert time.time() - started < 3600.0

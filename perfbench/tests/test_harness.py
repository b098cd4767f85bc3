"""Self-test of the benchmark harness at minute sizes.

    python -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, loop_scores  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 0.01  # one call per phase


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_the_workloads_the_harness_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_and_patches_nothing(workload, capsys):
    strf = run.import_strf()
    before = tracing.snapshot(strf)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", str(SECONDS),
                     "--trace", "0", "--size", "tiny"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    after = tracing.snapshot(strf)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_restores_patches_and_self_times_fit_in_wall_time(workload, tmp_path):
    strf = run.import_strf()
    before = tracing.snapshot(strf)
    result, _, tracer = run.measure(workload, 3, SECONDS, True, "tiny", str(tmp_path / "spans.jsonl"))
    after = tracing.snapshot(strf)
    assert all(after[k] is before[k] for k in before)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")

    self_s, bwd_s, _ = tracer.totals()
    wall = sum(s.end - s.start for s in tracer.spans if s.name == tracing.ROOT)
    attributed = sum(self_s[n] + bwd_s[n] for n in self_s if n != tracing.ROOT)
    assert all(s.end - s.start - s.child >= -1e-9 for s in tracer.spans)
    assert 0 < attributed <= wall
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    lines = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(tracer.spans)


def test_tape_counts_only_where_the_tape_runs():
    counts = {}
    for workload in WORKLOADS:
        result, _, _ = run.measure(workload, 4, SECONDS, True, "tiny")
        counts[workload] = result["metrics"]["tensor.nodes_per_step"]["value"]
    assert counts["train-strf"] > 0
    assert counts["infer-full"] == counts["eval-flat"] == 0


def test_loop_scores_matches_a_hand_fixture():
    # the same fixture as the package's retrieval test: same-id same-camera
    # gallery entries are struck before ranking
    distances = [[0.05, 0.10, 0.20, 0.90, 0.90],
                 [0.90, 0.10, 0.90, 0.90, 0.30],
                 [0.50, 0.90, 0.90, 0.05, 0.40]]
    query = [(0, 0), (5, 0), (2, 1)]
    gallery = [(0, 0), (5, 1), (0, 1), (2, 1), (2, 0)]
    cmc, mean_ap, counted = loop_scores(distances, query, gallery, max_rank=3)
    assert counted == 3
    assert cmc == [2 / 3, 1.0, 1.0]
    assert mean_ap == pytest.approx((1 / 2 + 1 + 1) / 3)

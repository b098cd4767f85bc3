import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "fingerprint.py")
INTEGRATIONS = ("temporal-then-spatial", "spatial-then-temporal", "parallel")


def run_tool(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def printed():
    done = run_tool(os.path.join(ROOT, "src"))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_fingerprint_prints_one_digest_per_output(printed):
    rows = [line.split(" ") for line in printed.splitlines()]
    assert all(len(row) == 2 and re.fullmatch("[0-9a-f]{64}", row[1]) for row in rows), rows
    digests = dict(rows)
    assert len(digests) == len(rows) == 3 + 12 * 2 + 4 + 1 + 3 + 2
    assert [name for name in digests if name.startswith("export/")] == [f"export/stage{n}" for n in (1, 2, 3, 4)]
    assert [name for name in digests if name.startswith("data/")] == ["data/train", "data/query", "data/gallery"]
    assert "features/p3d-c-strf" in digests
    assert [name for name in digests if name.startswith(("train/i3d/", "train/p3d-b/"))] == [
        "train/i3d/checkpoint", "train/i3d/metrics.csv", "train/p3d-b/checkpoint", "train/p3d-b/metrics.csv"]
    assert [name for name in digests if name.startswith("eval/")] == [
        "eval/c2d/report.txt", "eval/c2d/cmc.csv", "eval/c2d/ap.csv"]
    assert [name for name in digests if name.startswith("params/")] == ["params/default", "params/toy"]
    # a unit with one active dimension is that dimension's branch in every integration
    for branches in ("temporal-fine", "spatial-coarse"):
        for part in ("checkpoint", "metrics.csv"):
            assert len({digests[f"train/{i}/{branches}/{part}"] for i in INTEGRATIONS}) == 1
    # with both dimensions active the three integrations train differently
    assert len({digests[f"train/{i}/all/checkpoint"] for i in INTEGRATIONS}) == 3
    # the default max-pooling coarse branches train differently from avg-pooling ones
    for part in ("checkpoint", "metrics.csv"):
        assert digests[f"train/temporal-then-spatial/all-max-pool/{part}"] != digests[
            f"train/temporal-then-spatial/all/{part}"]


def test_fingerprint_rerun_is_bit_identical(printed):
    # same seeds, same bytes: data, training, export, features, retrieval
    # and the params report, all in one check
    again = run_tool(os.path.join(ROOT, "src"))
    assert again.returncode == 0, again.stderr
    assert again.stdout == printed


def test_fingerprint_takes_exactly_a_source_directory():
    done = run_tool()
    assert done.returncode == 2
    assert "usage" in done.stderr

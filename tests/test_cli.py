import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import strf
from strf import train
from strf.cli import dispatch
from strf.config import parse_config
from strf.netpbm import read_pgm
from strf.tensor import Tensor

CONFIG = """
[model]
width_div = 16
blocks = 1, 1, 1, 1
variant = p3d-c
strf_stages = 2, 3
variant_stages = 2, 3

[train]
lr = 0.0005
weight_decay = 0.0
epochs = 1
steps_per_epoch = 2
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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth + train pass shared by the happy-path command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.cfg"
    config.write_text(CONFIG)
    data = str(root / "data")
    run = str(root / "run")
    assert dispatch(["synth", "--config", str(config), "--out", data]) == 0
    manifest = os.path.join(data, "manifest.tsv")
    assert dispatch(["train", "--config", str(config), "--out", run, "--manifest", manifest]) == 0
    return {
        "config": str(config),
        "manifest": manifest,
        "run": run,
        "checkpoint": os.path.join(run, "checkpoint"),
    }


def test_synth_writes_dataset(pipeline):
    assert os.path.exists(pipeline["manifest"])
    with open(pipeline["manifest"]) as fh:
        header = fh.readline().strip()
    assert header == "path\tid\tcamera\tsplit"


def test_train_leaves_artifacts(pipeline, capsys):
    assert os.path.exists(os.path.join(pipeline["run"], "metrics.csv"))
    assert os.path.exists(os.path.join(pipeline["checkpoint"], "manifest.tsv"))
    with open(os.path.join(pipeline["run"], "metrics.csv")) as fh:
        lines = [l for l in fh if l.strip() and not l.startswith("#")]
    assert lines[0].strip() == "step,ce,triplet,total"
    assert len(lines) >= 2


def test_eval_command(pipeline, tmp_path, capsys):
    out = str(tmp_path / "eval")
    rc = dispatch([
        "eval", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--out", out, "--manifest", pipeline["manifest"],
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "mAP=" in stdout and "rank-1=" in stdout
    for name in ("report.txt", "cmc.csv", "ap.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_export_attn_command(pipeline, tmp_path, capsys):
    out = str(tmp_path / "maps")
    rc = dispatch([
        "export-attn", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--tracklet", "query/id_0002/cam0_trk00", "--stage", "3",
        "--out", out, "--manifest", pipeline["manifest"],
    ])
    assert rc == 0
    files = sorted(os.listdir(out))
    assert len(files) == 8  # one map per frame
    assert files[0].endswith("_3_00000.pgm")
    image = read_pgm(os.path.join(out, files[0]))
    assert image.dtype == np.uint8


def test_params_command(pipeline, tmp_path, capsys):
    rc = dispatch(["params", "--config", pipeline["config"]])
    assert rc == 0
    report = capsys.readouterr().out
    assert "total" in report.lower()
    out = str(tmp_path / "params.txt")
    assert dispatch(["params", "--config", pipeline["config"], "--out", out]) == 0
    with open(out) as fh:
        assert fh.read() == report


def test_eval_network_class_count_needs_no_train_frames(pipeline, tmp_path):
    # the class count comes from the manifest's train labels, so a train
    # frame that cannot be read does not change the network eval builds
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(pipeline["manifest"]), data)
    manifest = str(data / "manifest.tsv")
    with open(manifest) as fh:
        train_frame = next(line.split("\t")[0] for line in fh if line.rstrip().endswith("\ttrain"))
    os.remove(data / train_frame)
    cfg = parse_config(pipeline["config"])
    net = train.load_eval_network(cfg, pipeline["checkpoint"], manifest)
    assert net.classifier.weight.shape[0] == 2  # synth_train_identities, not [model] classes


# -- failure modes -----------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    assert dispatch(["params"]) == 2
    capsys.readouterr()


def test_missing_config_file_exits_two(tmp_path, capsys):
    rc = dispatch(["params", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_module_entry_point_runs_the_command(tmp_path):
    # ``python -m strf.cli`` must dispatch like the console script, not import and exit 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(strf.__file__)))
    argv = ["train", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "run")]
    done = subprocess.run([sys.executable, "-m", "strf.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "config error" in done.stderr


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[train]\nlr = banana\n")
    rc = dispatch(["params", "--config", str(bad)])
    assert rc == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("train", "steps_per_epoch = 2", "steps_per_epoch = -1"),
        ("train", "seed = 7", "seed = 7\nlog_every = 0"),
        ("train", "seed = 7", "seed = 7\nlr_decay_factor = -1"),
        ("train", "seed = 7", "seed = 7\nlr_decay_epochs = -4"),
        ("eval", "ranks = 1, 2", "ranks = 0, 2"),
        ("eval", "ranks = 1, 2", "ranks = 1, 2\nbatch_size = 0"),
        ("eval", "ranks = 1, 2", "ranks = 1, 3"),
        ("params", "width_div = 16", "width_div = 0"),
        ("params", "synth_identities = 4", "synth_identities = 3"),
    ],
)
def test_out_of_range_setting_exits_two(pipeline, tmp_path, capsys, command, old, new):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.replace(old, new))
    extra = {
        "train": ["--out", str(tmp_path / "r"), "--manifest", pipeline["manifest"]],
        "eval": ["--checkpoint", pipeline["checkpoint"], "--out", str(tmp_path / "e"),
                 "--manifest", pipeline["manifest"]],
        "params": [],
    }[command]
    rc = dispatch([command, "--config", str(bad), *extra])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "r") and not os.path.exists(tmp_path / "e")


def test_missing_manifest_exits_three(pipeline, tmp_path, capsys):
    rc = dispatch([
        "train", "--config", pipeline["config"], "--out", str(tmp_path / "r"),
        "--manifest", str(tmp_path / "ghost.tsv"),
    ])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_unknown_tracklet_exits_three(pipeline, tmp_path, capsys):
    rc = dispatch([
        "export-attn", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--tracklet", "nosuch/tracklet", "--stage", "2",
        "--out", str(tmp_path / "m"), "--manifest", pipeline["manifest"],
    ])
    assert rc == 3
    assert "nosuch/tracklet" in capsys.readouterr().err


def test_divergent_training_exits_four(pipeline, tmp_path, capsys):
    boom = tmp_path / "boom.cfg"
    boom.write_text(CONFIG.replace("lr = 0.0005", "lr = 1e30").replace(
        "steps_per_epoch = 2", "steps_per_epoch = 4"))
    with np.errstate(all="ignore"):
        rc = dispatch([
            "train", "--config", str(boom), "--out", str(tmp_path / "r"),
            "--manifest", pipeline["manifest"],
        ])
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err


def test_non_finite_gradient_exits_four_naming_the_parameter(pipeline, tmp_path, capsys, monkeypatch):
    # the loss stays finite; two parameters' gradients turn NaN after backward
    nets = []
    build = train.build_train_network

    def recording_build(cfg, classes):
        nets.append(build(cfg, classes))
        return nets[-1]

    backward = Tensor.backward

    def poisoned(self):
        backward(self)
        params = dict(nets[-1].named_params())
        params["classifier.w"].grad[0, 0] = np.inf
        params["stage3.block1.bn3.gamma"].grad[1] = np.nan

    monkeypatch.setattr(train, "build_train_network", recording_build)
    monkeypatch.setattr(Tensor, "backward", poisoned)
    rc = dispatch([
        "train", "--config", pipeline["config"], "--out", str(tmp_path / "r"),
        "--manifest", pipeline["manifest"],
    ])
    assert rc == 4
    assert "non-finite gradient for stage3.block1.bn3.gamma at step 1" in capsys.readouterr().err

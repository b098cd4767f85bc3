import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import strf
from strf import train
from strf.cli import dispatch
from strf.checkpoint import load_checkpoint, save_checkpoint
from strf.config import parse_config, with_overrides
from strf.errors import ContractError
from strf.evaluation import distance_matrix, evaluate, stacked_features
from strf.netpbm import read_pgm, read_ppm, write_ppm
from strf.tensor import Tensor
from strf.tensorio import read_tensor, write_tensor

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


def test_eval_parses_the_manifest_once_and_decodes_each_test_frame_once(pipeline, tmp_path, monkeypatch):
    parses, decoded = [], []
    load_manifest = strf.synthdata.load_manifest

    def counting_parse(path):
        parses.append(path)
        return load_manifest(path)

    def counting_read(path):
        decoded.append(path)
        return read_ppm(path)

    monkeypatch.setattr(strf.synthdata, "load_manifest", counting_parse)
    monkeypatch.setattr(strf.synthdata, "read_ppm", counting_read)
    manifest = pipeline["manifest"]
    cfg = parse_config(pipeline["config"])
    train.run_retrieval(cfg, pipeline["checkpoint"], str(tmp_path / "eval"), manifest=manifest)
    assert parses == [manifest]
    with open(manifest) as fh:
        rows = [line.split("\t")[0] for line in fh if line.rstrip().endswith(("\tquery", "\tgallery"))]
    assert rows and sorted(decoded) == sorted(os.path.join(os.path.dirname(manifest), row) for row in rows)


@pytest.mark.parametrize("flip_prob, erase_prob, fills", [(0.0, 0.0, 0), (0.5, 0.0, 1), (0.0, 0.5, 1)])
def test_training_takes_the_erase_fill_only_when_it_augments(
    pipeline, tmp_path, monkeypatch, flip_prob, erase_prob, fills
):
    means = []
    channel_mean = train.dataset_channel_mean

    def counting(tracklets):
        means.append(len(tracklets))
        return channel_mean(tracklets)

    monkeypatch.setattr(train, "dataset_channel_mean", counting)
    cfg = with_overrides(
        parse_config(pipeline["config"]),
        train={"flip_prob": flip_prob, "erase_prob": erase_prob, "steps_per_epoch": 1},
    )
    train.run_training(cfg, str(tmp_path / "run"), manifest=pipeline["manifest"])
    assert len(means) == fills


def test_export_attn_command(pipeline, tmp_path, capsys, monkeypatch):
    decoded = []

    def counting(path):
        decoded.append(path)
        return read_ppm(path)

    monkeypatch.setattr(strf.synthdata, "read_ppm", counting)
    out = str(tmp_path / "maps")
    rc = dispatch([
        "export-attn", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--tracklet", "query/id_0002/cam0_trk00", "--stage", "3",
        "--out", out, "--manifest", pipeline["manifest"],
    ])
    assert rc == 0
    # only the chosen tracklet's frames are decoded
    assert len(decoded) == 8
    assert all(os.sep.join(("query", "id_0002", "cam0_trk00", "")) in p for p in decoded)
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
    # the class count comes from the checkpoint's classifier, so a train
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


def test_eval_and_export_read_the_class_count_from_the_checkpoint(pipeline, tmp_path, capsys):
    # a test-only dataset has no train labels to count, and [model] classes
    # is left at its default: the checkpoint's classifier still sizes the net
    config = tmp_path / "test-only.cfg"
    config.write_text(CONFIG.replace("synth_train_identities = 2", "synth_train_identities = 0"))
    data = str(tmp_path / "data")
    assert dispatch(["synth", "--config", str(config), "--out", data]) == 0
    manifest = os.path.join(data, "manifest.tsv")
    common = ["--config", str(config), "--checkpoint", pipeline["checkpoint"], "--manifest", manifest]
    assert dispatch(["eval", *common, "--out", str(tmp_path / "eval")]) == 0
    assert dispatch(["export-attn", *common, "--tracklet", "query/id_0000/cam0_trk00", "--stage", "2",
                     "--out", str(tmp_path / "maps")]) == 0
    assert len(os.listdir(tmp_path / "maps")) == 8
    capsys.readouterr()


def test_eval_network_is_folded_for_inference_only(pipeline, tmp_path):
    # the fold derives new conv weights and leaves the parameters and
    # buffers as loaded, so a checkpoint of the eval network is the same bytes
    cfg = parse_config(pipeline["config"])
    net = train.load_eval_network(cfg, pipeline["checkpoint"])
    assert any(pair.folded is not None for pair in net.conv_bns())
    copy = str(tmp_path / "checkpoint")
    save_checkpoint(net, copy)
    names = sorted(os.listdir(pipeline["checkpoint"]))
    assert sorted(os.listdir(copy)) == names
    for name in names:
        with open(os.path.join(pipeline["checkpoint"], name), "rb") as a, open(os.path.join(copy, name), "rb") as b:
            assert a.read() == b.read(), name
    clips = Tensor(np.zeros((1, 3, cfg.train.clip_len, 32, 16), dtype=np.float32))
    with pytest.raises(ContractError):
        net.forward(clips, training=True)
    query = strf.synthdata.load_tracklets(pipeline["manifest"], "query", cfg.data.norm_mean, cfg.data.norm_std)
    again = train.load_eval_network(cfg, pipeline["checkpoint"])
    first, second = (stacked_features(n, query, cfg.train.clip_len, cfg.eval.batch_size) for n in (net, again))
    assert first.tobytes() == second.tobytes()


def test_folded_retrieval_scores_as_the_unfolded_network(pipeline, tmp_path):
    cfg = parse_config(pipeline["config"])
    folded = train.run_retrieval(cfg, pipeline["checkpoint"], str(tmp_path / "eval"), manifest=pipeline["manifest"])
    classes = train.load_eval_network(cfg, pipeline["checkpoint"]).classifier.weight.shape[0]
    net = train.build_train_network(cfg, classes)
    load_checkpoint(net, pipeline["checkpoint"])
    assert all(pair.folded is None for pair in net.conv_bns())
    query, gallery = strf.synthdata.load_tracklets(
        pipeline["manifest"], ("query", "gallery"), cfg.data.norm_mean, cfg.data.norm_std)
    feats = [stacked_features(net, ts, cfg.train.clip_len, cfg.eval.batch_size) for ts in (query, gallery)]
    unfolded = evaluate(distance_matrix(*feats), [t.identity for t in query], [t.camera for t in query],
                        [t.identity for t in gallery], [t.camera for t in gallery], max_rank=cfg.eval.max_rank)
    assert folded.cmc.tolist() == unfolded.cmc.tolist()
    assert abs(folded.mean_ap - unfolded.mean_ap) <= 1e-6
    assert folded.counted == unfolded.counted > 0


def test_params_overhead_is_the_units_own_weights(tmp_path, capsys):
    # stage 3 carries units but is not listed in variant_stages; it is still
    # a p3d-c stage, so the units are the only weights beyond the baseline
    config = tmp_path / "params.cfg"
    config.write_text("[model]\nvariant_stages = 2\nstrf_stages = 2, 3\n")
    assert dispatch(["params", "--config", str(config)]) == 0
    report = capsys.readouterr().out
    assert "total learnable parameters: 26283072\n" in report
    assert "attention-free baseline:    26168384\n" in report
    assert "attention overhead (count): 114688\n" in report
    assert "attention overhead (formula sum over units): 114688\n" in report
    assert "stage 2: 4 units x 4096 params (channels=128)\n" in report
    assert "stage 3: 6 units x 16384 params (channels=256)\n" in report


# -- failure modes -----------------------------------------------------------

@pytest.mark.parametrize("where", ["missing/params.txt", "."])
def test_params_out_that_cannot_be_written_exits_two(pipeline, tmp_path, capsys, where):
    out = str(tmp_path / where)
    assert dispatch(["params", "--config", pipeline["config"], "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{out}: cannot write report" in err


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
        ("train", "seed = 7", "seed = 7\nseed = 8"),
        ("params", "[eval]", "[model]\nwidth_div = 16\n\n[eval]"),
        ("params", "synth_seed = 3", "synth_seed = 3\nnorm_std = 0, 1, 1"),
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


@pytest.mark.parametrize("fault", ["non-integer dims", "missing tensor file", "manifest is a directory",
                                   "trailing tensor bytes"])
def test_eval_checkpoint_faults_exit_three(pipeline, tmp_path, capsys, fault):
    ckpt = str(tmp_path / "ckpt")
    shutil.copytree(pipeline["checkpoint"], ckpt)
    if fault == "non-integer dims":
        manifest = os.path.join(ckpt, "manifest.tsv")
        with open(manifest, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        fields = lines[0].split("\t")
        fields[2] = "4x3x1x7x7.5"
        lines[0] = "\t".join(fields)
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        named = "manifest.tsv:1"
    elif fault == "manifest is a directory":
        manifest = os.path.join(ckpt, "manifest.tsv")
        os.remove(manifest)
        os.mkdir(manifest)
        named = "manifest.tsv: cannot read checkpoint manifest"
    elif fault == "trailing tensor bytes":
        with open(os.path.join(ckpt, "00000.strf"), "ab") as fh:
            fh.write(bytes(8))
        named = "00000.strf: expected a payload of"
    else:
        named = os.path.join(ckpt, "00000.strf")
        os.remove(named)
    rc = dispatch([
        "eval", "--config", pipeline["config"], "--checkpoint", ckpt,
        "--out", str(tmp_path / "e"), "--manifest", pipeline["manifest"],
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and named in err
    assert not os.path.exists(tmp_path / "e")


@pytest.mark.parametrize("command", ["eval", "export-attn"])
def test_non_finite_checkpoint_exits_three(pipeline, tmp_path, capsys, command):
    ckpt = str(tmp_path / "ckpt")
    shutil.copytree(pipeline["checkpoint"], ckpt)
    with open(os.path.join(ckpt, "manifest.tsv"), encoding="utf-8") as fh:
        filename = next(line.split("\t")[3] for line in fh if line.startswith("stage4.block1.conv3.w\t"))
    path = os.path.join(ckpt, filename)
    poisoned = read_tensor(path)
    poisoned.flat[0] = np.nan
    write_tensor(path, poisoned)
    extra = {"eval": [], "export-attn": ["--tracklet", "query/id_0002/cam0_trk00", "--stage", "3"]}[command]
    out = str(tmp_path / "out")
    rc = dispatch([
        command, "--config", pipeline["config"], "--checkpoint", ckpt,
        "--out", out, "--manifest", pipeline["manifest"], *extra,
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "entry stage4.block1.conv3.w holds a non-finite value" in err
    assert not os.path.exists(out)


def eval_with_classifier_line(pipeline, tmp_path, rewrite):
    """Run ``strf eval`` on a copy of the pipeline's checkpoint whose
    manifest line for ``classifier.w`` is ``rewrite(line)``, or gone when
    that is None. Returns the exit code."""
    ckpt = str(tmp_path / "ckpt")
    shutil.copytree(pipeline["checkpoint"], ckpt)
    manifest = os.path.join(ckpt, "manifest.tsv")
    with open(manifest, encoding="utf-8") as fh:
        lines = [rewrite(line) if line.startswith("classifier.w\t") else line for line in fh]
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(line for line in lines if line is not None)
    return dispatch([
        "eval", "--config", pipeline["config"], "--checkpoint", ckpt,
        "--out", str(tmp_path / "e"), "--manifest", pipeline["manifest"],
    ])


def test_checkpoint_without_classifier_exits_three(pipeline, tmp_path, capsys):
    assert eval_with_classifier_line(pipeline, tmp_path, lambda line: None) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "classifier.w" in err
    assert not os.path.exists(tmp_path / "e")


def test_checkpoint_with_an_empty_classifier_exits_three(pipeline, tmp_path, capsys):
    def no_rows(line):
        name, kind, dims, rest = line.split("\t", 3)
        return "\t".join((name, kind, "0x" + dims.split("x")[1], rest))

    assert eval_with_classifier_line(pipeline, tmp_path, no_rows) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "classifier.w" in err
    assert not os.path.exists(tmp_path / "e")


def test_checkpoint_is_written_once_per_step(pipeline, tmp_path, monkeypatch):
    # 2 epochs of 2 steps, a checkpoint every epoch: steps 2 and 4, and the
    # end of the run writes step 4's
    saved = []

    def counting(net, path):
        saved.append(net.classifier.weight.data.copy())
        save_checkpoint(net, path)

    monkeypatch.setattr(train, "save_checkpoint", counting)
    cfg = with_overrides(parse_config(pipeline["config"]), train={"epochs": 2, "checkpoint_every": 1})
    train.run_training(cfg, str(tmp_path / "run"), manifest=pipeline["manifest"])
    assert len(saved) == 2 and not np.array_equal(saved[0], saved[1])


@pytest.mark.parametrize("command", ["train", "eval", "export-attn"])
def test_no_dataset_manifest_exits_two(pipeline, tmp_path, capsys, command):
    extra = {
        "train": [],
        "eval": ["--checkpoint", pipeline["checkpoint"]],
        "export-attn": ["--checkpoint", pipeline["checkpoint"], "--tracklet", "cam0_trk00", "--stage", "2"],
    }[command]
    out = str(tmp_path / "out")
    rc = dispatch([command, "--config", pipeline["config"], "--out", out, *extra])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: no dataset manifest configured; set [data] manifest or pass --manifest\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("fault", ["mixed frame dims", "manifest is a directory"])
def test_eval_loader_faults_exit_three(pipeline, tmp_path, capsys, fault):
    data = str(tmp_path / "data")
    shutil.copytree(os.path.dirname(pipeline["manifest"]), data)
    if fault == "mixed frame dims":
        frame = "query/id_0002/cam0_trk00/frame_00003.ppm"
        write_ppm(os.path.join(data, frame), np.zeros((3, 64, 32), dtype=np.uint8))
        manifest, named = os.path.join(data, "manifest.tsv"), frame
    else:
        manifest, named = data, "cannot read manifest"
    rc = dispatch([
        "eval", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--out", str(tmp_path / "e"), "--manifest", manifest,
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and manifest in err and named in err
    assert not os.path.exists(tmp_path / "e")


def test_eval_with_empty_frames_exits_three(pipeline, tmp_path, capsys):
    # frames of width 0 load as (3, 32, 0) arrays unless the reader refuses them
    data = str(tmp_path / "data")
    shutil.copytree(os.path.dirname(pipeline["manifest"]), data)
    tracklet = os.path.join(data, "query/id_0002/cam0_trk00")
    for name in sorted(os.listdir(tracklet)):
        with open(os.path.join(tracklet, name), "wb") as fh:
            fh.write(b"P6\n0 32\n255\n")
    rc = dispatch([
        "eval", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--out", str(tmp_path / "e"), "--manifest", os.path.join(data, "manifest.tsv"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "PPM of width 0 and height 32 has no pixels" in err
    assert os.path.join(tracklet, "frame_00000.ppm") in err
    assert not os.path.exists(tmp_path / "e")


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf", "-inf"])
def test_gradcheck_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, monkeypatch, tolerance):
    def suite():
        raise AssertionError("the suite ran")

    monkeypatch.setattr("strf.cli.run_suite", suite)
    assert dispatch(["gradcheck", f"--tolerance={tolerance}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --tolerance must be a finite positive number, got {float(tolerance)}\n"


@pytest.mark.parametrize("tolerance", ["-inf", "-nan"])
def test_gradcheck_reads_a_dash_tolerance_token_as_the_value(capsys, monkeypatch, tolerance):
    def suite():
        raise AssertionError("the suite ran")

    monkeypatch.setattr("strf.cli.run_suite", suite)
    assert dispatch(["gradcheck", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --tolerance must be a finite positive number, got {float(tolerance)}\n"


def test_unknown_tracklet_exits_three(pipeline, tmp_path, capsys):
    rc = dispatch([
        "export-attn", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--tracklet", "nosuch/tracklet", "--stage", "2",
        "--out", str(tmp_path / "m"), "--manifest", pipeline["manifest"],
    ])
    assert rc == 3
    assert "nosuch/tracklet" in capsys.readouterr().err


def test_ambiguous_tracklet_exits_three(pipeline, tmp_path, capsys):
    # every identity has a cam0_trk00, so the bare name picks none of them
    rc = dispatch([
        "export-attn", "--config", pipeline["config"], "--checkpoint", pipeline["checkpoint"],
        "--tracklet", "cam0_trk00", "--stage", "2",
        "--out", str(tmp_path / "m"), "--manifest", pipeline["manifest"],
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "ambiguous" in err
    assert "train/id_0000/cam0_trk00" in err and "query/id_0002/cam0_trk00" in err
    assert not os.path.exists(tmp_path / "m")


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

"""Print SHA-256 digests of what the pipeline writes and computes.

    python tools/fingerprint.py SRC_DIR

imports ``strf`` from ``SRC_DIR`` and prints one ``name sha256`` line per
output, in a fixed order:

data/<split>                                the frames, dims and labels of every
    tracklet ``load_tracklets`` returns for the train, query and gallery
    splits of the toy dataset, normalized with the ImageNet mean and std so
    that the normalization's arithmetic is covered too
train/<integration>/<branches>/checkpoint   every checkpoint file, by name
train/<integration>/<branches>/metrics.csv  without its timestamp line
    a 3-step toy p3d-c+STRF ``run_training`` for each of the 3 integrations
    and the branch sets ``all``, ``temporal-fine`` and ``spatial-coarse``
    (coarse branches avg-pool and the temperature is 2.5, so a unit that
    drops either setting changes the digests)
train/temporal-then-spatial/all-max-pool/...
    the same run for all branches with the coarse branches at their default
    max pooling, so the unit's max-pool backward is covered too
train/<variant>/checkpoint, train/<variant>/metrics.csv
    the same run for all branches with i3d blocks (3x3x3 convs, strided in
    stage 2 and 3) and with p3d-b blocks (a 3x1x1 conv at spatial stride 2),
    so the conv geometries the other runs lack are covered too
export/stage<n>                             for n = 1..4, the maps
    ``attention_export`` computes from the first query tracklet with the
    ``train/temporal-then-spatial/all`` checkpoint, as ``strf export-attn``
    loads both
features/p3d-c-strf
    the full-width p3d-c+STRF features of one seeded 4x256x128 clip
eval/c2d/<file>
    ``report.txt``, ``cmc.csv`` and ``ap.csv`` of a retrieval with a toy
    c2d model trained for 3 steps
params/default, params/toy
    the ``strf params`` report of the default config and of the toy
    p3d-c+STRF config

Run it on two source trees and diff the outputs: a change that keeps every
line keeps the pipeline's results byte for byte. All files go to a temporary
directory that is removed at exit.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import numpy as np

INTEGRATIONS = ("temporal-then-spatial", "spatial-then-temporal", "parallel")
BRANCH_SETS = ("all", "temporal-fine", "spatial-coarse")
NORM_MEAN, NORM_STD = (0.485, 0.456, 0.406), (0.229, 0.224, 0.225)

TOY = """
[model]
width_div = 16
blocks = 1, 1, 1, 1
variant = {variant}
strf_stages = {stages}
variant_stages = {stages}
integration = {integration}
branches = {branches}
{pool}
temperature = 2.5

[train]
lr = 0.001
weight_decay = 0.0
epochs = 1
steps_per_epoch = 3
batch_p = 2
batch_k = 2
clip_len = 4
clip_stride = 2
seed = 5

[data]
synth_identities = 4
synth_tracklets = 3
synth_frames = 8
synth_height = 32
synth_width = 16
synth_train_identities = 2
synth_seed = 11

[eval]
max_rank = 4
ranks = 1, 4
"""


def digest_files(paths) -> str:
    """One digest over the names and bytes of ``paths``, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(f"{os.path.basename(path)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/fingerprint.py SRC_DIR", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
    import strf
    from strf.backbone import Network, attention_export, forward_features, resnet50_spec
    from strf.config import RunConfig, parse_config_text, synth_spec_from
    from strf.synthdata import generate, load_tracklets
    from strf.train import load_eval_network, params_report, run_retrieval, run_training

    if not os.path.abspath(strf.__file__).startswith(src + os.sep):
        print(f"strf imported from {strf.__file__}, not from {src}", file=sys.stderr)
        return 2

    def toy(variant, stages, integration="temporal-then-spatial", branches="all", pool="pool_coarse = avg"):
        return parse_config_text(TOY.format(variant=variant, stages=stages,
                                            integration=integration, branches=branches, pool=pool))

    lines = []
    with tempfile.TemporaryDirectory() as work:
        manifest = generate(synth_spec_from(toy("c2d", "").data), os.path.join(work, "data")).path
        for split in ("train", "query", "gallery"):
            h = hashlib.sha256()
            for t in load_tracklets(manifest, split, NORM_MEAN, NORM_STD):
                h.update(f"{t.name}\0{t.identity}\0{t.camera}\0{t.frames.dtype}{t.frames.shape}\0".encode())
                h.update(t.frames.tobytes())
            lines.append((f"data/{split}", h.hexdigest()))

        def train(cfg, out):
            summary = run_training(cfg, out, manifest=manifest)
            ckpt = summary["checkpoint"]
            files = [os.path.join(ckpt, name) for name in sorted(os.listdir(ckpt))]
            with open(summary["log"], encoding="utf-8") as fh:
                log = fh.read().split("\n", 1)[1]  # drop the timestamp line
            return ckpt, digest_files(files), hashlib.sha256(log.encode()).hexdigest()

        for integration in INTEGRATIONS:
            for branches in BRANCH_SETS:
                name = f"train/{integration}/{branches}"
                cfg = toy("p3d-c", "2, 3", integration, branches)
                ckpt, ckpt_sha, log_sha = train(cfg, os.path.join(work, name))
                lines += [(f"{name}/checkpoint", ckpt_sha), (f"{name}/metrics.csv", log_sha)]
                if (integration, branches) == (INTEGRATIONS[0], "all"):
                    exported = ckpt
        name = "train/temporal-then-spatial/all-max-pool"
        _, ckpt_sha, log_sha = train(toy("p3d-c", "2, 3", pool=""), os.path.join(work, name))
        lines += [(f"{name}/checkpoint", ckpt_sha), (f"{name}/metrics.csv", log_sha)]
        for variant in ("i3d", "p3d-b"):
            name = f"train/{variant}"
            _, ckpt_sha, log_sha = train(toy(variant, "2, 3"), os.path.join(work, name))
            lines += [(f"{name}/checkpoint", ckpt_sha), (f"{name}/metrics.csv", log_sha)]

        net = load_eval_network(toy("p3d-c", "2, 3"), exported, manifest)
        clip = load_tracklets(manifest, "query")[0].frames.transpose(1, 0, 2, 3)
        for stage in (1, 2, 3, 4):
            maps = attention_export(net, clip, stage)
            lines.append((f"export/stage{stage}", hashlib.sha256(maps.tobytes()).hexdigest()))

        net = Network(resnet50_spec(625), seed=3)
        clip = np.random.Generator(np.random.PCG64(3)).random((1, 3, 4, 256, 128), dtype=np.float32)
        lines.append(("features/p3d-c-strf", hashlib.sha256(forward_features(net, clip).tobytes()).hexdigest()))
        del net

        flat = toy("c2d", "")
        ckpt, _, _ = train(flat, os.path.join(work, "train-c2d"))
        out = os.path.join(work, "eval-c2d")
        run_retrieval(flat, ckpt, out, manifest=manifest)
        for name in ("report.txt", "cmc.csv", "ap.csv"):
            lines.append((f"eval/c2d/{name}", digest_files([os.path.join(out, name)])))

    for name, cfg in (("default", RunConfig()), ("toy", toy("p3d-c", "2, 3"))):
        lines.append((f"params/{name}", hashlib.sha256(params_report(cfg).encode()).hexdigest()))

    for name, sha in lines:
        print(name, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

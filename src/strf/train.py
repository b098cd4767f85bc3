"""Training and evaluation drivers used by the CLI (and by tests directly)."""
from __future__ import annotations

import datetime
import os

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .tensor import Tensor
from .backbone import Network, count_params, fold_batch_norm
from .checkpoint import load_checkpoint, read_manifest, save_checkpoint
from .config import RunConfig, network_spec_from
from .evaluation import (
    RetrievalResult,
    distance_matrix,
    evaluate,
    stacked_features,
    write_ap_csv,
    write_cmc_csv,
    write_report,
)
from .factorize import strf_param_count
from .losses import total_loss
from .optim import Adam, decayed_lr
from .synthdata import augment_clip, dataset_channel_mean, load_tracklets, make_batch

LOG_NAME = "metrics.csv"
CHECKPOINT_DIR = "checkpoint"


def dataset_manifest(cfg: RunConfig, manifest: str | None) -> str:
    """The dataset manifest a command reads: the one passed, else ``[data] manifest``."""
    path = manifest or cfg.data.manifest
    if not path:
        raise ConfigError("no dataset manifest configured; set [data] manifest or pass --manifest")
    return path


def _train_tracklets(cfg: RunConfig, manifest: str | None):
    path = dataset_manifest(cfg, manifest)
    tracklets = load_tracklets(path, "train", cfg.data.norm_mean, cfg.data.norm_std)
    if not tracklets:
        raise DataError(f"{path}: the train split is empty")
    return path, tracklets


def class_index(tracklets) -> dict[int, int]:
    """Stable identity -> class index mapping (sorted by identity)."""
    return {identity: index for index, identity in enumerate(sorted({t.identity for t in tracklets}))}


def build_train_network(cfg: RunConfig, classes: int) -> Network:
    spec = network_spec_from(cfg.model, classes=classes)
    return Network(spec, seed=cfg.train.seed)


def run_training(cfg: RunConfig, out_dir: str, manifest: str | None = None) -> dict:
    """Run the configured optimization and leave artifacts in ``out_dir``:
    ``metrics.csv`` (per-step losses) and ``checkpoint/``.

    The step budget is epochs x steps-per-epoch, where steps-per-epoch
    defaults to one pass over the train tracklets; ``max_steps`` caps the
    total when positive. Raises NumericError the moment any loss goes
    non-finite, and before the optimizer step when a gradient does, naming
    the first such parameter."""
    t_cfg = cfg.train
    manifest_path, tracklets = _train_tracklets(cfg, manifest)
    mapping = class_index(tracklets)
    net = build_train_network(cfg, classes=len(mapping))

    steps_per_epoch = t_cfg.steps_per_epoch or max(
        1, len(tracklets) // (t_cfg.batch_p * t_cfg.batch_k)
    )
    total_steps = t_cfg.epochs * steps_per_epoch
    if t_cfg.max_steps:
        total_steps = min(total_steps, t_cfg.max_steps)

    rng = np.random.Generator(np.random.PCG64([t_cfg.seed, 0xBA7C4]))
    use_augment = None
    if t_cfg.flip_prob > 0 or t_cfg.erase_prob > 0:
        fill = dataset_channel_mean(tracklets)

        def use_augment(clip, clip_rng):
            return augment_clip(clip, clip_rng, t_cfg.flip_prob, t_cfg.erase_prob, fill)

    opt = Adam([t for _, t in net.named_params()], weight_decay=t_cfg.weight_decay)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, LOG_NAME)
    ckpt_path = os.path.join(out_dir, CHECKPOINT_DIR)

    last = {"ce": float("nan"), "triplet": float("nan"), "total": float("nan")}
    with open(log_path, "w", encoding="utf-8") as log:
        log.write(f"# run started {datetime.datetime.now().isoformat()}\n")
        log.write("step,ce,triplet,total\n")
        for step in range(1, total_steps + 1):
            epoch = (step - 1) // steps_per_epoch
            lr = decayed_lr(t_cfg.lr, epoch, t_cfg.lr_decay_epochs, t_cfg.lr_decay_factor)
            clips, raw_labels = make_batch(
                tracklets,
                t_cfg.batch_p,
                t_cfg.batch_k,
                t_cfg.clip_len,
                t_cfg.clip_stride,
                rng,
                augment=use_augment,
            )
            labels = np.array([mapping[int(v)] for v in raw_labels], dtype=np.int64)
            opt.zero_grad()
            features, logits = net.forward(Tensor(clips), training=True)
            total, ce, triplet = total_loss(logits, features, labels, t_cfg.margin)
            values = (float(ce.data), float(triplet.data), float(total.data))
            if not all(np.isfinite(v) for v in values):
                raise NumericError(f"non-finite loss at step {step}: ce={values[0]}, triplet={values[1]}")
            total.backward()
            for name, param in net.named_params():
                if param.grad is not None and not np.isfinite(param.grad).all():
                    raise NumericError(f"non-finite gradient for {name} at step {step}")
            opt.step(lr=lr)
            last = {"ce": values[0], "triplet": values[1], "total": values[2]}
            if step % t_cfg.log_every == 0 or step == total_steps:
                log.write(f"{step},{values[0]:.6f},{values[1]:.6f},{values[2]:.6f}\n")
            # the last step's checkpoint is the one written after the loop
            if t_cfg.checkpoint_every and step < total_steps and step % (t_cfg.checkpoint_every * steps_per_epoch) == 0:
                save_checkpoint(net, ckpt_path)
    save_checkpoint(net, ckpt_path)
    return {
        "steps": total_steps,
        "classes": len(mapping),
        "manifest": manifest_path,
        "checkpoint": ckpt_path,
        "log": log_path,
        **last,
    }


def load_eval_network(cfg: RunConfig, checkpoint_dir: str, manifest_path: str | None = None) -> Network:
    """Build the configured network with as many classes as the checkpoint's
    ``classifier.w`` has rows, restore the checkpoint into it, and fold its
    batch norms into the convs before them (``fold_batch_norm``), so every
    retrieval forward runs the folded convs. The returned network is for
    inference only: a training forward raises ``ContractError``.
    ``manifest_path`` is unused: the benchmark's eval workload still passes a
    dataset manifest as the third argument."""
    dims = read_manifest(checkpoint_dir).get("classifier.w", (None, ()))[1]
    if not dims or dims[0] < 1:
        raise DataError(f"{checkpoint_dir}: checkpoint has no classifier.w rows to size the classifier by")
    net = build_train_network(cfg, classes=dims[0])
    load_checkpoint(net, checkpoint_dir)
    fold_batch_norm(net)
    return net


def run_retrieval(cfg: RunConfig, checkpoint_dir: str, out_dir: str, manifest: str | None = None) -> RetrievalResult:
    """Embed the query and gallery splits, rank, score, and write reports."""
    manifest_path = dataset_manifest(cfg, manifest)
    query, gallery = load_tracklets(
        manifest_path, ("query", "gallery"), cfg.data.norm_mean, cfg.data.norm_std
    )
    if not query or not gallery:
        raise DataError(f"{manifest_path}: query and gallery splits must both be non-empty")
    net = load_eval_network(cfg, checkpoint_dir)

    q_feats = stacked_features(net, query, cfg.train.clip_len, cfg.eval.batch_size)
    g_feats = stacked_features(net, gallery, cfg.train.clip_len, cfg.eval.batch_size)
    distances = distance_matrix(q_feats, g_feats)
    result = evaluate(
        distances,
        [t.identity for t in query],
        [t.camera for t in query],
        [t.identity for t in gallery],
        [t.camera for t in gallery],
        max_rank=cfg.eval.max_rank,
    )
    os.makedirs(out_dir, exist_ok=True)
    write_report(result, os.path.join(out_dir, "report.txt"), ranks=cfg.eval.ranks)
    write_cmc_csv(result, os.path.join(out_dir, "cmc.csv"))
    write_ap_csv(result, os.path.join(out_dir, "ap.csv"))
    return result


def params_report(cfg: RunConfig) -> str:
    """Human-readable parameter accounting for the configured model: every
    weight, the attention units' own weights as the overhead over the
    attention-free baseline, and the per-unit formula that overhead equals."""
    net = Network(network_spec_from(cfg.model), seed=0)
    rows, total = count_params(net)
    overhead = sum(count for name, _, count in rows if ".strf." in name)

    formula_delta = 0
    unit_lines = []
    for stage_number, stage in enumerate(net.spec.stages, start=1):
        strf = stage[0].strf
        if strf is None:
            continue
        width = stage[0].mid_channels  # units sit at the bottleneck width
        per_unit = strf_param_count(width, strf.reduction, len(strf.branches))
        formula_delta += len(stage) * per_unit
        unit_lines.append(f"stage {stage_number}: {len(stage)} units x {per_unit} params (channels={width})")

    lines = ["name\tdims\tcount"]
    for name, dims, count in rows:
        lines.append(f"{name}\t{'x'.join(str(d) for d in dims)}\t{count}")
    lines.append("")
    lines.append(f"total learnable parameters: {total}")
    lines.append(f"attention-free baseline:    {total - overhead}")
    lines.append(f"attention overhead (count): {overhead}")
    lines.append(f"attention overhead (formula sum over units): {formula_delta}")
    lines.extend(unit_lines)
    lines.append("")
    lines.append(
        "note: externally reported overhead figures for this family of models "
        "(~0.15M per unit, ~0.05M total, ~0.5M total) are mutually inconsistent; "
        "this report states the exact count instead of matching any of them."
    )
    return "\n".join(lines) + "\n"

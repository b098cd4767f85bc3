"""The benchmark's workloads. Each drives one shipped entry point of strf on
inputs made from the run's seed, one call at a time (a closed loop with a
single client), and checks what the call returned.

train-strf  ``run_training`` on the toy p3d-c + STRF acceptance model
infer-full  ``forward_features`` on the paper-size network, one clip a call
eval-flat   ``run_retrieval`` with the attention-free c2d model from a checkpoint

``run_training`` and ``run_retrieval`` are timed from outside without
patching anything: the config section they receive is a ``ReadClock`` that
notes when the program reads chosen fields. ``run_training`` reads
``train.lr_decay_epochs`` as a step starts and ``train.log_every`` as it
ends, once per step; ``run_retrieval`` reads ``eval.batch_size`` first when
its set-up (loading, network, checkpoint) is done and embedding starts.
"""
from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from tracer import perf

TOY_MODEL = {"width_div": 16, "blocks": (1, 1, 1, 1), "variant": "p3d-c",
             "strf_stages": (2, 3), "variant_stages": (2, 3)}
FLAT_MODEL = {"width_div": 16, "blocks": (1, 1, 1, 1), "variant": "c2d",
              "strf_stages": (), "variant_stages": ()}


class ReadClock:
    """Stands in for one frozen config section and records the time of every
    read of the watched fields; other reads pass straight through."""

    def __init__(self, section, *watched):
        self._section = section
        self.marks = {name: [] for name in watched}

    def __getattr__(self, name):
        marks = self.marks.get(name)
        if marks is not None:
            marks.append(perf())
        return getattr(self._section, name)


@dataclasses.dataclass
class Call:
    """One call of the entry point, as the harness saw it."""

    wall: float  # seconds for the whole call
    units: list  # seconds per unit of work (train step, clip, retrieval pass)
    clips: int  # clips the call pushed through the network
    setup: float | None  # the call's own set-up before its first unit
    key: object  # calls with equal keys must return equal fingerprints
    fingerprint: object
    checks: list  # (what, passed)


class Workload:
    unit = "call"
    labels: dict = {}  # e2e metric -> (workload-specific name, scale, unit)

    def __init__(self, strf, size: dict):
        self.strf = strf
        self.size = size
        self.setup_times: list[float] = []  # set-up measured outside the calls
        self.setup_checks: list[tuple[str, bool]] = []
        self.reference: dict = {}  # call key -> fingerprint of the first such call
        self.last: Call | None = None

    def quality(self) -> list:
        """(name, value, unit) of what the calls computed, for the report."""
        return []


def _synth_config(strf, model: dict, seed: int, size: dict, **sections):
    data = {"synth_identities": size["identities"], "synth_tracklets": size["tracklets"],
            "synth_frames": size["frames"], "synth_height": size["height"],
            "synth_width": size["width"], "synth_cameras": 2, "synth_seed": seed,
            **sections.pop("data")}
    return strf.config.with_overrides(strf.config.RunConfig(), model=model, data=data, **sections)


def _generate(strf, cfg, root: str) -> str:
    return strf.synthdata.generate(strf.config.synth_spec_from(cfg.data), root).path


class TrainStrf(Workload):
    """Training steps through ``run_training``: forward and backward kernels,
    the tape, both losses and Adam. Every call trains the same model on the
    same batches, so every call ends on the same loss."""

    unit = "step"
    labels = {"unit_ms.p50": ("train_step_ms.p50", 1.0, "ms"),
              "unit_ms.p90": ("train_step_ms.p90", 1.0, "ms"),
              "clips_per_s": ("train_clips_per_s", 1.0, "1/s")}
    SIZES = {
        "full": {"identities": 16, "tracklets": 4, "frames": 16, "height": 32, "width": 16,
                 "batch_p": 8, "batch_k": 4, "steps": 10},
        "tiny": {"identities": 4, "tracklets": 2, "frames": 8, "height": 32, "width": 16,
                 "batch_p": 2, "batch_k": 2, "steps": 2},
    }

    def __init__(self, strf, size, seed, workdir):
        super().__init__(strf, size)
        # the recipe of the acceptance twins test, with augmentation off
        self.cfg = _synth_config(
            strf, TOY_MODEL, seed, size,
            train={"lr": 1e-3, "weight_decay": 0.0, "epochs": 1, "steps_per_epoch": size["steps"],
                   "lr_decay_epochs": 1000, "batch_p": size["batch_p"], "batch_k": size["batch_k"],
                   "clip_len": 4, "clip_stride": 2, "flip_prob": 0.0, "erase_prob": 0.0,
                   "log_every": size["steps"], "seed": seed},
            data={"synth_pairing": "appearance", "synth_train_identities": size["identities"]},
        )
        self.manifest = _generate(strf, self.cfg, os.path.join(workdir, "data"))
        self.out = os.path.join(workdir, "run")
        self.call()  # warm-up: the first steps of a process run several times slower

    def call(self) -> Call:
        clock = ReadClock(self.cfg.train, "lr_decay_epochs", "log_every")
        t0 = perf()
        summary = self.strf.train.run_training(
            dataclasses.replace(self.cfg, train=clock), self.out, manifest=self.manifest)
        wall = perf() - t0
        starts, ends = clock.marks["lr_decay_epochs"], clock.marks["log_every"]
        steps = summary["steps"]
        if not len(starts) == len(ends) == steps:
            raise RuntimeError(
                f"step clock saw {len(starts)} starts and {len(ends)} ends for {steps} steps; "
                "run_training no longer reads train.lr_decay_epochs and train.log_every once per step")
        losses = (summary["ce"], summary["triplet"], summary["total"])
        return Call(
            wall=wall,
            units=[end - start for start, end in zip(starts, ends)],
            clips=steps * self.size["batch_p"] * self.size["batch_k"],
            setup=starts[0] - t0,
            key="final losses",
            fingerprint=losses,
            checks=[("losses finite", all(math.isfinite(v) for v in losses)),
                    ("step budget", steps == self.size["steps"])],
        )

    def quality(self):
        return [("train_final_loss", self.last.fingerprint[2], "1")]


class InferFull(Workload):
    """Inference at full width: forward kernels, BN, STRF at 512 sites, no
    tape. Set-up is building the network; inputs are seeded uniform clips."""

    unit = "clip"
    labels = {"unit_ms.p50": ("infer_clip_ms.p50", 1.0, "ms"),
              "unit_ms.p90": ("infer_clip_ms.p90", 1.0, "ms"),
              "clips_per_s": ("infer_clips_per_s", 1.0, "1/s")}
    SIZES = {
        "full": {"width_div": 1, "blocks": (3, 4, 6, 3), "classes": 625, "clip": (4, 256, 128),
                 "params": 26_283_072, "builds": 5, "clips": 4},
        "tiny": {"width_div": 16, "blocks": (1, 1, 1, 1), "classes": 8, "clip": (4, 32, 16),
                 "params": 35_124, "builds": 2, "clips": 2},
    }

    def __init__(self, strf, size, seed, workdir):
        super().__init__(strf, size)
        backbone = strf.backbone
        spec = backbone.resnet50_spec(size["classes"], width_div=size["width_div"], blocks=size["blocks"])
        self.feature_dim = spec.feature_dim
        for _ in range(size["builds"]):
            self.net = None  # free the previous build first
            t0 = perf()
            self.net = backbone.Network(spec, seed=seed)
            self.setup_times.append(perf() - t0)
            self.setup_checks.append(("parameter count", backbone.count_params(self.net)[1] == size["params"]))
        rng = np.random.Generator(np.random.PCG64([seed, 1]))
        self.clips = [rng.random((1, 3) + size["clip"], dtype=np.float32) for _ in range(size["clips"])]
        self.calls = 0
        backbone.forward_features(self.net, self.clips[0])  # warm-up: first-touch allocations

    def call(self) -> Call:
        index = self.calls % len(self.clips)
        self.calls += 1
        t0 = perf()
        features = self.strf.backbone.forward_features(self.net, self.clips[index])
        wall = perf() - t0
        return Call(
            wall=wall, units=[wall], clips=1, setup=None, key=index, fingerprint=features.tobytes(),
            checks=[("features finite", bool(np.isfinite(features).all())),
                    ("feature dims", features.shape == (1, self.feature_dim))],
        )


class EvalFlat(Workload):
    """One retrieval pass through ``run_retrieval``: PPM loading, checkpoint
    load, per-tracklet clip batching, distances and ranking, with a c2d model
    (no attention unit; no tape under inference)."""

    unit = "pass"
    labels = {"unit_ms.p50": ("eval_wall_s", 0.001, "s"),
              "unit_ms.p90": ("eval_wall_s.p90", 0.001, "s"),
              "clips_per_s": ("eval_clips_per_s", 1.0, "1/s")}
    SIZES = {
        "full": {"identities": 200, "tracklets": 6, "frames": 8, "height": 32, "width": 16},
        "tiny": {"identities": 4, "tracklets": 3, "frames": 4, "height": 32, "width": 16},
    }

    def __init__(self, strf, size, seed, workdir):
        super().__init__(strf, size)
        # every identity is a test identity: one query and (tracklets - 1)
        # gallery tracklets each, cameras alternating
        self.cfg = _synth_config(
            strf, {**FLAT_MODEL, "classes": 16}, seed, size,
            train={"clip_len": 4}, eval={"batch_size": 16, "max_rank": 20},
            data={"synth_pairing": "none", "synth_train_identities": 0},
        )
        self.manifest = _generate(strf, self.cfg, os.path.join(workdir, "data"))
        self.checkpoint = os.path.join(workdir, "checkpoint")
        net = strf.backbone.Network(strf.config.network_spec_from(self.cfg.model), seed=seed)
        strf.checkpoint.save_checkpoint(net, self.checkpoint)
        self.out = os.path.join(workdir, "eval")
        self.expected = self._reference()

    def _reference(self):
        """The program's own distances for this checkpoint, scored by a plain
        loop that shares no code with ``evaluate``."""
        strf, cfg = self.strf, self.cfg
        splits = [strf.synthdata.load_tracklets(self.manifest, split) for split in ("query", "gallery")]
        net = strf.train.load_eval_network(cfg, self.checkpoint, self.manifest)
        feats = [strf.evaluation.stacked_features(net, ts, cfg.train.clip_len, cfg.eval.batch_size)
                 for ts in splits]
        distances = strf.evaluation.distance_matrix(*feats).tolist()
        self.clips_per_pass = sum(-(-len(t) // cfg.train.clip_len) for ts in splits for t in ts)
        query, gallery = splits
        return loop_scores(distances, [(t.identity, t.camera) for t in query],
                           [(t.identity, t.camera) for t in gallery], cfg.eval.max_rank)

    def call(self) -> Call:
        clock = ReadClock(self.cfg.eval, "batch_size")
        t0 = perf()
        result = self.strf.train.run_retrieval(
            dataclasses.replace(self.cfg, eval=clock), self.checkpoint, self.out, manifest=self.manifest)
        wall = perf() - t0
        cmc, mean_ap, counted = self.expected
        return Call(
            wall=wall, units=[wall], clips=self.clips_per_pass, setup=clock.marks["batch_size"][0] - t0,
            key="scores", fingerprint=(result.mean_ap, tuple(result.cmc.tolist())),
            checks=[("mAP equals loop", abs(result.mean_ap - mean_ap) <= 1e-9),
                    ("CMC equals loop", result.cmc.tolist() == cmc),
                    ("queries counted", result.counted == counted)],
        )

    def quality(self):
        return [("eval_map", self.last.fingerprint[0], "1")]


def loop_scores(distances, query, gallery, max_rank):
    """Cross-camera retrieval scored one query at a time: (CMC list, mAP,
    queries counted). Gallery entries with the query's identity and camera are
    dropped; ties rank by gallery index; queries with no positive are skipped."""
    hits = [0] * max_rank
    aps = []
    for row, (qid, qcam) in zip(distances, query):
        ranked = [j for j in sorted(range(len(gallery)), key=lambda j: (row[j], j))
                  if gallery[j] != (qid, qcam)]
        relevant = [gallery[j][0] == qid for j in ranked]
        if not any(relevant):
            continue
        for rank in range(relevant.index(True), max_rank):
            hits[rank] += 1
        found, precision_sum = 0, 0.0
        for position, is_relevant in enumerate(relevant, start=1):
            if is_relevant:
                found += 1
                precision_sum += found / position
        aps.append(precision_sum / found)
    counted = len(aps)
    return [h / counted for h in hits], sum(aps) / counted, counted


WORKLOADS = {"train-strf": TrainStrf, "infer-full": InferFull, "eval-flat": EvalFlat}

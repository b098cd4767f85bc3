"""Span tracing of the strf layers from outside the program.

A traced run replaces each layer's public function at the place its caller
looks it up (``strf.backbone`` binds ``conv3d`` by name, so patching
``strf.kernels`` alone would miss it) with a wrapper that records a span:
name, start, end and the span that was open when it began. Spans stay in
memory; they are summed once, when the run ends.

Backward time is attributed through the tape: every node that
``Tensor._make`` records gets its grad closure wrapped, and the closure's
time is credited to the innermost span that was open when the node was
created. A layer's backward is therefore the time spent in the closures of
every node its forward call created, however many nodes that is.

Self time is a span's duration minus the time its child spans (and, for the
backward walk, the grad closures it ran) account for.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

perf = time.perf_counter

ROOT = "entry"


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "bwd")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent  # index into Tracer.spans, -1 for none
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0  # time covered by child spans and closures run inside
        self.bwd = 0.0  # time in grad closures of nodes created inside this span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        span = Span(name, self.stack[-1] if self.stack else -1)
        self.spans.append(span)
        self.stack.append(index)
        span.start = perf()
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def timed_closure(self, grad_fn, owner: int):
        spans, stack = self.spans, self.stack

        def closure(g):
            t0 = perf()
            grad_fn(g)
            dt = perf() - t0
            if owner >= 0:
                spans[owner].bwd += dt
            if stack:
                spans[stack[-1]].child += dt

        return closure

    # -- summaries -----------------------------------------------------------

    def totals(self):
        """Per span name: self forward seconds, attributed backward seconds,
        and inclusive seconds (duration plus the backward of the whole
        subtree)."""
        subtree_bwd = [s.bwd for s in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i].parent
            if parent >= 0:
                subtree_bwd[parent] += subtree_bwd[i]
        self_s, bwd_s, incl_s = (defaultdict(float) for _ in range(3))
        for span, sub in zip(self.spans, subtree_bwd):
            duration = span.end - span.start
            self_s[span.name] += duration - span.child
            bwd_s[span.name] += span.bwd
            incl_s[span.name] += duration + sub
        return self_s, bwd_s, incl_s

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.bwd]) + "\n")


# -- the patch table ----------------------------------------------------------


def _targets(strf):
    """(owner, attribute, span name) for every lookup site the program uses.
    A name of None means a probe with its own bookkeeping (see ``_probe``)."""
    B, F, L, S, E, TR = (strf.backbone, strf.factorize, strf.losses, strf.synthdata,
                         strf.evaluation, strf.train)
    return [
        (B, "conv3d", None),
        (B, "strided_max_pool3d", "kernels.maxpool"),
        (F, "conv_channel_mix", "factorize.mix"),
        (F, "pool3d", "factorize.pool"),
        (F, "fam_mask", "factorize.gram"),  # self time: flatten, T^t T, scale
        (F, "softmax_rows", "factorize.softmax"),
        (F, "ffm_apply", "factorize.apply"),
        (B, "strf_forward", "factorize.unit"),
        (B.BatchNorm3dLayer, "__call__", "backbone.bn"),
        (B, "relu", "backbone.relu"),
        (B.Bottleneck, "__call__", "backbone.block"),  # self time: residual adds
        (B.Network, "forward", "backbone.network"),  # self time: pooling head, classifier
        (B.Network, "__init__", "backbone.build"),
        (L, "cross_entropy", "losses.ce"),
        (L, "batch_hard_triplet", "losses.triplet"),
        (TR, "total_loss", "losses.total"),
        (strf.optim.Adam, "step", "optim.step"),
        (strf.tensor.Tensor, "backward", "tensor.backward"),
        (strf.tensor.Tensor, "_make", None),
        (TR, "make_batch", "synthdata.make_batch"),
        (TR, "load_tracklets", "synthdata.load"),
        (S, "read_ppm", None),
        (TR, "save_checkpoint", "checkpoint.save"),
        (TR, "load_checkpoint", "checkpoint.load"),
        (TR, "stacked_features", "evaluation.embed"),
        (E, "forward_features", None),
        (TR, "distance_matrix", "evaluation.distance"),
        (TR, "evaluate", "evaluation.rank"),
        (TR, "write_report", "evaluation.write"),
        (TR, "write_cmc_csv", "evaluation.write"),
        (TR, "write_ap_csv", "evaluation.write"),
    ]


def _probe(tracer: Tracer, strf, attr: str, original):
    """Wrappers that count work at the boundary as well as (or instead of)
    timing it."""
    counts = tracer.counts
    if attr == "conv3d":
        grad_enabled = strf.tensor.grad_enabled

        def conv3d(x, weight, *args, **kwargs):
            index = tracer.open("kernels.conv_" + "x".join(str(k) for k in weight.shape[2:]))
            try:
                out = original(x, weight, *args, **kwargs)
            finally:
                tracer.close(index)
            # forward, plus dX and dW when the tape will run them
            passes = 1
            if grad_enabled() and out.requires_grad:
                passes += int(x.requires_grad) + int(weight.requires_grad)
            macs = out.size * (weight.size // weight.shape[0])
            counts["kernels.conv_flop"] += 2 * macs * passes
            counts["kernels.conv_bytes"] += out.data.itemsize * (x.size + weight.size + out.size) * passes
            return out

        return conv3d
    if attr == "_make":
        make = original.__func__

        def _make(data, parents, grad_fn):
            out = make(data, parents, grad_fn)
            if out._grad_fn is not None:
                counts["tensor.nodes"] += 1
                out._grad_fn = tracer.timed_closure(out._grad_fn, tracer.stack[-1] if tracer.stack else -1)
            return out

        return staticmethod(_make)
    if attr == "read_ppm":

        def read_ppm(path):
            counts["synthdata.frames_decoded"] += 1
            return original(path)

        return read_ppm
    if attr == "forward_features":
        traced = tracer.wrap(original, "evaluation.forward")

        def forward_features(net, clips):
            counts["evaluation.forward_calls"] += 1
            counts["evaluation.clips"] += clips.shape[0]
            return traced(net, clips)

        return forward_features
    raise KeyError(attr)


def snapshot(strf) -> dict:
    """The object bound at every lookup site the tracer patches."""
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in _targets(strf)}


@contextlib.contextmanager
def installed(tracer: Tracer, strf):
    """Patch every lookup site for the duration of the block, then restore
    exactly the objects that were bound before."""
    saved = snapshot(strf)
    try:
        for owner, attr, name in _targets(strf):
            original = saved[(owner, attr)]
            replacement = _probe(tracer, strf, attr, original) if name is None else tracer.wrap(original, name)
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)

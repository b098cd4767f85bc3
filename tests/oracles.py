"""Brute-force reference implementations used to pin expected test values.

Everything here is written with explicit Python loops and no imports from the
package under test, so a bug in the fast paths cannot hide in its own oracle.
Slow on purpose; keep instances small. There are two exceptions.
``batch_norm_reference`` is batch norm in whole-array numpy, read off the
attributes of the layer it is handed. ``im2col_windows`` is a frozen copy of
the column build the convs once used: a strided window view copied in column
order.
"""
from __future__ import annotations

import math

import numpy as np


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def softmax_rows_loops(m: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(m, dtype=np.float64))
    for i in range(m.shape[0]):
        row = [float(v) for v in m[i]]
        top = max(row)
        exps = [math.exp(v - top) for v in row]
        total = sum(exps)
        for j, e in enumerate(exps):
            out[i, j] = e / total
    return out


def pool3d_loops(x: np.ndarray, kernel: tuple[int, int, int], mode: str) -> np.ndarray:
    """Stride-1 same-size pooling; max ignores out-of-bounds positions, avg
    divides by the in-bounds count."""
    c, t, h, w = x.shape
    kt, kh, kw = kernel
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for ci in range(c):
        for ti in range(t):
            for hi in range(h):
                for wi in range(w):
                    values = []
                    for dt in range(-(kt // 2), kt // 2 + 1):
                        for dh in range(-(kh // 2), kh // 2 + 1):
                            for dw in range(-(kw // 2), kw // 2 + 1):
                                tt, hh, ww = ti + dt, hi + dh, wi + dw
                                if 0 <= tt < t and 0 <= hh < h and 0 <= ww < w:
                                    values.append(float(x[ci, tt, hh, ww]))
                    out[ci, ti, hi, wi] = max(values) if mode == "max" else sum(values) / len(values)
    return out


def same_geometry(extent: int, kernel: int, stride: int) -> tuple[int, int]:
    """(output extent, padding before) of SAME geometry: output extent =
    ceil(extent / stride), total padding split as before = total // 2."""
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    return out, total // 2


def im2col_windows(data: np.ndarray, kernel: tuple[int, int, int], stride: tuple[int, int, int]) -> np.ndarray:
    """The im2col columns of a SAME conv, dims (n, c*kt*kh*kw, t'*h'*w'), as
    the window-view copy builds them: ``data`` (n, c, t, h, w) padded with
    zeros (``same_geometry``), the (n, c, t', h', w', kt, kh, kw) view of its
    windows, then one copy in (n, c, kt, kh, kw, t', h', w') order."""
    n, c = data.shape[:2]
    geometry = [same_geometry(e, k, s) for e, k, s in zip(data.shape[2:], kernel, stride)]
    grid = [(o - 1) * s + k for (o, _), k, s in zip(geometry, kernel, stride)]
    padded = np.zeros((n, c) + tuple(max(g, e) for g, e in zip(grid, data.shape[2:])), dtype=data.dtype)
    padded[(...,) + tuple(slice(b, b + e) for (_, b), e in zip(geometry, data.shape[2:]))] = data
    outs = tuple(o for o, _ in geometry)
    steps = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (n, c) + outs + tuple(kernel), steps[:2] + tuple(b * s for b, s in zip(steps[2:], stride)) + steps[2:]
    )
    return np.ascontiguousarray(windows.transpose(0, 1, 5, 6, 7, 2, 3, 4)).reshape(n, -1, math.prod(outs))


def max_pool_loops(
    x: np.ndarray,
    kernel: tuple[int, int, int],
    stride: tuple[int, int, int],
    upstream: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling of (c, t, h, w) with SAME geometry (before = total // 2,
    output extent = ceil(in / stride)); returns the pooled values, in
    ``x``'s dtype and bits, and the gradient of their sum, or of their sum
    weighted by ``upstream`` (dims of the output) when it is given.
    Out-of-bounds positions are skipped, so padding never wins; the first
    maximal tap in (dt, dh, dw) scan order wins ties, including ties of -0.0
    with 0.0."""
    c, t, h, wd = x.shape
    kt, kh, kw = kernel
    st, sh, sw = stride

    ot, pt = same_geometry(t, kt, st)
    oh, ph = same_geometry(h, kh, sh)
    ow, pw = same_geometry(wd, kw, sw)
    out = np.zeros((c, ot, oh, ow), dtype=x.dtype)
    grad = np.zeros_like(x)
    for ci in range(c):
        for ti in range(ot):
            for hi in range(oh):
                for wi in range(ow):
                    best = None
                    for a in range(kt):
                        for b in range(kh):
                            for g in range(kw):
                                tt, hh, ww = ti * st - pt + a, hi * sh - ph + b, wi * sw - pw + g
                                if 0 <= tt < t and 0 <= hh < h and 0 <= ww < wd:
                                    if best is None or x[ci, tt, hh, ww] > x[best]:
                                        best = (ci, tt, hh, ww)
                    out[ci, ti, hi, wi] = x[best]
                    grad[best] += 1 if upstream is None else upstream[ci, ti, hi, wi]
    return out, grad


def channel_mix_loops(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    c_in, t, h, w_ = x.shape
    c_out = w.shape[0]
    out = np.zeros((c_out, t, h, w_), dtype=np.float64)
    for o in range(c_out):
        for ti in range(t):
            for hi in range(h):
                for wi in range(w_):
                    acc = 0.0
                    for i in range(c_in):
                        acc += float(w[o, i]) * float(x[i, ti, hi, wi])
                    out[o, ti, hi, wi] = acc
    return out


def conv3d_loops(x: np.ndarray, w: np.ndarray, stride: tuple[int, int, int]) -> np.ndarray:
    """Direct-summation cross-correlation with SAME geometry: zero padding
    with the total split as before = total // 2; output extent =
    ceil(in / stride)."""
    c_in, t, h, wd = x.shape
    c_out, c_in2, kt, kh, kw = w.shape
    assert c_in == c_in2
    st, sh, sw = stride

    ot, pt = same_geometry(t, kt, st)
    oh, ph = same_geometry(h, kh, sh)
    ow, pw = same_geometry(wd, kw, sw)
    out = np.zeros((c_out, ot, oh, ow), dtype=np.float64)
    for o in range(c_out):
        for ti in range(ot):
            for hi in range(oh):
                for wi in range(ow):
                    acc = 0.0
                    for i in range(c_in):
                        for a in range(kt):
                            for b in range(kh):
                                for g in range(kw):
                                    tt = ti * st - pt + a
                                    hh = hi * sh - ph + b
                                    ww = wi * sw - pw + g
                                    if 0 <= tt < t and 0 <= hh < h and 0 <= ww < wd:
                                        acc += float(x[i, tt, hh, ww]) * float(w[o, i, a, b, g])
                    out[o, ti, hi, wi] = acc
    return out


def conv3d_input_grad_loops(
    g: np.ndarray, w: np.ndarray, x_shape: tuple[int, int, int, int], stride: tuple[int, int, int]
) -> np.ndarray:
    """Input gradient of ``conv3d_loops`` for an input of dims ``x_shape``
    (c, t, h, w): each output's gradient ``g`` times each tap's weight,
    scattered onto the input cell that tap read; taps in the padding are
    dropped."""
    c_in, t, h, wd = x_shape
    c_out, c_in2, kt, kh, kw = w.shape
    assert c_in == c_in2
    st, sh, sw = stride

    ot, pt = same_geometry(t, kt, st)
    oh, ph = same_geometry(h, kh, sh)
    ow, pw = same_geometry(wd, kw, sw)
    assert g.shape == (c_out, ot, oh, ow)
    grad = np.zeros(x_shape, dtype=np.float64)
    for o in range(c_out):
        for ti in range(ot):
            for hi in range(oh):
                for wi in range(ow):
                    upstream = float(g[o, ti, hi, wi])
                    for a in range(kt):
                        for b in range(kh):
                            for c in range(kw):
                                tt = ti * st - pt + a
                                hh = hi * sh - ph + b
                                ww = wi * sw - pw + c
                                if 0 <= tt < t and 0 <= hh < h and 0 <= ww < wd:
                                    for i in range(c_in):
                                        grad[i, tt, hh, ww] += upstream * float(w[o, i, a, b, c])
    return grad


def avg_pool_input_grad_loops(g: np.ndarray, kernel: tuple[int, int, int]) -> np.ndarray:
    """Input gradient of stride-1 average pooling (``pool3d_loops``): each
    output's gradient ``g`` (c, t, h, w), divided by its window's in-bounds
    count, added to every in-bounds cell of that window."""
    c, t, h, w = g.shape
    kt, kh, kw = kernel
    grad = np.zeros((c, t, h, w), dtype=np.float64)
    for ci in range(c):
        for ti in range(t):
            for hi in range(h):
                for wi in range(w):
                    cells = []
                    for dt in range(-(kt // 2), kt // 2 + 1):
                        for dh in range(-(kh // 2), kh // 2 + 1):
                            for dw in range(-(kw // 2), kw // 2 + 1):
                                tt, hh, ww = ti + dt, hi + dh, wi + dw
                                if 0 <= tt < t and 0 <= hh < h and 0 <= ww < w:
                                    cells.append((ci, tt, hh, ww))
                    for cell in cells:
                        grad[cell] += float(g[ci, ti, hi, wi]) / len(cells)
    return grad


def reshape_matrix_loops(f: np.ndarray) -> np.ndarray:
    """Flatten (c,t,h,w) to (c*t) x (h*w) with row = c_idx*t + t_idx and
    column = h_idx*w + w_idx."""
    c, t, h, w = f.shape
    out = np.zeros((c * t, h * w), dtype=np.float64)
    for ci in range(c):
        for ti in range(t):
            for hi in range(h):
                for wi in range(w):
                    out[ci * t + ti, hi * w + wi] = float(f[ci, ti, hi, wi])
    return out


def fam_mask_loops(
    f: np.ndarray,
    dimension: str,
    resolution: int,
    pool: str,
    reduction: int,
    temperature: float,
    weight: np.ndarray,
) -> np.ndarray:
    """Channel reduction, axis pooling, flatten, gram matrix, row softmax."""
    reduced = channel_mix_loops(f, weight)
    kernel = (resolution, 1, 1) if dimension == "temporal" else (1, resolution, resolution)
    pooled = pool3d_loops(reduced, kernel, pool)
    tmat = reshape_matrix_loops(pooled)
    sites = tmat.shape[1]
    gram = np.zeros((sites, sites), dtype=np.float64)
    for i in range(sites):
        for j in range(sites):
            acc = 0.0
            for r in range(tmat.shape[0]):
                acc += tmat[r, i] * tmat[r, j]
            gram[i, j] = temperature * acc
    return softmax_rows_loops(gram)


def ffm_apply_loops(f: np.ndarray, mask: np.ndarray) -> np.ndarray:
    c, t, h, w = f.shape
    flat = reshape_matrix_loops(f)
    mixed = matmul_loops(flat, np.asarray(mask, dtype=np.float64))
    out = np.zeros((c, t, h, w), dtype=np.float64)
    for ci in range(c):
        for ti in range(t):
            for hi in range(h):
                for wi in range(w):
                    out[ci, ti, hi, wi] = mixed[ci * t + ti, hi * w + wi]
    return out


def cross_entropy_loops(logits: np.ndarray, labels) -> float:
    total = 0.0
    for i, label in enumerate(labels):
        row = [float(v) for v in logits[i]]
        top = max(row)
        denom = sum(math.exp(v - top) for v in row)
        total += -(row[int(label)] - top - math.log(denom))
    return total / len(labels)


def cosine_distance_loops(u, v) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(sum(float(a) ** 2 for a in u))
    nv = math.sqrt(sum(float(b) ** 2 for b in v))
    return 1.0 - dot / (nu * nv)


def batch_hard_loops(embeddings: np.ndarray, labels, margin: float) -> float:
    n = embeddings.shape[0]
    labels = [int(x) for x in labels]
    total = 0.0
    for a in range(n):
        hardest_pos = None
        hardest_neg = None
        for other in range(n):
            if other == a:
                continue
            d = cosine_distance_loops(embeddings[a], embeddings[other])
            if labels[other] == labels[a]:
                hardest_pos = d if hardest_pos is None else max(hardest_pos, d)
            else:
                hardest_neg = d if hardest_neg is None else min(hardest_neg, d)
        assert hardest_pos is not None and hardest_neg is not None
        total += max(0.0, hardest_pos - hardest_neg + margin)
    return total / n


def evaluate_loops(distances, query_ids, query_cams, gallery_ids, gallery_cams, max_rank):
    """Definitional CMC/mAP: sort with index tie-break, drop same-id+same-cam
    entries, precision-at-relevant AP, first-hit CMC."""
    n_query = len(query_ids)
    cmc = [0.0] * max_rank
    aps = []
    skipped = 0
    for q in range(n_query):
        pairs = sorted((float(distances[q][g]), g) for g in range(len(gallery_ids)))
        ranked = [
            g
            for _, g in pairs
            if not (gallery_ids[g] == query_ids[q] and gallery_cams[g] == query_cams[q])
        ]
        hits = [int(gallery_ids[g] == query_ids[q]) for g in ranked]
        if sum(hits) == 0:
            skipped += 1
            continue
        first = hits.index(1)
        for k in range(max_rank):
            if first <= k:
                cmc[k] += 1.0
        precisions = []
        seen = 0
        for pos, hit in enumerate(hits, start=1):
            seen += hit
            if hit:
                precisions.append(seen / pos)
        aps.append(sum(precisions) / sum(hits))
    counted = n_query - skipped
    if counted == 0:
        raise ZeroDivisionError("all queries skipped")
    return [c / counted for c in cmc], sum(aps) / counted, counted, skipped


def netpbm_tokens_loops(data: bytes, count: int, path: str) -> tuple[list[int], int]:
    """The byte-at-a-time netpbm header scan: ``count`` whitespace- or
    comment-separated integers of ``data`` and the offset just past the single
    whitespace byte that ends the header. Raises ValueError with the message
    the package's DataError carries."""
    values: list[int] = []
    i = 0
    while len(values) < count:
        if i >= len(data):
            raise ValueError(f"{path}: truncated netpbm header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            token = data[i:j]
            if not token.isdigit():
                raise ValueError(f"{path}: malformed netpbm header token {token!r}")
            values.append(int(token))
            i = j
    return values, i + 1


def batch_norm_reference(bn, x: np.ndarray, training: bool):
    """Batch norm of ``x`` (n, c, t, h, w) in plain numpy from the attributes
    of a batch-norm layer ``bn``, which it leaves alone: the batch mean and
    biased variance in training, the running stats in eval. Returns the
    output and the running mean and variance the call leaves behind."""
    running_mean, running_var = bn.running_mean, bn.running_var
    if training:
        mean, var = x.mean(axis=(0, 2, 3, 4)), x.var(axis=(0, 2, 3, 4))
        running_mean = running_mean + bn.momentum * (mean - running_mean)
        running_var = running_var + bn.momentum * (var - running_var)
    else:
        mean, var = running_mean, running_var
    shape = (1, -1, 1, 1, 1)
    normed = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + bn.eps)
    return normed * bn.gamma.data.reshape(shape) + bn.beta.data.reshape(shape), running_mean, running_var

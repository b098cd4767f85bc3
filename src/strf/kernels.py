"""Pooling and convolution over feature volumes.

Every kernel takes a batch of feature volumes, rank-5 ``(batch, channels,
time, height, width)``, and nothing else; a single volume is a batch of one.
``conv3d`` and ``strided_max_pool3d`` are tape ops. ``pool3d`` is the
attention unit's pool step: it works on arrays and hands its backward to the
caller, whose tape node runs it.

Every kernel has SAME geometry (output extent = ceil(input / stride)), and
``_same_grid`` owns it: the padded grid's dims and the crop back to the
input. ``_windows`` pads the input into that grid and returns the strided
window view the pools read. Conv and ``pool3d`` kernel extents are odd
(``_check_kernel``).

Convolution is im2col + GEMM, ``_im2col_gemm``: ``_columns`` builds the
columns, dims (n, c*kt*kh*kw, t'*h'*w'), from the input's stride phases,
planes of the output's extents, so that each tap's row is one shifted run of
t'*h'*w' plane cells and the taps of one phase are one copy; then one GEMM.
Where the copies go depends only on the input's extents, the kernel and the
stride, so ``_column_plan`` works it out once per geometry. Forward is that
GEMM (weight matrix x columns); dW is one GEMM (grad x columns^T, summed over
the batch). dX is the unit-stride conv, through the same helper, of the
output gradient with the kernel flipped in (t, h, w) and its channel axes
swapped (Dumoulin & Visin, arXiv:1603.07285, section 4). At stride s the
output gradient is first spread onto the input grid, s - 1 zeros between
entries; at unit stride it is used as it is. A 1x1x1 conv's columns are one
strided slice of the input. Avg-pool's backward is the box sum of the output
gradient divided by the in-bounds counts.

Max pooling is a running maximum over the kernel's taps, each a strided slice
of the window view, so no window is copied. Only a pool whose backward is
kept (a node the tape records, or a ``pool3d`` call asked to keep it) finds
each window's winning cell (the first maximal tap in scan order) and keeps it
as a flat offset into the padded grid; the backward adds the gradient at
those offsets into a zero grid and crops it. Any other pool computes the
maximum and nothing else.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ShapeError
from .tensor import Tensor, records

Triple = tuple[int, int, int]
POOL_MODES = ("max", "avg")


def check_batch(x: Tensor) -> None:
    """The one rank rule of every volume op: a rank-5 batch."""
    if x.ndim != 5:
        raise ShapeError(f"expected a (batch, channels, time, height, width) volume, got dims {x.shape}")


def _check_triple(value, name: str) -> Triple:
    try:
        triple = tuple(operator.index(v) for v in value)  # a fractional extent is refused, not truncated
    except TypeError:
        triple = ()
    if len(triple) != 3 or any(v < 1 for v in triple):
        raise ConfigError(f"{name} must be three positive extents, got {value}")
    return triple


def _check_kernel(value, name: str) -> Triple:
    """Conv and ``pool3d`` kernel extents are odd, so unit-stride SAME padding is symmetric."""
    kernel = _check_triple(value, name)
    if any(k % 2 == 0 for k in kernel):
        raise ConfigError(f"{name} extents must be odd, got {kernel}")
    return kernel


def _same_grid(shape, kernel: Triple, stride: Triple):
    """SAME geometry of an input of dims ``shape`` (n, c, t, h, w): the dims of
    its padded grid (output extent ceil(extent / stride), the total padding
    split as before = total // 2) and the crop that takes that grid back to
    ``shape``."""
    grid, crop = shape[:2], (...,)
    for extent, k, s in zip(shape[2:], kernel, stride):
        total = max((-(-extent // s) - 1) * s + k - extent, 0)
        grid += (extent + total,)
        crop += (slice(total // 2, total // 2 + extent),)
    return grid, crop


def _windows(data: np.ndarray, kernel: Triple, stride: Triple, fill: float = 0.0) -> np.ndarray:
    """Pad ``data`` (n, c, t, h, w) with ``fill`` for SAME geometry; return the
    read-only window view, dims (n, c, t', h', w', kt, kh, kw): window
    (i, j, k) starts at padded site (i*st, j*sh, k*sw)."""
    grid, crop = _same_grid(data.shape, kernel, stride)
    padded = data
    if grid != data.shape:
        padded = np.full(grid, fill, dtype=data.dtype)
        padded[crop] = data
    starts = tuple((e - k) // s + 1 for e, k, s in zip(grid[2:], kernel, stride))
    steps = padded.strides
    window_steps = steps[:2] + tuple(b * s for b, s in zip(steps[2:], stride)) + steps[2:]
    return as_strided(padded, grid[:2] + starts + kernel, window_steps, writeable=False)


def _lattice(counts, spacings) -> np.ndarray:
    """Flat offsets of a lattice, dims ``counts``: the sum over axes of each
    index times that axis's spacing."""
    offsets = np.zeros((), dtype=np.intp)
    for count, spacing in zip(counts, spacings):
        offsets = np.add.outer(offsets, np.arange(count) * spacing)
    return offsets


def _pool(data: np.ndarray, kernel: Triple, mode: str, stride: Triple, keep: bool):
    """Pool ``data`` (n, c, t, h, w). Returns the pooled array and, when
    ``keep``, its backward: a function from an output gradient to a new input
    gradient array (``None`` otherwise)."""
    backward = None
    if mode == "max":
        win = _windows(data, kernel, stride, fill=-np.inf)
        taps = [(...,) + tap for tap in np.ndindex(*kernel)]
        # running maximum in scan order; on a tie np.maximum returns its
        # second operand, so the earlier tap keeps its value (and its bits)
        out = win[taps[0]].copy()
        for tap in taps[1:]:
            np.maximum(win[tap], out, out=out)
        if keep:
            # each output's winning cell as a flat offset into the padded
            # grid: the first maximal tap in scan order, as argmax finds it.
            # Sweep the taps backwards so the earliest match is written last;
            # a window holding a NaN yields NaN, and its first NaN tap wins
            grid_shape, crop = _same_grid(data.shape, kernel, stride)
            steps = [math.prod(grid_shape[axis + 1 :]) for axis in range(5)]  # the grid's element strides
            nan = np.isnan(out).any()
            winner = np.zeros(out.shape, dtype=np.intp)
            for tap, offset in zip(reversed(taps), reversed(_lattice(kernel, steps[2:]).ravel())):
                hit = win[tap] == out
                if nan:
                    hit |= np.isnan(win[tap])
                np.copyto(winner, offset, where=hit)
            # the tap's offset within its window plus the window's first cell
            winner += _lattice(out.shape, [s * e for s, e in zip((1, 1) + stride, steps)])

            def backward(g: np.ndarray) -> np.ndarray:
                grid = np.zeros(math.prod(grid_shape), dtype=g.dtype)
                np.add.at(grid, winner.ravel(), g.ravel())
                return grid.reshape(grid_shape)[crop]

    else:  # "avg"; the public entry points check the mode
        win = _windows(data, kernel, stride)
        ones = _windows(np.ones((1, 1) + data.shape[2:], dtype=data.dtype), kernel, stride)
        counts = ones.sum(axis=(-3, -2, -1))[0, 0]  # in-bounds elements per window
        out = win.sum(axis=(-3, -2, -1)) / counts
        if keep:

            def backward(g: np.ndarray) -> np.ndarray:
                # stride 1 and odd extents: each cell takes the box sum of the
                # gradient over the windows that hold it
                return _windows(g / counts, kernel, (1, 1, 1)).sum(axis=(-3, -2, -1))

    return out.astype(data.dtype, copy=False), backward


def pool3d(data: np.ndarray, kernel, mode: str, keep: bool):
    """Same-size pooling of the array ``data`` with stride 1 along every axis.

    Returns the pooled array and, when ``keep``, a function from an output
    gradient to a new input gradient array (``None`` otherwise). Kernel
    extents must be odd so the output grid aligns with the input grid. Max
    pooling pads conceptually with negative infinity, so padding can never
    win a window; its backward sends each output's gradient to the window's
    first maximal tap in scan order (in a window holding a NaN, which yields
    NaN, the first NaN). Average pooling divides by the in-bounds element
    count only, and its backward is the box sum of the output gradient over
    those counts. A kernel of (1, 1, 1) returns ``data`` itself, and its
    backward returns the gradient it is given.
    """
    kernel = _check_kernel(kernel, "pool kernel")
    if mode not in POOL_MODES:
        raise ConfigError(f"pool mode must be one of {POOL_MODES}, got {mode!r}")
    check_batch(data)
    if kernel == (1, 1, 1):
        return data, (lambda g: g) if keep else None
    return _pool(data, kernel, mode, (1, 1, 1), keep)


def strided_max_pool3d(x: Tensor, kernel, stride) -> Tensor:
    """Max pooling with stride, SAME padding geometry (used by network stems);
    the maximum and its winning cell are found, and the gradient sent there,
    as in ``pool3d``."""
    kernel = _check_triple(kernel, "pool kernel")
    stride = _check_triple(stride, "pool stride")
    check_batch(x)
    out, backward = _pool(x.data, kernel, "max", stride, records([x]))

    def grad_fn(g: np.ndarray) -> None:
        x._accumulate(backward(g), fresh=True)

    return Tensor._make(out, [x], grad_fn)


@functools.lru_cache(maxsize=256)
def _column_plan(extents: Triple, kernel: Triple, stride: Triple):
    """How ``_columns`` moves the cells of an input of extents (t, h, w).

    Along an axis, tap a of output o reads input cell s*o + a - before =
    s*(o + q) + r with (q, r) = divmod(a - before, s): cell o + q of stride
    phase r, a plane of the output's extents. Returns

    - the output extents;
    - the index of the phases some tap reads, into the input zero-padded to
      s times the output extents and viewed as (n, c, t', st, h', sh, w', sw),
      and their count along each axis;
    - the margins before and after the planes, wide enough for every run;
    - per phase, in C order: its taps (a slice from the phase's first tap in
      steps of s along each axis), the flat offset of the first tap's run in
      the planes, and the index, in those taps' rows (n, c, taps, t', h', w'),
      of each cell whose run leaves the plane: the phase's tap i reads plane
      cell o + q0 + i, so taps with q >= j leave it at o = o' - j and taps
      with q <= -j at o = j - 1.
    """
    outs = tuple(-(-e // s) for e, s in zip(extents, stride))
    _, crop = _same_grid((1, 1) + tuple(extents), kernel, stride)
    befores = [cut.start for cut in crop[1:]]
    shifts = [[(a - b) // s for a in range(k)] for k, s, b in zip(kernel, stride, befores)]
    residues = [{(a - b) % s for a in range(k)} for k, s, b in zip(kernel, stride, befores)]
    firsts, counts = [min(r) for r in residues], tuple(max(r) - min(r) + 1 for r in residues)
    phases = (slice(None),) * 2 + sum(((slice(None), slice(f, f + m)) for f, m in zip(firsts, counts)), ())
    size, steps = math.prod(outs), (outs[1] * outs[2], outs[2], 1)  # a plane cell's flat step along t, h, w
    low = max(-sum(q[0] * step for q, step in zip(shifts, steps)), 0)
    high = max(sum(q[-1] * step for q, step in zip(shifts, steps)), 0)
    copies = []
    for plane, phase in enumerate(np.ndindex(*counts)):
        taps = [range((f + p + b) % s, k, s) for f, p, b, s, k in zip(firsts, phase, befores, stride, kernel)]
        start = low + plane * size + sum(q[a[0]] * step for q, a, step in zip(shifts, taps, steps))
        zeros = []
        for axis, (a, o) in enumerate(zip(taps, outs)):
            q0, q1 = shifts[axis][a[0]], shifts[axis][a[-1]]
            at, skip = (slice(None),) * (2 + axis), (slice(None),) * 2
            zeros += [at + (slice(max(j - q0, 0), None),) + skip + (o - j,) for j in range(1, min(q1, o) + 1)]
            zeros += [at + (slice(-j - q0 + 1),) + skip + (j - 1,) for j in range(1, min(-q0, o) + 1)]
        copies.append(((slice(None),) * 2 + tuple(slice(a[0], None, a.step) for a in taps), start, tuple(zeros)))
    return outs, phases, counts, low, high, tuple(copies)


def _columns(data: np.ndarray, kernel: Triple, stride: Triple):
    """The SAME windows of ``data`` (n, c, t, h, w) as im2col columns, dims
    (n, c * kt*kh*kw, t'*h'*w'): row (channel, tap) in C order, one column
    per output site, 0 where a window reads padding. Returns the columns and
    the output extents (t', h', w').

    Each stride phase the taps read (``_column_plan``) is copied once, into
    a plane of the output's extents (0 where the phase runs past the input)
    between margins. A tap's row is then one run of t'*h'*w' plane cells
    shifted by the tap's offset, and the taps that share a phase fill their
    rows with one copy. Where a run leaves its plane it reads a neighbouring
    row, plane or sample, or a margin, instead of padding; those cells are
    set to 0 after each phase's copy, while its rows are still in cache, so
    the margins are never written. A 1x1x1 kernel reads one strided slice."""
    n, c = data.shape[:2]
    if kernel == (1, 1, 1):
        outs = tuple(-(-e // s) for e, s in zip(data.shape[2:], stride))
        return np.ascontiguousarray(data[..., :: stride[0], :: stride[1], :: stride[2]]).reshape(n, c, -1), outs
    outs, phases, counts, low, high, copies = _column_plan(data.shape[2:], kernel, stride)
    src = data
    grid = tuple(s * o for s, o in zip(stride, outs))
    if grid != data.shape[2:]:
        src = np.zeros((n, c) + grid, dtype=data.dtype)
        src[(...,) + tuple(slice(e) for e in data.shape[2:])] = data
    size, planes_per = math.prod(outs), math.prod(counts)
    body = n * c * planes_per * size
    buf = np.empty(low + body + high, dtype=data.dtype)
    planes = src.reshape((n, c) + sum(zip(outs, stride), ()))[phases].transpose(0, 1, 3, 5, 7, 2, 4, 6)
    buf[low : low + body].reshape((n, c) + counts + outs)[...] = planes

    cols = np.empty((n, c) + kernel + outs, dtype=data.dtype)
    item = buf.itemsize
    steps = [e * item for e in (c * planes_per * size, planes_per * size, outs[1] * outs[2], outs[2], 1)]
    for taps, start, zeros in copies:
        rows = cols[taps]
        # tap (i, j, k) of the phase: the run of its first tap, shifted by i, j
        # and k plane cells along t, h and w
        np.copyto(rows, np.ndarray(rows.shape, buf.dtype, buf, start * item, steps + steps[2:]))
        for cells in zeros:
            rows[cells] = 0
    return cols.reshape(n, -1, size), outs


def _im2col_gemm(w_mat: np.ndarray, data: np.ndarray, kernel: Triple, stride: Triple):
    """SAME cross-correlation of ``data`` (n, c, t, h, w) with ``w_mat``, an
    (out_channels, c * kt*kh*kw) matrix: the ``_columns`` of ``data``, then
    one GEMM. Returns the output, dims (n, out_channels, t', h', w'), and the
    columns."""
    cols, outs = _columns(data, kernel, stride)
    return np.matmul(w_mat, cols).reshape((data.shape[0], -1) + outs), cols


def conv3d(x: Tensor, weight: Tensor, stride=(1, 1, 1)) -> Tensor:
    """3-d cross-correlation with a bank of kernels, SAME geometry: zero
    padding, output extent = ceil(input / stride), by im2col + GEMM.

    ``weight`` has dims (out_channels, in_channels, kt, kh, kw), with odd
    kernel extents; it is used as an (out_channels, in_channels * taps)
    matrix.
    """
    if weight.ndim != 5:
        raise ShapeError(f"conv weight must be rank-5, got dims {weight.shape}")
    kernel, stride = _check_kernel(weight.shape[2:], "conv kernel"), _check_triple(stride, "conv stride")
    check_batch(x)
    if weight.shape[1] != x.shape[1]:
        raise ShapeError(f"conv weight dims {weight.shape} do not match input channels in {x.shape}")

    data = x.data
    n, c = data.shape[:2]
    w_mat = weight.data.reshape(weight.shape[0], -1)
    out_data, cols = _im2col_gemm(w_mat, data, kernel, stride)

    def grad_fn(g: np.ndarray) -> None:
        if weight.requires_grad:
            d_w = np.matmul(g.reshape(n, w_mat.shape[0], -1), cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(d_w.reshape(weight.shape), fresh=True)
        if x.requires_grad:
            # output i's gradient goes to input cell i*s + (k-1)//2 - before
            # (cell i at unit stride), so the flipped kernel's unit-stride SAME
            # conv, padded (k-1)//2 each side, sums it into every cell i read
            spread = g
            if stride != (1, 1, 1):
                _, crop = _same_grid(x.shape, kernel, stride)
                spread = np.zeros(g.shape[:2] + x.shape[2:], dtype=g.dtype)
                offsets = ((k - 1) // 2 - cut.start for k, cut in zip(kernel, crop[1:]))
                spread[(...,) + tuple(slice(o, None, s) for o, s in zip(offsets, stride))] = g
            flipped = w_mat.reshape(w_mat.shape[:1] + (c,) + kernel)[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)
            x._accumulate(_im2col_gemm(flipped.reshape(c, -1), spread, kernel, (1, 1, 1))[0], fresh=True)

    return Tensor._make(out_data.astype(data.dtype, copy=False), [x, weight], grad_fn)

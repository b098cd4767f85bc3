"""Pooling and convolution over feature volumes.

Every kernel takes a batch of feature volumes, rank-5 ``(batch, channels,
time, height, width)``, and nothing else; a single volume is a batch of one.
All kernels participate in the autodiff tape.

Every kernel has SAME geometry (output extent = ceil(input / stride)), and
``_same_grid`` owns it: the padded grid's dims and the crop back to the
input. ``_windows`` pads the input into that grid and returns the strided
window view. Conv and ``pool3d`` kernel extents are odd (``_check_kernel``).

Convolution is im2col + GEMM, ``_im2col_gemm``: the windows are copied once
into columns of dims (n, c*kt*kh*kw, t'*h'*w'), then one GEMM. Forward is
that GEMM (weight matrix x columns); dW is one GEMM (grad x columns^T, summed
over the batch). dX is the unit-stride conv, through the same helper, of the
output gradient with the kernel flipped in (t, h, w) and its channel axes
swapped (Dumoulin & Visin, arXiv:1603.07285, section 4). At stride s the
output gradient is first spread onto the input grid, s - 1 zeros between
entries; at unit stride it is used as it is. The pointwise channel mix is
the 1x1x1 case of the same path. Avg-pool's backward is the box sum of the
output gradient divided by the in-bounds counts.

Max pooling is a running maximum over the kernel's taps, each a strided slice
of the window view, so no window is copied. Only a node the tape records
finds each window's winning cell (the first maximal tap in scan order) and
keeps it as a flat offset into the padded grid; the backward adds the
gradient at those offsets into a zero grid and crops it. An unrecorded pool
computes the maximum and nothing else.
"""
from __future__ import annotations

import math
import operator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ShapeError
from .tensor import Tensor, records

Triple = tuple[int, int, int]


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


def _pool_forward(x: Tensor, kernel: Triple, mode: str, stride: Triple) -> Tensor:
    check_batch(x)
    data = x.data

    if mode == "max":
        win = _windows(data, kernel, stride, fill=-np.inf)
        taps = [(...,) + tap for tap in np.ndindex(*kernel)]
        # running maximum in scan order; on a tie np.maximum returns its
        # second operand, so the earlier tap keeps its value (and its bits)
        out_data = win[taps[0]].copy()
        for tap in taps[1:]:
            np.maximum(win[tap], out_data, out=out_data)
        grad_fn = None
        if records([x]):
            # each output's winning cell as a flat offset into the padded
            # grid: the first maximal tap in scan order, as argmax finds it.
            # Sweep the taps backwards so the earliest match is written last;
            # a window holding a NaN yields NaN, and its first NaN tap wins
            grid_shape, crop = _same_grid(data.shape, kernel, stride)
            steps = [math.prod(grid_shape[axis + 1 :]) for axis in range(5)]  # the grid's element strides
            nan = np.isnan(out_data).any()
            winner = np.zeros(out_data.shape, dtype=np.intp)
            for tap, offset in zip(reversed(taps), reversed(_lattice(kernel, steps[2:]).ravel())):
                hit = win[tap] == out_data
                if nan:
                    hit |= np.isnan(win[tap])
                np.copyto(winner, offset, where=hit)
            # the tap's offset within its window plus the window's first cell
            winner += _lattice(out_data.shape, [s * e for s, e in zip((1, 1) + stride, steps)])

            def grad_fn(g: np.ndarray) -> None:
                grid = np.zeros(math.prod(grid_shape), dtype=g.dtype)
                np.add.at(grid, winner.ravel(), g.ravel())
                x._accumulate(grid.reshape(grid_shape)[crop])

    else:  # "avg"; pool3d checks the mode
        win = _windows(data, kernel, stride)
        ones = _windows(np.ones((1, 1) + data.shape[2:], dtype=data.dtype), kernel, stride)
        counts = ones.sum(axis=(-3, -2, -1))[0, 0]  # in-bounds elements per window
        out_data = win.sum(axis=(-3, -2, -1)) / counts

        def grad_fn(g: np.ndarray) -> None:
            # stride 1 and odd extents: each cell takes the box sum of the
            # gradient over the windows that hold it
            x._accumulate(_windows(g / counts, kernel, (1, 1, 1)).sum(axis=(-3, -2, -1)))

    return Tensor._make(out_data.astype(data.dtype, copy=False), [x], grad_fn)


def pool3d(x: Tensor, kernel, mode: str = "max") -> Tensor:
    """Same-size pooling with stride 1 along every axis.

    Kernel extents must be odd so the output grid aligns with the input grid.
    Max pooling pads conceptually with negative infinity, so padding can never
    win a window; it is a running maximum over the taps, and only a recorded
    node finds and keeps the cell its gradient goes to (the first maximal tap
    in scan order; in a window holding a NaN, which yields NaN, the first
    NaN), so its backward is one scatter-add. Average pooling divides by the
    in-bounds element count only, and its backward is the box sum of the
    output gradient over those counts. A kernel of (1, 1, 1) returns ``x``
    itself.
    """
    kernel = _check_kernel(kernel, "pool kernel")
    if mode not in ("max", "avg"):
        raise ConfigError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    if kernel == (1, 1, 1):
        check_batch(x)
        return x
    return _pool_forward(x, kernel, mode, (1, 1, 1))


def strided_max_pool3d(x: Tensor, kernel, stride) -> Tensor:
    """Max pooling with stride, SAME padding geometry (used by network stems);
    the maximum and its winning cell are found, and the gradient sent there,
    as in ``pool3d``."""
    kernel = _check_triple(kernel, "pool kernel")
    stride = _check_triple(stride, "pool stride")
    return _pool_forward(x, kernel, "max", stride)


def conv_channel_mix(x: Tensor, weight: Tensor) -> Tensor:
    """Pointwise (1x1x1) convolution: an independent linear map over channels
    at every spatio-temporal site. ``weight`` has dims (out_channels, in_channels)."""
    if weight.ndim != 2:
        raise ShapeError(f"channel mix weight must be a matrix, got dims {weight.shape}")
    return _conv(x, weight, (1, 1, 1), (1, 1, 1))


def conv3d(x: Tensor, weight: Tensor, stride=(1, 1, 1)) -> Tensor:
    """3-d cross-correlation with a bank of kernels, SAME geometry: zero
    padding, output extent = ceil(input / stride).

    ``weight`` has dims (out_channels, in_channels, kt, kh, kw), with odd
    kernel extents.
    """
    if weight.ndim != 5:
        raise ShapeError(f"conv weight must be rank-5, got dims {weight.shape}")
    return _conv(x, weight, _check_kernel(weight.shape[2:], "conv kernel"), _check_triple(stride, "conv stride"))


def _im2col_gemm(w_mat: np.ndarray, data: np.ndarray, kernel: Triple, stride: Triple):
    """SAME cross-correlation of ``data`` (n, c, t, h, w) with ``w_mat``, an
    (out_channels, c * kt*kh*kw) matrix: the windows copied once into columns
    of dims (n, c * kt*kh*kw, t'*h'*w'), then one GEMM. Returns the output,
    dims (n, out_channels, t', h', w'), and the columns."""
    n = data.shape[0]
    win = _windows(data, kernel, stride)
    out_sizes = win.shape[2:5]
    cols = np.ascontiguousarray(win.transpose(0, 1, 5, 6, 7, 2, 3, 4)).reshape(n, -1, math.prod(out_sizes))
    return np.matmul(w_mat, cols).reshape((n, -1) + out_sizes), cols


def _conv(x: Tensor, weight: Tensor, kernel: Triple, stride: Triple) -> Tensor:
    """im2col + GEMM. ``weight`` is (out_channels, in_channels, ...) with the
    kernel taps, if any, in its trailing dims; it is used as an
    (out_channels, in_channels * taps) matrix."""
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
            weight._accumulate(d_w.reshape(weight.shape))
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
            x._accumulate(_im2col_gemm(flipped.reshape(c, -1), spread, kernel, (1, 1, 1))[0])

    return Tensor._make(out_data.astype(data.dtype, copy=False), [x, weight], grad_fn)

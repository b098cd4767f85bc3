"""Pooling and convolution over feature volumes.

Every kernel takes a batch of feature volumes, rank-5 ``(batch, channels,
time, height, width)``, and nothing else; a single volume is a batch of one.
All kernels participate in the autodiff tape.

Every kernel has SAME geometry (output extent = ceil(input / stride)), and
``_windows`` owns it: it pads the input and returns the strided window view
plus that view's adjoint, which every backward pass goes through.

Convolution is im2col + GEMM: the windows are copied once into columns of
dims (n, c*kt*kh*kw, t'*h'*w'). Forward is one GEMM (weight matrix x
columns); dW is one GEMM (grad x columns^T, summed over the batch) and dX is
one GEMM (weight^T x grad) whose per-tap blocks go through the adjoint
(col2im). The pointwise channel mix is the 1x1x1 case of the same path.

Max pooling is a running maximum over the kernel's taps, each a strided slice
of the window view, so no window is copied. Only a node the tape records
finds each window's winning tap (the first maximal one in scan order) and
keeps it for the backward, which puts the gradient there and sends it through
the adjoint; an unrecorded pool computes the maximum and nothing else.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError
from .tensor import Tensor, records

Triple = tuple[int, int, int]


def check_batch(x: Tensor) -> None:
    """The one rank rule of every volume op: a rank-5 batch."""
    if x.ndim != 5:
        raise ShapeError(f"expected a (batch, channels, time, height, width) volume, got dims {x.shape}")


def _check_triple(value, name: str) -> Triple:
    triple = tuple(int(v) for v in value)
    if len(triple) != 3 or any(v < 1 for v in triple):
        raise ConfigError(f"{name} must be three positive extents, got {value}")
    return triple


def _same_padding(extent: int, kernel: int, stride: int) -> tuple[int, int]:
    """(before, after) padding for SAME geometry: output extent ceil(extent / stride)."""
    total = max((-(-extent // stride) - 1) * stride + kernel - extent, 0)
    return total // 2, total - total // 2


def _windows(data: np.ndarray, kernel: Triple, stride: Triple, fill: float = 0.0):
    """Pad ``data`` (n, c, t, h, w) with ``fill`` for SAME geometry; return the
    window view, dims (n, c, t', h', w', kt, kh, kw), and its adjoint. The
    adjoint adds per-tap values, dims (n, c, kt, kh, kw, t', h', w'), onto a
    zero padded grid (tap (dt, dh, dw) of output (i, j, k) at padded site
    (i*st + dt, j*sh + dh, k*sw + dw)) and crops it to (n, c, t, h, w)."""
    sizes = data.shape[2:]
    pads = [_same_padding(e, k, s) for e, k, s in zip(sizes, kernel, stride)]
    padded = np.pad(data, [(0, 0), (0, 0)] + pads, constant_values=fill) if any(map(any, pads)) else data
    view = sliding_window_view(padded, kernel, axis=(2, 3, 4))[:, :, :: stride[0], :: stride[1], :: stride[2]]
    grid_shape = padded.shape
    crop = (...,) + tuple(slice(before, before + e) for (before, _), e in zip(pads, sizes))

    def adjoint(taps: np.ndarray) -> np.ndarray:
        grid = np.zeros(grid_shape, dtype=taps.dtype)
        for tap in np.ndindex(*kernel):
            window = tuple(slice(d, d + o * s, s) for d, o, s in zip(tap, taps.shape[5:], stride))
            grid[(...,) + window] += taps[(slice(None), slice(None)) + tap]
        return grid[crop]

    return view, adjoint


def _pool_forward(x: Tensor, kernel: Triple, mode: str, stride: Triple) -> Tensor:
    check_batch(x)
    data = x.data

    if mode == "max":
        win, adjoint = _windows(data, kernel, stride, fill=-np.inf)
        taps = [(...,) + tap for tap in np.ndindex(*kernel)]
        # running maximum in scan order; on a tie np.maximum returns its
        # second operand, so the earlier tap keeps its value (and its bits)
        out_data = win[taps[0]].copy()
        for tap in taps[1:]:
            np.maximum(win[tap], out_data, out=out_data)
        grad_fn = None
        if records([x]):
            # first maximal tap in scan order, as argmax finds it: sweep the
            # taps backwards so the earliest match is written last; a window
            # holding a NaN yields NaN, and its first NaN tap wins
            nan = np.isnan(out_data).any()
            arg = np.zeros(out_data.shape, dtype=np.intp)
            for k in range(len(taps) - 1, -1, -1):
                hit = win[taps[k]] == out_data
                if nan:
                    hit |= np.isnan(win[taps[k]])
                np.copyto(arg, k, where=hit)

            def grad_fn(g: np.ndarray) -> None:
                # one-hot taps: each output's gradient sits on its winning tap
                onehot = np.zeros(g.shape[:2] + (len(taps),) + g.shape[2:], dtype=g.dtype)
                np.put_along_axis(onehot, arg[:, :, None], g[:, :, None], axis=2)
                x._accumulate(adjoint(onehot.reshape(g.shape[:2] + kernel + g.shape[2:])))

    else:  # "avg"; pool3d checks the mode
        win, adjoint = _windows(data, kernel, stride)
        ones, _ = _windows(np.ones((1, 1) + data.shape[2:], dtype=data.dtype), kernel, stride)
        counts = ones.sum(axis=(-3, -2, -1))[0, 0]  # in-bounds elements per window
        out_data = win.sum(axis=(-3, -2, -1)) / counts

        def grad_fn(g: np.ndarray) -> None:
            gdiv = (g / counts)[:, :, None, None, None]
            x._accumulate(adjoint(np.broadcast_to(gdiv, g.shape[:2] + kernel + g.shape[2:])))

    return Tensor._make(out_data.astype(data.dtype, copy=False), [x], grad_fn)


def pool3d(x: Tensor, kernel, mode: str = "max") -> Tensor:
    """Same-size pooling with stride 1 along every axis.

    Kernel extents must be odd so the output grid aligns with the input grid.
    Max pooling pads conceptually with negative infinity, so padding can never
    win a window; it is a running maximum over the taps, and only a recorded
    node finds and keeps the winning tap its gradient goes to (the first
    maximal one in scan order; in a window holding a NaN, which yields NaN,
    the first NaN). Average pooling divides by the in-bounds element count
    only. A kernel of (1, 1, 1) returns ``x`` itself.
    """
    kernel = _check_triple(kernel, "pool kernel")
    if any(k % 2 == 0 for k in kernel):
        raise ConfigError(f"pool kernel extents must be odd, got {kernel}")
    if mode not in ("max", "avg"):
        raise ConfigError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    if kernel == (1, 1, 1):
        check_batch(x)
        return x
    return _pool_forward(x, kernel, mode, (1, 1, 1))


def strided_max_pool3d(x: Tensor, kernel, stride) -> Tensor:
    """Max pooling with stride, SAME padding geometry (used by network stems);
    the maximum and its winning tap are found as in ``pool3d``."""
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

    ``weight`` has dims (out_channels, in_channels, kt, kh, kw).
    """
    if weight.ndim != 5:
        raise ShapeError(f"conv weight must be rank-5, got dims {weight.shape}")
    return _conv(x, weight, weight.shape[2:], _check_triple(stride, "conv stride"))


def _conv(x: Tensor, weight: Tensor, kernel: Triple, stride: Triple) -> Tensor:
    """im2col + GEMM. ``weight`` is (out_channels, in_channels, ...) with the
    kernel taps, if any, in its trailing dims; it is used as an
    (out_channels, in_channels * taps) matrix."""
    check_batch(x)
    if weight.shape[1] != x.shape[1]:
        raise ShapeError(f"conv weight dims {weight.shape} do not match input channels in {x.shape}")

    data = x.data
    n, c = data.shape[:2]
    win, adjoint = _windows(data, kernel, stride)
    out_sizes = win.shape[2:5]
    # (n, c, t', h', w', kt, kh, kw) -> columns (n, c * kt*kh*kw, t'*h'*w')
    cols = np.ascontiguousarray(win.transpose(0, 1, 5, 6, 7, 2, 3, 4)).reshape(n, -1, math.prod(out_sizes))
    w_mat = weight.data.reshape(weight.shape[0], -1)
    out_data = np.matmul(w_mat, cols).reshape((n, -1) + out_sizes)

    def grad_fn(g: np.ndarray) -> None:
        g_mat = g.reshape(n, w_mat.shape[0], -1)
        if weight.requires_grad:
            d_w = np.matmul(g_mat, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(d_w.reshape(weight.shape))
        if x.requires_grad:
            taps = np.matmul(w_mat.T, g_mat).reshape((n, c) + kernel + out_sizes)
            x._accumulate(adjoint(taps))

    return Tensor._make(out_data.astype(data.dtype, copy=False), [x, weight], grad_fn)

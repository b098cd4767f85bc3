"""Pooling and convolution over feature volumes.

A feature volume is rank-4 ``(channels, time, height, width)``; every kernel
here also accepts a rank-5 batch ``(batch, channels, time, height, width)``
and treats rank-4 input as a batch of one. All kernels participate in the
autodiff tape.

Convolution is im2col + GEMM: the strided windows of the padded input are
copied once into columns of dims (n, c*kt*kh*kw, t'*h'*w'). Forward is one
GEMM (weight matrix x columns). Backward reuses the columns: dW is one GEMM
(grad x columns^T, summed over the batch) and dX is one GEMM (weight^T x grad)
whose per-tap blocks are added back onto the padded grid (col2im). The
pointwise channel mix is the 1x1x1 case of the same path.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError
from .tensor import Tensor

Triple = tuple[int, int, int]


def _as_batched(x: Tensor) -> tuple[Tensor, bool]:
    if x.ndim == 5:
        return x, False
    if x.ndim == 4:
        return x.reshape((1,) + x.shape), True
    raise ShapeError(f"expected a rank-4 or rank-5 feature volume, got dims {x.shape}")


def _check_triple(value, name: str) -> Triple:
    triple = tuple(int(v) for v in value)
    if len(triple) != 3 or any(v < 1 for v in triple):
        raise ConfigError(f"{name} must be three positive extents, got {value}")
    return triple


def _same_padding(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """Output extent plus (before, after) zero padding for SAME geometry."""
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    before = total // 2
    return out, before, total - before


def _window_view(padded: np.ndarray, kernel: Triple, stride: Triple) -> np.ndarray:
    win = sliding_window_view(padded, kernel, axis=(2, 3, 4))
    return win[:, :, :: stride[0], :: stride[1], :: stride[2]]


def _scatter_windows(taps: np.ndarray, shape, stride: Triple) -> np.ndarray:
    """Adjoint of ``_window_view``: add per-tap blocks onto a zero padded grid.

    ``taps`` has dims (n, c, kt, kh, kw, t', h', w'); tap (dt, dh, dw) of output
    site (i, j, k) lands on padded site (i*st + dt, j*sh + dh, k*sw + dw).
    """
    grid = np.zeros(shape, dtype=taps.dtype)
    for tap in np.ndindex(*taps.shape[2:5]):
        window = tuple(slice(d, d + o * s, s) for d, o, s in zip(tap, taps.shape[5:], stride))
        grid[(...,) + window] += taps[(slice(None), slice(None)) + tap]
    return grid


def _pool_forward(x: Tensor, kernel: Triple, mode: str, stride: Triple) -> Tensor:
    vol, squeeze = _as_batched(x)
    data = vol.data
    n, c, t, h, w = data.shape
    pads = [_same_padding(e, k, s) for e, k, s in zip((t, h, w), kernel, stride)]
    pad_spec = ((0, 0), (0, 0)) + tuple((p[1], p[2]) for p in pads)

    if mode == "max":
        fill = -np.inf
        padded = np.pad(data, pad_spec, constant_values=fill)
        win = _window_view(padded, kernel, stride)
        flat = win.reshape(win.shape[:5] + (-1,))
        # first maximal element in window scan order wins, by argmax semantics
        arg = flat.argmax(axis=-1)
        out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

        kh, kw = kernel[1], kernel[2]

        def grad_fn(g: np.ndarray) -> None:
            if not vol.requires_grad:
                return
            gpad = np.zeros_like(padded)
            dt = arg // (kh * kw)
            rem = arg % (kh * kw)
            dh = rem // kw
            dw = rem % kw
            ni, ci, ti, hi, wi = np.indices(arg.shape, sparse=True)
            np.add.at(
                gpad,
                (ni, ci, ti * stride[0] + dt, hi * stride[1] + dh, wi * stride[2] + dw),
                g,
            )
            vol._accumulate(_crop(gpad, pads, (t, h, w)))

    elif mode == "avg":
        padded = np.pad(data, pad_spec)
        win = _window_view(padded, kernel, stride)
        sums = win.sum(axis=(-3, -2, -1))
        counts = _inbounds_counts((t, h, w), kernel, stride, pads, data.dtype)
        out_data = sums / counts

        def grad_fn(g: np.ndarray) -> None:
            if not vol.requires_grad:
                return
            gdiv = (g / counts)[:, :, None, None, None]
            taps = np.broadcast_to(gdiv, (n, c) + kernel + out_data.shape[2:])
            vol._accumulate(_crop(_scatter_windows(taps, padded.shape, stride), pads, (t, h, w)))

    else:
        raise ConfigError(f"pool mode must be 'max' or 'avg', got {mode!r}")

    out = Tensor._make(out_data.astype(data.dtype, copy=False), [vol], grad_fn)
    return out.reshape(out.shape[1:]) if squeeze else out


def _crop(gpad: np.ndarray, pads, sizes: Triple) -> np.ndarray:
    (pt, _), (ph, _), (pw, _) = ((p[1], p[2]) for p in pads)
    t, h, w = sizes
    return gpad[:, :, pt : pt + t, ph : ph + h, pw : pw + w]


def _inbounds_counts(sizes: Triple, kernel: Triple, stride: Triple, pads, dtype) -> np.ndarray:
    ones = np.ones((1, 1) + sizes, dtype=dtype)
    pad_spec = ((0, 0), (0, 0)) + tuple((p[1], p[2]) for p in pads)
    win = _window_view(np.pad(ones, pad_spec), kernel, stride)
    return win.sum(axis=(-3, -2, -1))[0, 0]


def pool3d(x: Tensor, kernel, mode: str = "max") -> Tensor:
    """Same-size pooling with stride 1 along every axis.

    Kernel extents must be odd so the output grid aligns with the input grid.
    Max pooling pads conceptually with negative infinity, so padding can never
    win a window; average pooling divides by the in-bounds element count only.
    A kernel of (1, 1, 1) passes the input through bit-identically.
    """
    kernel = _check_triple(kernel, "pool kernel")
    if any(k % 2 == 0 for k in kernel):
        raise ConfigError(f"pool kernel extents must be odd, got {kernel}")
    if kernel == (1, 1, 1):
        vol = x

        def identity_grad(g: np.ndarray) -> None:
            if vol.requires_grad:
                vol._accumulate(g)

        return Tensor._make(x.data, [x], identity_grad)
    return _pool_forward(x, kernel, mode, (1, 1, 1))


def strided_max_pool3d(x: Tensor, kernel, stride) -> Tensor:
    """Max pooling with stride, SAME padding geometry (used by network stems)."""
    kernel = _check_triple(kernel, "pool kernel")
    stride = _check_triple(stride, "pool stride")
    return _pool_forward(x, kernel, "max", stride)


def conv_channel_mix(x: Tensor, weight: Tensor) -> Tensor:
    """Pointwise (1x1x1) convolution: an independent linear map over channels
    at every spatio-temporal site. ``weight`` has dims (out_channels, in_channels)."""
    if weight.ndim != 2:
        raise ShapeError(f"channel mix weight must be a matrix, got dims {weight.shape}")
    return _conv(x, weight, (1, 1, 1), (1, 1, 1), "same")


def conv3d(x: Tensor, weight: Tensor, stride=(1, 1, 1), padding: str = "same") -> Tensor:
    """3-d cross-correlation with a bank of kernels.

    ``weight`` has dims (out_channels, in_channels, kt, kh, kw). ``padding``
    is "same" (zero padding, output extent = ceil(input / stride)) or "valid"
    (no padding, kernel must fit).
    """
    if weight.ndim != 5:
        raise ShapeError(f"conv weight must be rank-5, got dims {weight.shape}")
    return _conv(x, weight, weight.shape[2:], _check_triple(stride, "conv stride"), padding)


def _conv(x: Tensor, weight: Tensor, kernel: Triple, stride: Triple, padding: str) -> Tensor:
    """im2col + GEMM. ``weight`` is (out_channels, in_channels, ...) with the
    kernel taps, if any, in its trailing dims; it is used as an
    (out_channels, in_channels * taps) matrix."""
    vol, squeeze = _as_batched(x)
    if weight.shape[1] != vol.shape[1]:
        raise ShapeError(f"conv weight dims {weight.shape} do not match input channels in {vol.shape}")

    data = vol.data
    sizes = data.shape[2:]
    if padding == "same":
        pads = [_same_padding(e, k, s) for e, k, s in zip(sizes, kernel, stride)]
    elif padding == "valid":
        for e, k in zip(sizes, kernel):
            if e < k:
                raise ShapeError(
                    f"valid convolution needs input dims {vol.shape} to cover kernel dims {weight.shape}"
                )
        pads = [((e - k) // s + 1, 0, 0) for e, k, s in zip(sizes, kernel, stride)]
    else:
        raise ConfigError(f"conv padding must be 'same' or 'valid', got {padding!r}")

    n, c = data.shape[:2]
    out_sizes = tuple(p[0] for p in pads)
    pad_spec = ((0, 0), (0, 0)) + tuple((p[1], p[2]) for p in pads)
    padded = np.pad(data, pad_spec) if any(map(any, pad_spec)) else data
    # (n, c, t', h', w', kt, kh, kw) -> columns (n, c * kt*kh*kw, t'*h'*w')
    win = _window_view(padded, kernel, stride).transpose(0, 1, 5, 6, 7, 2, 3, 4)
    cols = np.ascontiguousarray(win).reshape(n, -1, math.prod(out_sizes))
    w_mat = weight.data.reshape(weight.shape[0], -1)
    out_data = np.matmul(w_mat, cols).reshape((n, -1) + out_sizes)

    def grad_fn(g: np.ndarray) -> None:
        g_mat = g.reshape(n, w_mat.shape[0], -1)
        if weight.requires_grad:
            d_w = np.matmul(g_mat, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(d_w.reshape(weight.shape))
        if vol.requires_grad:
            taps = np.matmul(w_mat.T, g_mat).reshape((n, c) + kernel + out_sizes)
            vol._accumulate(_crop(_scatter_windows(taps, padded.shape, stride), pads, sizes))

    out = Tensor._make(out_data.astype(data.dtype, copy=False), [vol, weight], grad_fn)
    return out.reshape(out.shape[1:]) if squeeze else out

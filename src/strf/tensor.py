"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays in single precision by default; double precision is
supported everywhere and is mandatory for finite-difference gradient checks.
Each operation that participates in differentiation records its parents and a
closure that scatters the incoming gradient back to them; ``Tensor.backward``
replays those closures in reverse topological order.

The replay consumes the graph: once a node's closure has run, the node drops
the closure, its parents and its gradient, so the buffers a closure holds are
freed as soon as nothing later in the walk needs them. Only the root and the
leaves keep their gradients, and a second ``backward`` that reaches a consumed
node raises ``ContractError`` instead of silently stopping there.

Recording can be suspended with the ``no_grad`` context manager, which turns
every operation into plain array math (useful for inference loops).
"""
from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Suspend gradient recording inside the ``with`` block."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    return _grad_enabled


def records(parents: Iterable["Tensor"]) -> bool:
    """The one recording rule: an op joins the tape when gradients are
    enabled and one of its parents requires them."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _coerce_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A dense array plus an optional differentiation record.

    ``data`` is always a numpy array of float32 or float64. ``grad`` starts as
    ``None`` and is filled by ``backward``; it always matches ``data`` in shape
    and dtype. Leaves are created with ``requires_grad=True``; interior nodes
    inherit the flag from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], None] | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], grad_fn) -> "Tensor":
        # the closure is kept only when a parent requires gradients, so a
        # one-parent op's closure may accumulate into that parent unguarded
        out = Tensor(data)
        if records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
        return out

    # -- basic introspection -----------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got dims {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(dims={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- autodiff ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into ``grad``. A closure passes ``fresh=True`` for an array
        it has just built and hands over: a first gradient of the right dtype
        becomes ``grad`` as it is. Any other first gradient is copied, because
        it may be shared with another parent or be a read-only view."""
        if self.grad is None:
            if fresh and g.dtype == self.data.dtype and g.flags.writeable:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar. Populates ``grad`` on ``self`` and on
        every reachable leaf that requires gradients.

        The walk consumes the graph: each interior node gives up its closure,
        its parents and its ``grad`` once its closure has run. Calling
        ``backward`` again from this root, or from any graph built on one of
        its interior nodes, raises ``ContractError``."""
        if self.data.size != 1:
            raise ContractError(f"backward() starts from a scalar, got dims {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._grad_fn is _consumed:
                raise ContractError("backward() reached a node whose graph an earlier backward() consumed")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while order:
            # popping drops the walk's own reference, so a consumed node's data
            # goes as soon as no closure still waiting to run holds it
            node = order.pop()
            if node._grad_fn is not None:
                node._grad_fn(node.grad)
                node._grad_fn, node._parents = _consumed, ()
                if node is not self:
                    node.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    # method mirrors of the free functions, for fluent call sites
    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def _consumed(g: np.ndarray) -> None:
    """Stands in for a closure that ``Tensor.backward`` has run and released."""
    raise ContractError("this node's graph was consumed by an earlier backward()")


def as_tensor(value, dtype=None) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _split_operand(other, like: Tensor):
    """Return (array-or-scalar value, tensor-or-None) for a binary op RHS."""
    if isinstance(other, Tensor):
        return other.data, other
    if isinstance(other, (int, float)):
        return other, None
    return _coerce_array(other, dtype=like.dtype), None


# -- elementwise arithmetic ------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    bv, bt = _split_operand(b, a)
    out_data = a.data + bv
    parents = [a] + ([bt] if bt is not None else [])

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if bt is not None and bt.requires_grad:
            bt._accumulate(_unbroadcast(g, bt.data.shape))

    return Tensor._make(out_data, parents, grad_fn)


def sub(a: Tensor, b) -> Tensor:
    bv, bt = _split_operand(b, a)
    out_data = a.data - bv
    parents = [a] + ([bt] if bt is not None else [])

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if bt is not None and bt.requires_grad:
            bt._accumulate(_unbroadcast(-g, bt.data.shape), fresh=True)

    return Tensor._make(out_data, parents, grad_fn)


def mul(a: Tensor, b) -> Tensor:
    bv, bt = _split_operand(b, a)
    out_data = a.data * bv
    parents = [a] + ([bt] if bt is not None else [])

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * bv, a.data.shape), fresh=True)
        if bt is not None and bt.requires_grad:
            bt._accumulate(_unbroadcast(g * a.data, bt.data.shape), fresh=True)

    return Tensor._make(out_data, parents, grad_fn)


def div(a: Tensor, b) -> Tensor:
    bv, bt = _split_operand(b, a)
    out_data = a.data / bv
    parents = [a] + ([bt] if bt is not None else [])

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / bv, a.data.shape), fresh=True)
        if bt is not None and bt.requires_grad:
            bt._accumulate(_unbroadcast(-g * a.data / (bv * bv), bt.data.shape), fresh=True)

    return Tensor._make(out_data, parents, grad_fn)


def neg(a: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(-g, fresh=True)

    return Tensor._make(-a.data, [a], grad_fn)


def power(a: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    out_data = a.data ** p

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * p * a.data ** (p - 1.0), fresh=True)

    return Tensor._make(out_data, [a], grad_fn)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * out_data, fresh=True)

    return Tensor._make(out_data, [a], grad_fn)


def log(a: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g / a.data, fresh=True)

    return Tensor._make(np.log(a.data), [a], grad_fn)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * 0.5 / out_data, fresh=True)

    return Tensor._make(out_data, [a], grad_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient 0 exactly at the kink
    out_data = np.where(mask, a.data, 0.0).astype(a.data.dtype, copy=False)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * mask, fresh=True)

    return Tensor._make(out_data, [a], grad_fn)


# -- shape manipulation -----------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out_data = a.data.reshape(shape)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g.reshape(a.data.shape))

    return Tensor._make(out_data, [a], grad_fn)


def transpose(a: Tensor, axes: Iterable[int] | None = None) -> Tensor:
    axes_t = tuple(axes) if axes is not None else tuple(range(a.ndim))[::-1]
    inverse = tuple(int(i) for i in np.argsort(axes_t))
    out_data = a.data.transpose(axes_t)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g.transpose(inverse))

    return Tensor._make(out_data, [a], grad_fn)


def _restore_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(_restore_reduced(g, a.data.shape, axis, keepdims).astype(a.data.dtype, copy=False))

    return Tensor._make(out_data, [a], grad_fn)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / max(out_data.size, 1)

    def grad_fn(g: np.ndarray) -> None:
        spread = _restore_reduced(g, a.data.shape, axis, keepdims)
        a._accumulate((spread / count).astype(a.data.dtype, copy=False), fresh=True)

    return Tensor._make(out_data, [a], grad_fn)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Accepts a pair of 2-d matrices or a pair of stacked
    matrices with identical leading (batch) dimension."""
    b = as_tensor(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul expects two matrices or two stacked matrices, got dims {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul operand dims do not align: {a.shape} vs {b.shape}")
    out_data = a.data @ b.data

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2), fresh=True)
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g, fresh=True)

    return Tensor._make(out_data, [a, b], grad_fn)


def softmax_rows(a: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis.

    Each row of the result is non-negative and sums to 1; subtracting the row
    maximum before exponentiation keeps every intermediate finite. The result
    is built in one buffer by ``softmax_rows_in_place``, so it holds no
    subnormal entry.
    """
    if a.ndim < 2:
        raise ShapeError(f"softmax_rows expects a matrix, got dims {a.shape}")
    out_data = softmax_rows_in_place(a.data.copy())

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(softmax_rows_grad(g, out_data), fresh=True)

    return Tensor._make(out_data, [a], grad_fn)


def softmax_rows_in_place(buf: np.ndarray) -> np.ndarray:
    """``softmax_rows`` of ``buf`` written over ``buf``, which it returns.

    The row-maximum shift, the exponential and the division all run in
    ``buf``. Entries below the dtype's smallest normal number are then
    flushed to 0: a subnormal costs no accuracy worth keeping (it is below
    ``tiny`` in a row summing to 1), but a matrix product over many of them
    runs up to 100x slower. The flush is skipped when no entry is that small.
    """
    buf -= buf.max(axis=-1, keepdims=True)
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=-1, keepdims=True)
    tiny = np.finfo(buf.dtype).tiny
    if buf.min() < tiny:
        buf[buf < tiny] = 0.0
    return buf


def softmax_rows_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The input gradient of a row softmax whose output is ``out``, for the
    output gradient ``g``: ``out * (g - rowsum(g * out))``, in one new buffer."""
    grad = g * out
    np.subtract(g, grad.sum(axis=-1, keepdims=True), out=grad)
    grad *= out
    return grad


def select_entries(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Pick ``a[rows[i], cols[i]]`` for each i, as a vector."""
    if a.ndim != 2:
        raise ShapeError(f"select_entries expects a matrix, got dims {a.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out_data = a.data[rows, cols]

    def grad_fn(g: np.ndarray) -> None:
        scatter = np.zeros_like(a.data)
        np.add.at(scatter, (rows, cols), g)
        a._accumulate(scatter, fresh=True)

    return Tensor._make(out_data, [a], grad_fn)

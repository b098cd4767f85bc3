"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays in single precision by default; double precision is
supported everywhere and is mandatory for finite-difference gradient checks.
Each operation that participates in differentiation records its parents and a
closure that scatters the incoming gradient back to them; ``Tensor.backward``
replays those closures in reverse topological order. The one generic op is
``add`` (of equal dims, no broadcasting), with ``+`` as its operator; the
kernels, the unit, batch norm, the network head and the losses build their
own closed-form nodes with ``Tensor._make``. The row softmax and its input
gradient are array functions (``softmax_rows``, ``softmax_rows_grad``) for
the unit's node.

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


class Tensor:
    """A dense array plus an optional differentiation record.

    ``data`` is always a numpy array of float32 or float64; input of any
    other dtype is cast to float32. ``grad`` starts as ``None`` and is
    filled by ``backward``; it always matches ``data`` in shape and dtype.
    Leaves are created with ``requires_grad=True``; interior nodes inherit
    the flag from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in FLOAT_DTYPES else data.astype(np.float32)
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

    def __add__(self, other):
        return add(self, other)


def _consumed(g: np.ndarray) -> None:
    """Stands in for a closure that ``Tensor.backward`` has run and released."""
    raise ContractError("this node's graph was consumed by an earlier backward()")


def fan_in_uniform(shape: tuple[int, ...], rng: np.random.Generator, dtype) -> Tensor:
    """A trainable weight uniform in +-sqrt(1/fan_in), with fan_in the product
    of every extent but the first; drawn in float64 and cast once."""
    bound = float(np.sqrt(1.0 / int(np.prod(shape[1:]))))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


# -- elementwise arithmetic ------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """The sum of two tensors of equal dims."""
    if a.shape != b.shape:
        raise ShapeError(f"add expects operands of equal dims, got {a.shape} and {b.shape}")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return Tensor._make(a.data + b.data, [a, b], grad_fn)


def softmax_rows(buf: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis of ``buf``, written
    over ``buf``, which it returns.

    Each row of the result is non-negative and sums to 1; subtracting the row
    maximum before exponentiation keeps every intermediate finite. The
    row-maximum shift, the exponential and the division all run in
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


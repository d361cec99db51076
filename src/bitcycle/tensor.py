"""Dense tensors with reverse-mode automatic differentiation.

The engine is define-by-run: every op that touches a tensor requiring
gradients records a node with a backward closure, and ``Tensor.backward``
replays the recorded graph in reverse topological order. Data lives in
plain numpy arrays (float32 for training, float64 for gradient checks)
and ops preserve the dtype they are given.

An op output's graph state (its parents, backward closure, gradient and
dtype) is a ``_Node`` apart from the output's ``data``, and a node's
parents are other nodes, or the leaf Tensors themselves, never the op
outputs. So what outlives a forward is the graph state plus whatever the
closures captured: an output's array lives on only while user code holds
the Tensor or a backward closure saved it. Closures capture arrays,
masks and shapes, never a Tensor, and each saves only what its backward
reads.

``backward`` consumes the graph it walks: each node lets go of its
parents and its closure (the arrays the closure saved) as soon as its
parents hold their gradients, so a training step's activations are freed
during the walk rather than when the caller drops the loss. A second
``backward`` through a walked node raises. A node's gradient is the array
its consumer's backward returned, never a copy; an op's backward only
reads the gradient it is given, and a node with two consumers adds their
gradients into a new array. Only a leaf's gradient is a private copy.

Freeing activations mid-walk and allocating them again in the next
forward is what glibc's default malloc handles worst: its dynamic
thresholds serve large blocks from mmap and trim the heap top, so every
step faults the same pages back in. Importing this module therefore fixes
both thresholds (see ``_fix_malloc_thresholds``); that changes where
arrays live, never a computed bit.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Callable, Optional, Sequence

import numpy as np

_grad_enabled = True

# glibc's mallopt parameters, and the values fixed for them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20   # glibc's maximum on 64-bit
_TRIM_THRESHOLD = 256 << 20


def _fix_malloc_thresholds() -> None:
    """Keep freed arrays below 32 MiB in the heap for the next forward.

    Blocks under the mmap threshold come from the heap, and the heap top is
    returned to the system only past the trim threshold. Fixing both also
    turns off glibc's rule that raises them to the largest mmapped block
    freed so far, which made the page-fault count, and so the speed, hang
    on which arrays a run happened to free first. Where libc.so.6 does not
    load (not glibc), this does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_fix_malloc_thresholds()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (used for evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """An op output's graph state: parents, backward closure, gradient, dtype.

    The parents are the inputs' graph entries: their nodes, or the leaf
    Tensors themselves. The output's ``data`` is not kept here, so the
    graph holds an array only through a closure that saved it.
    """

    __slots__ = ("_parents", "_backward", "grad", "dtype")

    def __init__(self, parents: list, backward: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]], dtype):
        self._parents = parents
        self._backward = backward
        self.grad: Optional[np.ndarray] = None
        self.dtype = dtype


class Tensor:
    """A numpy array plus an optional gradient and graph state.

    ``requires_grad`` marks the tensor as a gradient sink; ``grad`` is
    allocated lazily on the first accumulation and always matches
    ``data``'s shape and dtype. Created tensors are leaves and are their own
    graph entry; an op output recorded under a graph carries a ``_Node``
    that wires it to its parents through a backward closure. An activation
    quantizer's output recorded under a graph also carries ``_lattice``,
    its code array (lattice indices plus straight-through window bits) and
    bit depth, for a consumer's backward to keep in place of ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_graph", "_lattice")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._graph: Optional[_Node] = None
        self._lattice: Optional[tuple[np.ndarray, int]] = None

    # ------------------------------------------------------------------
    # basic introspection

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad_flag})"

    def item(self) -> float:
        return self.data.item()

    # ------------------------------------------------------------------
    # autograd engine

    @property
    def _backward(self):
        """The recording op's backward closure; None for a leaf or a no_grad output."""
        return None if self._graph is None else self._graph._backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._graph._backward = fn

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor, consuming the graph.

        Without an explicit seed the tensor must be scalar. Every node in
        the recorded graph is visited exactly once, in reverse topological
        order. Leaves accumulate their gradient into ``grad`` across calls.
        A node (this tensor's included) drops its ``grad``, its parents and
        its closure once its parents have received their gradients, so the
        walk frees each saved activation as soon as nothing below it needs
        it. An op output keeps its ``data``; a later ``backward`` that
        reaches its walked node raises ``RuntimeError``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    f"backward() on non-scalar output of shape {self.data.shape} needs an explicit gradient"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != output shape {self.data.shape}")
        if self._graph is None:  # a leaf: nothing above it to walk
            _accumulate(self, grad)
            return

        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._graph, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if type(p) is _Node and id(p) not in seen:
                    stack.append((p, False))

        _accumulate(self._graph, grad)
        while order:
            # popping drops the walk's own reference, so a node nothing
            # else holds is freed as soon as the next one is taken
            node = order.pop()
            backward, parents = node._backward, node._parents
            g, node.grad = node.grad, None
            node._backward, node._parents = _walked, ()
            if g is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if pg is not None and (type(parent) is _Node or parent.requires_grad):
                    _accumulate(parent, pg)

    # ------------------------------------------------------------------
    # operators

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


def _walked(g):
    raise RuntimeError("backward() reached a node that an earlier backward() already consumed; "
                       "run the forward again to record a new graph")


def _accumulate(entry: Tensor | _Node, g: np.ndarray) -> None:
    # ops may hand one array to several parents, or a view. A leaf's grad is
    # the caller's to keep and add to, so it starts as a copy; a node's is
    # only read, by its own backward, so it takes g as it is and adds a
    # second contribution out of place, writing no array it was handed
    if type(entry) is _Node:
        if entry.grad is None:
            entry.grad = np.asarray(g, dtype=entry.dtype)
        else:
            entry.grad = (entry.grad + g).astype(entry.dtype, copy=False)
    elif entry.grad is None:
        entry.grad = np.array(g, dtype=entry.dtype)
    else:
        entry.grad += g


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _needs_graph(*tensors: Tensor) -> bool:
    if not _grad_enabled:
        return False
    return any(t.requires_grad or t._graph is not None for t in tensors)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _needs_graph(*parents):
        out._graph = _Node([p._graph or p for p in parents], backward, out.data.dtype)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# elementwise and shape ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    ashape, bshape = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, ashape), _unbroadcast(g, bshape)

    return _node(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    out = ad * bd

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _node(out, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        return (-g,)

    return _node(-a.data, (a,), backward)


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient flows only strictly inside the window."""
    x = _as_tensor(x)
    out = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)

    def backward(g):
        return (g * inside,)

    return _node(out, (x,), backward)


def reshape(x, *shape) -> Tensor:
    x = _as_tensor(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = x.data.shape
    out = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(old),)

    return _node(out, (x,), backward)


def tsum(x) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(x.data.sum())
    shape = x.data.shape

    def backward(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _node(out, (x,), backward)


def tmean(x) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(x.data.mean())
    n, shape = x.data.size, x.data.shape

    def backward(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _node(out, (x,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def backward(g):
        return g @ bd.T, ad.T @ g

    return _node(out, (a, b), backward)

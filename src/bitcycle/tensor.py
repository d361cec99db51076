"""Dense tensors with reverse-mode automatic differentiation.

The engine is define-by-run: every op that touches a tensor requiring
gradients records a node with a backward closure, and ``Tensor.backward``
replays the recorded graph in reverse topological order. Data lives in
plain numpy arrays (float32 for training, float64 for gradient checks)
and ops preserve the dtype they are given.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np

_grad_enabled = True


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


class Tensor:
    """A numpy array plus an optional gradient and a tape node.

    ``requires_grad`` marks the tensor as a gradient sink; ``grad`` is
    allocated lazily on the first accumulation and always matches
    ``data``'s shape and dtype. Created tensors are leaves; ops return
    interior tensors wired to their parents through a backward closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    # ------------------------------------------------------------------
    # basic introspection

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad_flag})"

    def item(self) -> float:
        return self.data.item()

    # ------------------------------------------------------------------
    # autograd engine

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        Without an explicit seed the tensor must be scalar. Every node in
        the recorded graph is visited exactly once, in reverse topological
        order, and gradients accumulate into each participating tensor.
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

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                if id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            parent_grads = node._backward(node.grad)
            for parent, g in zip(node._parents, parent_grads):
                if g is None:
                    continue
                if parent.requires_grad or parent._backward is not None:
                    parent._accumulate(g)

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


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _needs_graph(*tensors: Tensor) -> bool:
    if not _grad_enabled:
        return False
    return any(t.requires_grad or t._backward is not None for t in tensors)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _needs_graph(*parents):
        out._parents = parents
        out._backward = backward
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

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

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

    def backward(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _node(out, (x,), backward)


def tmean(x) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(x.data.mean())
    n = x.data.size

    def backward(g):
        return (np.broadcast_to(g / n, x.data.shape).copy(),)

    return _node(out, (x,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _node(out, (a, b), backward)

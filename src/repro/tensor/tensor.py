"""Reverse-mode autograd tensor.

A minimal but complete dynamic-graph autodiff engine in pure NumPy.  Every
differentiable operation creates a new :class:`Tensor` holding references to
its parents and a closure that accumulates gradients into them.  Calling
:meth:`Tensor.backward` runs a topological sort over the recorded graph and
invokes the closures in reverse order.

The engine is deliberately eager and define-by-run (the PruneTrain paper's
substrate is PyTorch, which works the same way): network reconfiguration can
therefore change tensor shapes between iterations without any graph
recompilation step.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .workspace import release as _pool_release

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Global autograd switch.  ``no_grad()`` flips this off so inference and
#: optimizer updates do not record graph nodes.
_GRAD_ENABLED = True

#: Active capture tape (:class:`repro.tensor.compile.Tape`) or ``None``.
#: While set, every op appends an execution record so the step can later be
#: replayed as a flat kernel plan; the disabled cost is one global load per
#: op.  Set/cleared only by ``Tape.__enter__``/``__exit__``.
_TAPE = None


class no_grad:
    """Context manager disabling graph recording (like ``torch.no_grad``)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def grad_enabled() -> bool:
    """Return whether operations currently record autograd graph nodes."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Added leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Broadcast (size-1) axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward_order(root: "Tensor") -> list["Tensor"]:
    """The nodes ``root.backward()`` visits, in visit order: an iterative
    DFS over gradient-requiring parents, reversed post-order.  Compiled
    plans order their backward thunks by it too — multi-consumer gradients
    accumulate in this order, so bit-exactness depends on it."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    topo.reverse()
    return topo


class Tensor:
    """N-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array data; copied only if not already a float32/float64 ndarray.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # so ndarray + Tensor defers to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name
        if _TAPE is not None:
            _TAPE.saw_fresh(self)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a graph node.  ``backward(grad)`` must accumulate into parents."""
        parents = tuple(parents)
        req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=req)
        if req:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use).

        Ownership contract: this method never retains a reference to
        ``grad`` — it either copies it (first touch) or ``+=``-reduces it
        into an array it already owns.  Backward kernels may therefore hand
        in workspace-pool buffers and release them immediately after this
        call returns (see :mod:`repro.tensor.workspace`).
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            # Always copy: the incoming array may be aliased by other nodes
            # (e.g. an add fans the same gradient out to both parents), and
            # later in-place accumulation must not corrupt their values.
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_donated(self, grad: np.ndarray) -> None:
        """Accumulate ``grad``, taking ownership instead of copying.

        The caller *donates* the array: it must match ``self.data`` in shape
        and dtype exactly, must not alias any other live gradient, and must
        not be used by the caller afterwards.  On first touch the array
        itself becomes ``self.grad`` — a workspace-pool buffer stays lent
        and is returned to the pool when :meth:`backward` drops the interior
        gradient — so the kernels' gradient outputs reach the graph with
        zero copies.  On later touches it is reduced in place and released
        back to the pool (a no-op for unpooled arrays).
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad
            _pool_release(grad)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (scalar outputs are the common case:
        losses).  Gradients accumulate into every reachable tensor with
        ``requires_grad=True``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        order = backward_order(self)
        self._accumulate(grad)
        for node in order:
            if node._backward is None:
                continue  # leaf: no closure, and its grad must survive
            if node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    # Donated pool buffers (see _accumulate_donated) go
                    # back to the workspace here — release is a no-op for
                    # plain arrays.
                    _pool_release(node.grad)
                    node.grad = None
            # Drop the closure and parent references even when this node
            # received no gradient (e.g. a conv that skips dx): a retained
            # closure would keep its entire upstream subgraph — and every
            # activation buffer captured in those closures — alive until
            # the output tensor itself is garbage collected.
            node._backward = None
            node._parents = ()

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # arithmetic ops
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(g)

        out = Tensor._make(out_data, (self, other), backward)
        if _TAPE is not None:
            _TAPE.record("add", (self, other), out, None)
        return out

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(-g)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / other.data)
            other._accumulate(-g * self.data / (other.data * other.data))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g @ other.data.T)
            other._accumulate(self.data.T @ g)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(orig))

        out = Tensor._make(out_data, (self,), backward)
        if _TAPE is not None:
            _TAPE.record("reshape", (self,), out, (orig, out_data.shape))
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inv))

        return Tensor._make(out_data, (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(g, shape))
            else:
                ax = (axis,) if isinstance(axis, int) else tuple(axis)
                gg = g
                if not keepdims:
                    gg = np.expand_dims(g, ax)
                self._accumulate(np.broadcast_to(gg, shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            ax = (axis,) if isinstance(axis, int) else tuple(axis)
            n = int(np.prod([self.data.shape[a] for a in ax]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]
        shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, idx, g)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

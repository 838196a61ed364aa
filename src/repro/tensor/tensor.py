"""Reverse-mode autograd tensor: the graph plumbing, and no ops.

A :class:`Tensor` holds an array, its gradient and, when it is an op's
output, references to its parents and a closure that accumulates gradients
into them.  It defines no operator of its own: every op is a row of
:data:`repro.tensor.ops.table.OPS` or the convolution, both run by
:mod:`repro.tensor.functional`, which builds the nodes through
:meth:`Tensor._make`.  Calling :meth:`Tensor.backward` runs a topological
sort over the recorded graph and invokes the closures in reverse order.

The engine is deliberately eager and define-by-run (the PruneTrain paper's
substrate is PyTorch, which works the same way): network reconfiguration can
therefore change tensor shapes between iterations without any graph
recompilation step.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

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

        This method never retains a reference to ``grad`` — it either copies
        it (first touch) or ``+=``-reduces it into an array it already owns
        — so the caller may keep using the array (a node may hand the same
        gradient to several parents).
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            # Always copy: the incoming array may be aliased by other nodes
            # (one gradient fanned out to several parents), and later
            # in-place accumulation must not corrupt their values.
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_donated(self, grad: np.ndarray) -> None:
        """Accumulate ``grad``, taking ownership instead of copying.

        The caller *donates* the array: it must match ``self.data`` in shape
        and dtype exactly, must not alias any other live gradient, and must
        not be used by the caller afterwards.  On first touch the array
        itself becomes ``self.grad``, so the kernels' gradient outputs reach
        the graph with zero copies; on later touches it is reduced in place.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (scalar outputs are the common case:
        losses) and must otherwise have this tensor's shape — no op
        broadcasts, so no gradient is ever summed down to fit.  Gradients
        accumulate into every reachable tensor with ``requires_grad=True``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ValueError(f"gradient of shape {np.shape(grad)} for a "
                             f"tensor of shape {self.data.shape}")
        order = backward_order(self)
        self._accumulate(grad)
        for node in order:
            if node._backward is None:
                continue  # leaf: no closure, and its grad must survive
            if node.grad is not None:
                node._backward(node.grad)
                if node is not self:
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

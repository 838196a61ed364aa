"""Channel-structured group-lasso regularization (paper Sec. 4.1, Eq. 1-3).

The regularizer groups the weights of each *input channel* and each *output
channel* of every convolution (Eq. 2) and penalizes the group L2 norms with a
single **global** coefficient λ — the paper's deliberate choice over
per-group size-normalized penalties, because a global λ preferentially
sparsifies early layers (few channels, large feature maps) and therefore
prioritizes *computation* reduction over parameter-count reduction.

λ itself is set **once, at the first training iteration**, from the target
*lasso penalty ratio* (Eq. 3): the fraction of the total loss contributed by
the regularization term, evaluated with the freshly initialized weights and
the first forward pass's classification loss.  The paper finds a ratio of
20-25% robustly gives >50% pruning with <2% accuracy loss.

Exclusions (paper): the input channels of the first convolution (RGB input
must stay dense) and the output neurons of the final FC layer (the logits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn.graph import ConvNode, ModelGraph

#: Numerical floor below which a group's subgradient is treated as zero.
_NORM_EPS = 1e-12


def _inverse(norms: np.ndarray) -> np.ndarray:
    """``1/n`` where ``n > _NORM_EPS``, else 0 (same bits as
    ``np.where(n > eps, 1/np.maximum(n, eps), 0)``)."""
    return np.divide(1.0, norms, out=np.zeros(norms.shape, norms.dtype),
                     where=norms > _NORM_EPS)


@dataclass
class GroupNorms:
    """Per-conv channel group norms (for logging and the loss value)."""

    in_norms: np.ndarray   # (C,)  L2 of each input-channel slice
    out_norms: np.ndarray  # (K,)  L2 of each output-channel slice


class GroupLasso:
    """Group-lasso regularizer over a model's :class:`ModelGraph`.

    Parameters
    ----------
    graph:
        Structural graph; regularization applies to all *active* convs.
    per_group_size_scaling:
        Ablation switch — scale each group's penalty by ``sqrt(group size)``
        as prior work [37, 38] recommends.  The paper argues against this
        (it de-prioritizes the computation-heavy early layers); default off.
    """

    def __init__(self, graph: ModelGraph,
                 per_group_size_scaling: bool = False):
        self.graph = graph
        self.per_group_size_scaling = per_group_size_scaling
        self.lam: Optional[float] = None
        #: first conv (reads a frozen space) — its input groups are excluded
        self._first_conv_names = {
            c.name for c in graph.convs if graph.spaces[c.in_space].frozen}

    # -- loss -------------------------------------------------------------
    def group_norms(self, node: ConvNode) -> GroupNorms:
        """Input- and output-channel group L2 norms of one conv."""
        w = node.conv.weight.data
        # in channel c: slice w[:, c, :, :]; out channel k: w[k, :, :, :]
        in_norms = np.sqrt(np.einsum("kcrs,kcrs->c", w, w))
        out_norms = np.sqrt(np.einsum("kcrs,kcrs->k", w, w))
        return GroupNorms(in_norms, out_norms)

    def raw_loss(self) -> float:
        """Σ over groups of (optionally scaled) group norms, *without* λ."""
        total = 0.0
        for node in self.graph.active_convs():
            norms = self.group_norms(node)
            w = node.conv.weight.data
            k, c = w.shape[0], w.shape[1]
            rs = w.shape[2] * w.shape[3]
            in_scale = np.sqrt(k * rs) if self.per_group_size_scaling else 1.0
            out_scale = np.sqrt(c * rs) if self.per_group_size_scaling else 1.0
            if node.name not in self._first_conv_names:
                total += in_scale * float(norms.in_norms.sum())
            total += out_scale * float(norms.out_norms.sum())
        return total

    def loss(self) -> float:
        """λ-weighted regularization loss (0 before :meth:`set_coefficient`)."""
        if self.lam is None:
            return 0.0
        return self.lam * self.raw_loss()

    # -- coefficient setup (Eq. 3) -----------------------------------------
    def set_coefficient(self, classification_loss: float,
                        penalty_ratio: float) -> float:
        """Solve Eq. 3 for λ given the target lasso penalty ratio.

        ``ratio = λR / (L + λR)``  =>  ``λ = ratio·L / ((1 - ratio)·R)``
        with ``L`` the first-iteration classification loss and ``R`` the raw
        regularizer value at initialization.  Returns λ.
        """
        if not 0.0 < penalty_ratio < 1.0:
            raise ValueError("penalty_ratio must be in (0, 1)")
        raw = self.raw_loss()
        if raw <= 0.0:
            raise ValueError("regularizer is identically zero; no groups?")
        # Canonicalize to a Python float: λ multiplies float32 gradient
        # arrays, where a same-valued np.float64 promotes differently
        # (NEP 50), and it round-trips through JSON checkpoint state — both
        # demand one canonical scalar type for bit-exact runs.
        self.lam = float(penalty_ratio * classification_loss / (
            (1.0 - penalty_ratio) * raw))
        return self.lam

    # -- gradient ------------------------------------------------------------
    def add_gradients(self) -> None:
        """Accumulate ``λ·∂(Σ‖W_g‖₂)/∂W`` into each conv weight's ``.grad``.

        Subgradient of the L2 norm: ``W_g / ‖W_g‖`` for nonzero groups, 0 at
        the origin (a valid and standard choice).  Each weight is viewed as
        ``w2 (K, C·R·S)``: the in-channel inverse norms, repeated ``R·S``
        times, scale it along a contiguous row and the out-channel ones as a
        ``(K, 1)`` column, so every pass reads and writes contiguous memory.
        The two products land in two views of one scratch buffer sized for
        the largest conv, ``(w·inv_in + w·inv_out)·λ`` is formed there and
        added to ``.grad``: one allocation per call instead of five
        conv-sized temporaries per conv.  The buffer is dropped on return,
        so a regularizer holds no memory between steps.

        Bit rule: the gradient is bitwise that of the per-conv formulation
        this replaced, ``((0 + w·inv_in) + w·inv_out)·λ`` summed into a
        zero-filled array.  The products, their association and order, and
        the norms' two einsum reductions are the same; the zero-filled start
        is the ``+= 0.0`` pass, which turns a ``-0.0`` first term into
        ``+0.0``.  ``per_group_size_scaling`` (an ablation) keeps its
        float64 ``(scale·w)·inv`` terms rounded into a float32 sum.
        """
        if self.lam is None:
            raise RuntimeError("call set_coefficient() before add_gradients()")
        convs = self.graph.active_convs()
        size = max([n.conv.weight.data.size for n in convs], default=0)
        buf = None
        for node in convs:
            p = node.conv.weight
            w = p.data
            norms = self.group_norms(node)
            k, c = w.shape[0], w.shape[1]
            rs = w.shape[2] * w.shape[3]
            w2 = w.reshape(k, c * rs)
            first = node.name in self._first_conv_names
            inv_out = _inverse(norms.out_norms)[:, None]
            inv_in = None if first else _inverse(norms.in_norms).repeat(rs)
            if self.per_group_size_scaling:
                grad = self._scaled(w2, inv_in, inv_out, c, k, rs)
            else:
                if buf is None or buf.dtype != w.dtype:
                    buf = np.empty(2 * size, w.dtype)
                grad, term = buf[:2 * w.size].reshape((2,) + w2.shape)
                np.multiply(w2, inv_out if first else inv_in, out=grad)
                grad += 0.0     # the zero-filled start: -0.0 becomes +0.0
                if not first:
                    grad += np.multiply(w2, inv_out, out=term)
            if p.grad is None:
                p.grad = np.multiply(grad, self.lam).reshape(w.shape)
            else:
                grad *= self.lam
                p.grad += grad.reshape(w.shape)

    @staticmethod
    def _scaled(w2, inv_in, inv_out, c, k, rs):
        """The ``sqrt(group size)``-scaled subgradient, each term computed
        in float64 (``np.sqrt`` is a float64 scalar) and rounded into the
        float32 sum as the original formulation does."""
        grad = np.zeros_like(w2)
        if inv_in is not None:
            grad += np.sqrt(k * rs) * w2 * inv_in
        grad += np.sqrt(c * rs) * w2 * inv_out
        return grad

    # -- diagnostics -----------------------------------------------------------
    def penalty_ratio(self, classification_loss: float) -> float:
        """Current Eq.-3 ratio given a classification loss value."""
        reg = self.loss()
        denom = classification_loss + reg
        return reg / denom if denom > 0 else 0.0

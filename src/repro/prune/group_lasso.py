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
        the origin (a valid and standard choice).  Fully vectorized: two
        broadcasts per conv.
        """
        if self.lam is None:
            raise RuntimeError("call set_coefficient() before add_gradients()")
        for node in self.graph.active_convs():
            w = node.conv.weight.data
            norms = self.group_norms(node)
            k, c = w.shape[0], w.shape[1]
            rs = w.shape[2] * w.shape[3]
            grad = np.zeros_like(w)
            if node.name not in self._first_conv_names:
                inv_in = np.where(norms.in_norms > _NORM_EPS,
                                  1.0 / np.maximum(norms.in_norms, _NORM_EPS),
                                  0.0)
                scale = np.sqrt(k * rs) if self.per_group_size_scaling else 1.0
                grad += scale * w * inv_in[None, :, None, None]
            inv_out = np.where(norms.out_norms > _NORM_EPS,
                               1.0 / np.maximum(norms.out_norms, _NORM_EPS),
                               0.0)
            scale = np.sqrt(c * rs) if self.per_group_size_scaling else 1.0
            grad += scale * w * inv_out[:, None, None, None]
            grad *= self.lam
            p = node.conv.weight
            if p.grad is None:
                p.grad = grad
            else:
                p.grad += grad

    # -- diagnostics -----------------------------------------------------------
    def penalty_ratio(self, classification_loss: float) -> float:
        """Current Eq.-3 ratio given a classification loss value."""
        reg = self.loss()
        denom = classification_loss + reg
        return reg / denom if denom > 0 else 0.0

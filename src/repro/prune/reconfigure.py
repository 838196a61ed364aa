"""Dynamic network reconfiguration (paper Sec. 4.2).

At each reconfiguration interval PruneTrain physically removes prunable
channels and rebuilds every layer into a smaller *dense* form:

1. **Layer removal** — a residual path whose conv has every output (or every
   input) channel sparsified contributes nothing; the whole path is
   deactivated (paper Sec. 4.1 "Layer Removal by Overlapping Regularization
   Groups", counted in Tab. 3).
2. **Channel-union masks** — per channel space, keep the union of dense
   channels over all members (:func:`repro.prune.sparsity.space_keep_masks`).
3. **Surgery** — slice conv filters along both channel axes, slice the
   following BatchNorm's parameters *and running statistics*, slice the FC
   input columns, and slice the optimizer's momentum buffers identically, so
   "all training variables of the remaining channels are kept as is".

The parameter *objects* survive (only their ``.data`` changes), so the
optimizer's identity-keyed state stays attached without re-registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn.graph import ConvNode, ModelGraph
from ..nn.module import Module, Parameter
from .sparsity import DEFAULT_THRESHOLD, conv_sparsity, space_keep_masks


@dataclass
class PruneReport:
    """What one reconfiguration did."""

    channels_before: int = 0
    channels_after: int = 0
    params_before: int = 0
    params_after: int = 0
    removed_paths: List[str] = field(default_factory=list)
    removed_layers: int = 0
    space_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def channels_pruned(self) -> int:
        return self.channels_before - self.channels_after

    def __str__(self) -> str:
        return (f"PruneReport(channels {self.channels_before}->"
                f"{self.channels_after}, params {self.params_before}->"
                f"{self.params_after}, removed_layers={self.removed_layers})")


def _slice_param(param: Parameter, optimizer, out_keep: Optional[np.ndarray],
                 in_keep: Optional[np.ndarray] = None) -> None:
    """Slice a parameter (and its momentum) along channel axes.

    ``out_keep`` indexes axis 0; ``in_keep`` (if given) indexes axis 1.
    """
    data = param.data
    if out_keep is not None:
        data = data[out_keep]
    if in_keep is not None:
        data = data[:, in_keep]
    param.data = np.ascontiguousarray(data)
    param.grad = None
    if optimizer is not None:
        buf = optimizer.state_for(param)
        if buf is not None:
            if out_keep is not None:
                buf = buf[out_keep]
            if in_keep is not None:
                buf = buf[:, in_keep]
            optimizer.set_state_for(param, np.ascontiguousarray(buf))


def _dead_convs(graph: ModelGraph, threshold: float) -> List[ConvNode]:
    """Active path convs that are entirely sparsified on either channel axis."""
    dead = []
    for node in graph.active_convs():
        if node.path is None:
            continue
        sp = conv_sparsity(node, threshold)
        if sp.out_sparse.all() or sp.in_sparse.all():
            dead.append(node)
    return dead


def remove_dead_paths(graph: ModelGraph,
                      threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Deactivate residual paths containing a fully-sparsified conv.

    Returns the names of removed paths (:meth:`ResidualPath.remove`: their
    parameters disappear from ``model.parameters()``).
    """
    removed = []
    for node in _dead_convs(graph, threshold):
        path = graph.paths[node.path]
        if not getattr(path.block, "active", True):
            continue
        path.remove()
        removed.append(path.name)
    return removed


def prune_and_reconfigure(model: Module, optimizer=None,
                          threshold: float = DEFAULT_THRESHOLD,
                          remove_layers: bool = True,
                          zero_sparse: bool = False,
                          on_masks=None) -> PruneReport:
    """Perform one full PruneTrain reconfiguration on ``model``.

    Parameters
    ----------
    model:
        Any model exposing a ``graph`` attribute (:class:`ModelGraph`).
    optimizer:
        Optional :class:`repro.optim.SGD`; its momentum buffers are sliced in
        lock-step and its parameter list refreshed.
    remove_layers:
        Enable residual-path (layer) removal.
    zero_sparse:
        Additionally hard-zero sparsified-but-kept channel groups (the
        union's redundant lanes).  Off by default so the revival dynamics
        studied in Fig. 4 stay untouched.

    Returns a :class:`PruneReport`.
    """
    graph: ModelGraph = model.graph
    report = PruneReport()
    report.params_before = model.num_parameters()
    report.channels_before = sum(
        s.size for s in graph.spaces.values() if not s.frozen)

    if remove_layers:
        report.removed_paths = remove_dead_paths(graph, threshold)
    report.removed_layers = graph.removed_layers()

    masks = space_keep_masks(graph, threshold)
    if on_masks is not None:
        # Hook for observers (e.g. ChannelTracker) that must see the final
        # keep masks before the slicing happens.
        on_masks(masks)

    apply_space_masks(model, masks, optimizer)

    if zero_sparse:
        zero_sparsified_groups(graph, threshold, optimizer)

    graph.validate()
    if optimizer is not None:
        # Refresh the parameter list *and* drop momentum/scratch state of
        # parameters that layer removal took out of the model (stale
        # id-keyed entries would leak and could be mis-attached to a new
        # parameter if the id is recycled).
        optimizer.sync_params(model.parameters())

    report.params_after = model.num_parameters()
    report.channels_after = sum(
        s.size for s in graph.spaces.values() if not s.frozen)
    report.space_sizes = {sid: s.size for sid, s in graph.spaces.items()}
    return report


def apply_space_masks(model: Module, masks: Dict[int, np.ndarray],
                      optimizer=None) -> None:
    """Slice every layer of ``model`` by per-space boolean keep masks.

    This is the raw surgery step shared by :func:`prune_and_reconfigure`
    (masks from sparsity analysis) and checkpoint loading (masks
    reconstructing a recorded architecture).  Conv weights are sliced on
    both channel axes, BatchNorm parameters and running statistics on the
    output axis, linear layers on their input columns, and the optimizer's
    momentum buffers identically.
    """
    graph: ModelGraph = model.graph
    for node in graph.active_convs():
        in_keep = masks[node.in_space]
        out_keep = masks[node.out_space]
        conv = node.conv
        _slice_param(conv.weight, optimizer, out_keep, in_keep)
        if conv.bias is not None:
            _slice_param(conv.bias, optimizer, out_keep)
        conv.in_channels = int(in_keep.sum())
        conv.out_channels = int(out_keep.sum())
        bn = node.bn
        if bn is not None:
            _slice_param(bn.weight, optimizer, out_keep)
            _slice_param(bn.bias, optimizer, out_keep)
            bn.running_mean = np.ascontiguousarray(bn.running_mean[out_keep])
            bn.running_var = np.ascontiguousarray(bn.running_var[out_keep])
            bn.num_features = int(out_keep.sum())

    for lin in graph.linears:
        in_keep = masks[lin.in_space]
        out_keep = masks[lin.out_space]
        _slice_param(lin.linear.weight, optimizer, out_keep, in_keep)
        if lin.linear.bias is not None:
            _slice_param(lin.linear.bias, optimizer, out_keep)
        lin.linear.in_features = int(in_keep.sum())
        lin.linear.out_features = int(out_keep.sum())

    for sid, keep in masks.items():
        graph.spaces[sid].size = int(keep.sum())

    # Channel surgery changed every activation shape in the model (the
    # paper's "dense reconfiguration" moment): this retires the model's
    # compiled step plans (repro.tensor.compile), and the trainer recaptures
    # on its next batch against the reconfigured network.
    model.invalidate_plans()


def zero_sparsified_groups(graph: ModelGraph,
                           threshold: float = DEFAULT_THRESHOLD,
                           optimizer=None) -> int:
    """Hard-zero every channel group still under threshold (and momentum).

    This is the paper's "zeroed out" step for channels that sparsified but
    were *not* structurally prunable (e.g. the union's redundant lanes).
    Per the paper, the "associated momentum and normalization parameters"
    are zeroed along with the weights: a batch-norm following a near-zero
    channel would otherwise *re-amplify* its residual signal (BN normalizes
    whatever variance is left), silently keeping a functionally-dead channel
    alive.  Returns the number of zeroed groups.
    """
    zeroed = 0
    for node in graph.active_convs():
        sp = conv_sparsity(node, threshold)
        w = node.conv.weight
        if sp.in_sparse.any():
            w.data[:, sp.in_sparse] = 0.0
            zeroed += int(sp.in_sparse.sum())
        if sp.out_sparse.any():
            w.data[sp.out_sparse] = 0.0
            zeroed += int(sp.out_sparse.sum())
            bn = node.bn
            if bn is not None:
                bn.weight.data[sp.out_sparse] = 0.0
                bn.bias.data[sp.out_sparse] = 0.0
                if optimizer is not None:
                    for p in (bn.weight, bn.bias):
                        buf = optimizer.state_for(p)
                        if buf is not None:
                            buf[sp.out_sparse] = 0.0
        if optimizer is not None and (sp.in_sparse.any() or
                                      sp.out_sparse.any()):
            buf = optimizer.state_for(w)
            if buf is not None:
                buf[:, sp.in_sparse] = 0.0
                buf[sp.out_sparse] = 0.0
    return zeroed

"""Channel-space structural graph of a CNN.

PruneTrain's reconfiguration (Sec. 4.2) has to respect inter-layer dimension
consistency: "we only prune the intersection of the sparsified channels of
any two adjacent layers", and for short-cut networks the **channel union**
rule keeps "the union of all dense channels" of every conv sharing a residual
node (Fig. 5c).

Both rules are the same statement once the network is described in terms of
*channel spaces*: every activation tensor lives in a space; a convolution
reads one space and writes another; an elementwise add forces its operands
into the same space (the residual node).  A channel of a space may be pruned
iff **every** conv writing the space has sparsified that output channel and
**every** conv/linear reading the space has sparsified that input channel.

- For a plain conv chain (VGG), each interior space has exactly one writer
  and one reader -> the rule degenerates to the paper's adjacent-layer
  intersection.
- For a residual stage, the stage's shared node is one space touched by many
  convs -> the rule is exactly the channel union.

Models in :mod:`repro.nn.resnet` / :mod:`repro.nn.vgg` build this graph at
construction time; :mod:`repro.prune.reconfigure` consumes it to perform
surgery, and :mod:`repro.costmodel` walks it to count FLOPs/bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .layers import BatchNorm2d, Conv2d, Linear


@dataclass
class Space:
    """One channel space (an equivalence class of activation channel dims)."""

    sid: int
    size: int
    frozen: bool = False  # RGB input & class-logit spaces are never pruned
    name: str = ""


@dataclass
class ConvNode:
    """A convolution plus its (optional) following BatchNorm."""

    name: str
    conv: Conv2d
    bn: Optional[BatchNorm2d]
    in_space: int
    out_space: int
    #: Output spatial size this conv produces at the model's native input
    #: resolution — recorded at build time so the cost model needs no
    #: forward pass.
    out_hw: int = 0
    #: Residual-path id this conv belongs to (None = trunk/shortcut).  Used
    #: for layer removal: a fully-sparse conv kills its whole path.
    path: Optional[int] = None


@dataclass
class LinearNode:
    """A fully connected layer (reads a space channel-per-feature after GAP)."""

    name: str
    linear: Linear
    in_space: int
    out_space: int


@dataclass
class ResidualPath:
    """A prunable residual branch (e.g. conv1-conv2-conv3 of a bottleneck).

    ``block`` must expose an ``active`` boolean the forward pass respects;
    deactivating it removes the path (the paper's layer removal, Tab. 3).
    """

    pid: int
    name: str
    block: object
    conv_names: List[str]

    def remove(self) -> None:
        """Deactivate the path and drop the block's conv/bn modules, so
        their parameters leave ``model.parameters()``."""
        self.block.active = False
        for attr in ("conv1", "bn1", "conv2", "bn2", "conv3", "bn3"):
            if hasattr(self.block, attr):
                setattr(self.block, attr, None)


class ModelGraph:
    """Structural description of a model for pruning/cost accounting."""

    def __init__(self) -> None:
        self.spaces: Dict[int, Space] = {}
        self.convs: List[ConvNode] = []
        self.linears: List[LinearNode] = []
        self.paths: Dict[int, ResidualPath] = {}
        self._next_sid = 0
        self._next_pid = 0

    # -- construction ------------------------------------------------------
    def new_space(self, size: int, frozen: bool = False,
                  name: str = "") -> int:
        sid = self._next_sid
        self._next_sid += 1
        self.spaces[sid] = Space(sid, size, frozen, name)
        return sid

    def add_conv(self, name: str, conv: Conv2d, bn: Optional[BatchNorm2d],
                 in_space: int, out_space: int, out_hw: int,
                 path: Optional[int] = None) -> ConvNode:
        if self.spaces[in_space].size != conv.in_channels:
            raise ValueError(f"{name}: in_space size "
                             f"{self.spaces[in_space].size} != conv "
                             f"in_channels {conv.in_channels}")
        if self.spaces[out_space].size != conv.out_channels:
            raise ValueError(f"{name}: out_space size "
                             f"{self.spaces[out_space].size} != conv "
                             f"out_channels {conv.out_channels}")
        node = ConvNode(name, conv, bn, in_space, out_space, out_hw, path)
        self.convs.append(node)
        return node

    def add_linear(self, name: str, linear: Linear, in_space: int,
                   out_space: int) -> LinearNode:
        node = LinearNode(name, linear, in_space, out_space)
        self.linears.append(node)
        return node

    def new_path(self, name: str, block: object,
                 conv_names: List[str]) -> int:
        pid = self._next_pid
        self._next_pid += 1
        self.paths[pid] = ResidualPath(pid, name, block, conv_names)
        return pid

    # -- queries -------------------------------------------------------------
    def writers(self, sid: int) -> List[ConvNode]:
        """Convs whose output lives in space ``sid`` (active paths only)."""
        return [c for c in self.convs
                if c.out_space == sid and self._active(c)]

    def readers(self, sid: int) -> List[ConvNode]:
        return [c for c in self.convs
                if c.in_space == sid and self._active(c)]

    def linear_readers(self, sid: int) -> List[LinearNode]:
        return [l for l in self.linears if l.in_space == sid]

    def active_convs(self) -> List[ConvNode]:
        return [c for c in self.convs if self._active(c)]

    def _active(self, node: ConvNode) -> bool:
        if node.path is None:
            return True
        return bool(getattr(self.paths[node.path].block, "active", True))

    def conv_by_name(self, name: str) -> ConvNode:
        for c in self.convs:
            if c.name == name:
                return c
        raise KeyError(name)

    def removed_layers(self) -> int:
        """Number of conv layers eliminated by residual-path removal."""
        return sum(len(p.conv_names) for p in self.paths.values()
                   if not getattr(p.block, "active", True))

    def total_conv_layers(self) -> int:
        return len(self.convs)

    def validate(self) -> None:
        """Check dimensional consistency of the whole graph (cheap; used in
        tests and after every surgery).  Convs of removed paths are skipped:
        their modules are detached and no longer tracked."""
        for c in self.convs:
            if not self._active(c):
                continue
            if c.conv.in_channels != self.spaces[c.in_space].size:
                raise AssertionError(f"{c.name}: in dim drifted")
            if c.conv.out_channels != self.spaces[c.out_space].size:
                raise AssertionError(f"{c.name}: out dim drifted")
            if c.bn is not None and c.bn.num_features != c.conv.out_channels:
                raise AssertionError(f"{c.name}: bn dim drifted")
        for l in self.linears:
            if l.linear.in_features != self.spaces[l.in_space].size:
                raise AssertionError(f"{l.name}: linear in dim drifted")

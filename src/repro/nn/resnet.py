"""ResNet family used in the paper: ResNet-20/32/56 (basic blocks, CIFAR) and
ResNet-50 (bottleneck blocks, CIFAR and ImageNet stems).

Every model builds its :class:`~repro.nn.graph.ModelGraph` at construction:
residual stages share a single junction channel-space (the paper's Fig. 5
"residual blocks sharing the same node"), which is what makes the
channel-union pruning rule exact.

``width_mult`` scales all channel counts so experiments fit a CPU budget; the
architecture (depth, stage structure, stride pattern) is unchanged, and the
analytic cost models operate on whatever widths are in play.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from .graph import ModelGraph
from .layers import (BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d,
                     ReLU)
from .module import Module


def _scale(c: int, width_mult: float) -> int:
    return max(1, int(round(c * width_mult)))


class BasicBlock(Module):
    """Two 3x3 convs with a shortcut (ResNet-20/32/56 building block)."""

    def __init__(self, in_ch: int, out_ch: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.active = True
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride, 1, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, 1, 1, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        self.relu = ReLU()
        self.proj: Optional[Conv2d] = None
        self.proj_bn: Optional[BatchNorm2d] = None
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv2d(in_ch, out_ch, 1, stride, 0, rng=rng)
            self.proj_bn = BatchNorm2d(out_ch)

    def forward(self, x: Tensor) -> Tensor:
        shortcut = x
        if self.proj is not None:
            shortcut = self.proj_bn(self.proj(x))
        if not self.active:
            return self.relu(shortcut)
        out = self.bn1(self.conv1(x), relu=True)
        out = self.bn2(self.conv2(out))
        return F.add_relu(out, shortcut)


class Bottleneck(Module):
    """1x1 -> 3x3 -> 1x1 bottleneck (ResNet-50 building block)."""

    def __init__(self, in_ch: int, mid_ch: int, out_ch: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.active = True
        self.conv1 = Conv2d(in_ch, mid_ch, 1, 1, 0, rng=rng)
        self.bn1 = BatchNorm2d(mid_ch)
        self.conv2 = Conv2d(mid_ch, mid_ch, 3, stride, 1, rng=rng)
        self.bn2 = BatchNorm2d(mid_ch)
        self.conv3 = Conv2d(mid_ch, out_ch, 1, 1, 0, rng=rng)
        self.bn3 = BatchNorm2d(out_ch)
        self.relu = ReLU()
        self.proj: Optional[Conv2d] = None
        self.proj_bn: Optional[BatchNorm2d] = None
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv2d(in_ch, out_ch, 1, stride, 0, rng=rng)
            self.proj_bn = BatchNorm2d(out_ch)

    def forward(self, x: Tensor) -> Tensor:
        shortcut = x
        if self.proj is not None:
            shortcut = self.proj_bn(self.proj(x))
        if not self.active:
            return self.relu(shortcut)
        out = self.bn1(self.conv1(x), relu=True)
        out = self.bn2(self.conv2(out), relu=True)
        out = self.bn3(self.conv3(out))
        return F.add_relu(out, shortcut)


class ResNet(Module):
    """Configurable ResNet with a full channel-space graph.

    Parameters
    ----------
    block_counts: blocks per stage (3 stages for CIFAR, 4 for ImageNet stem).
    widths: junction width per stage (post-expansion for bottlenecks).
    bottleneck: use :class:`Bottleneck` blocks (mid width = width / 4).
    num_classes, input_hw, in_channels: task geometry.
    imagenet_stem: stride-2 stem conv + 2x2 max-pool (for larger inputs).
    """

    def __init__(self, block_counts: List[int], widths: List[int],
                 bottleneck: bool, num_classes: int, input_hw: int = 32,
                 in_channels: int = 3, width_mult: float = 1.0,
                 imagenet_stem: bool = False, seed: int = 0,
                 name: str = "resnet"):
        super().__init__()
        rng = np.random.default_rng(seed)
        widths = [_scale(w, width_mult) for w in widths]
        self.name = name
        self.num_classes = num_classes
        self.input_hw = input_hw
        self.in_channels = in_channels
        g = ModelGraph()
        self.graph = g

        rgb = g.new_space(in_channels, frozen=True, name="input")
        hw = input_hw
        # Bottleneck nets (ResNet-50) keep the classic thin stem: the first
        # block's projection conv expands to the stage width.
        stem_ch = max(1, widths[0] // 4) if bottleneck else widths[0]
        stem_stride = 2 if imagenet_stem else 1
        self.stem = Conv2d(in_channels, stem_ch, 3, stem_stride, 1, rng=rng)
        self.stem_bn = BatchNorm2d(stem_ch)
        hw //= stem_stride
        self.stem_pool = MaxPool2d(2) if imagenet_stem else None

        # Stage 1 junction == stem output space (identity shortcut into the
        # first block when in_ch == out_ch and stride 1).  The stem conv's
        # out_hw is recorded *before* the stem max-pool.
        junction = g.new_space(stem_ch, name="stage0")
        g.add_conv("stem", self.stem, self.stem_bn, rgb, junction, hw)
        if imagenet_stem:
            hw //= 2

        self.stages: List[List[Module]] = []
        for si, (n_blocks, w) in enumerate(zip(block_counts, widths)):
            stage: List[Module] = []
            for bi in range(n_blocks):
                stride = 2 if (si > 0 and bi == 0) else 1
                in_space = junction
                in_ch = g.spaces[in_space].size
                if stride != 1 or in_ch != w:
                    junction = g.new_space(w, name=f"stage{si + 1}")
                hw //= stride
                bname = f"s{si}b{bi}"
                if bottleneck:
                    mid = max(1, w // 4)
                    blk = Bottleneck(in_ch, mid, w, stride, rng)
                    m1 = g.new_space(mid, name=f"{bname}.m1")
                    m2 = g.new_space(mid, name=f"{bname}.m2")
                    pid = g.new_path(bname, blk,
                                     [f"{bname}.conv1", f"{bname}.conv2",
                                      f"{bname}.conv3"])
                    g.add_conv(f"{bname}.conv1", blk.conv1, blk.bn1,
                               in_space, m1, hw * stride
                               if stride > 1 else hw, path=pid)
                    g.add_conv(f"{bname}.conv2", blk.conv2, blk.bn2,
                               m1, m2, hw, path=pid)
                    g.add_conv(f"{bname}.conv3", blk.conv3, blk.bn3,
                               m2, junction, hw, path=pid)
                else:
                    blk = BasicBlock(in_ch, w, stride, rng)
                    m1 = g.new_space(w, name=f"{bname}.m1")
                    pid = g.new_path(bname, blk,
                                     [f"{bname}.conv1", f"{bname}.conv2"])
                    g.add_conv(f"{bname}.conv1", blk.conv1, blk.bn1,
                               in_space, m1, hw, path=pid)
                    g.add_conv(f"{bname}.conv2", blk.conv2, blk.bn2,
                               m1, junction, hw, path=pid)
                if blk.proj is not None:
                    g.add_conv(f"{bname}.proj", blk.proj, blk.proj_bn,
                               in_space, junction, hw)
                stage.append(blk)
            self.stages.append(stage)

        self.pool = GlobalAvgPool()
        logits = g.new_space(num_classes, frozen=True, name="logits")
        self.fc = Linear(g.spaces[junction].size, num_classes, rng=rng)
        g.add_linear("fc", self.fc, junction, logits)
        g.validate()

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_bn(self.stem(x), relu=True)
        if self.stem_pool is not None:
            out = self.stem_pool(out)
        for stage in self.stages:
            for block in stage:
                out = block(out)
        return self.fc(self.pool(out))


def resnet20(num_classes: int = 10, width_mult: float = 1.0, seed: int = 0,
             input_hw: int = 32) -> ResNet:
    """ResNet-20 (3 stages x 3 basic blocks)."""
    return ResNet([3, 3, 3], [16, 32, 64], False, num_classes, input_hw,
                  width_mult=width_mult, seed=seed, name="resnet20")


def resnet32(num_classes: int = 10, width_mult: float = 1.0, seed: int = 0,
             input_hw: int = 32) -> ResNet:
    """ResNet-32 (3 stages x 5 basic blocks) — paper's CIFAR workhorse."""
    return ResNet([5, 5, 5], [16, 32, 64], False, num_classes, input_hw,
                  width_mult=width_mult, seed=seed, name="resnet32")


def resnet56(num_classes: int = 10, width_mult: float = 1.0, seed: int = 0,
             input_hw: int = 32) -> ResNet:
    """ResNet-56 (3 stages x 9 basic blocks) — the AMC comparison model."""
    return ResNet([9, 9, 9], [16, 32, 64], False, num_classes, input_hw,
                  width_mult=width_mult, seed=seed, name="resnet56")


def resnet50_cifar(num_classes: int = 10, width_mult: float = 1.0,
                   seed: int = 0, input_hw: int = 32) -> ResNet:
    """Bottleneck ResNet-50 with a CIFAR stem ([3,4,6,3] blocks)."""
    return ResNet([3, 4, 6, 3], [256, 512, 1024, 2048], True, num_classes,
                  input_hw, width_mult=width_mult, seed=seed,
                  name="resnet50")


def resnet50_imagenet(num_classes: int = 1000, width_mult: float = 1.0,
                      seed: int = 0, input_hw: int = 224) -> ResNet:
    """Bottleneck ResNet-50 with a down-sampling stem for large inputs."""
    return ResNet([3, 4, 6, 3], [256, 512, 1024, 2048], True, num_classes,
                  input_hw, width_mult=width_mult, imagenet_stem=True,
                  seed=seed, name="resnet50-imagenet")


def wide_resnet16(num_classes: int = 10, widen: int = 4,
                  width_mult: float = 1.0, seed: int = 0,
                  input_hw: int = 32) -> ResNet:
    """WRN-16-k (Zagoruyko & Komodakis) — a short-cut CNN variant the paper
    lists among channel union's targets.  Basic blocks, 3 stages x 2 blocks,
    widths ``16k/32k/64k``."""
    widths = [16 * widen, 32 * widen, 64 * widen]
    return ResNet([2, 2, 2], widths, False, num_classes, input_hw,
                  width_mult=width_mult, seed=seed,
                  name=f"wrn16-{widen}")

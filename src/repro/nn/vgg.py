"""VGG-11/13 with batch normalization (the paper's plain-chain CNNs).

VGG has no short-cut connections, so its channel-space graph is a simple
chain: each interior space has exactly one writer and one reader, and the
pruning rule reduces to the paper's adjacent-layer channel intersection.
The classifier is global-average-pool + a single FC, the standard compact
CIFAR-VGG head (and the prunable one — a flattened 512*H*W head would pin
the last conv's channel space to spatial positions).
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from ..tensor import Tensor
from .graph import ModelGraph
from .layers import (BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d,
                     ReLU)
from .module import Module

#: Layer plans: ints are conv widths, "M" is a 2x2 max-pool.
VGG_PLANS = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M",
              512, 512, "M"],
}


class VGG(Module):
    """Plain conv-BN-ReLU chain with interleaved max-pools."""

    def __init__(self, plan: List[Union[int, str]], num_classes: int,
                 input_hw: int = 32, in_channels: int = 3,
                 width_mult: float = 1.0, seed: int = 0, name: str = "vgg"):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.name = name
        self.num_classes = num_classes
        self.input_hw = input_hw
        self.in_channels = in_channels
        g = ModelGraph()
        self.graph = g

        space = g.new_space(in_channels, frozen=True, name="input")
        hw = input_hw
        self.features: List[Module] = []
        ci = 0
        in_ch = in_channels
        for item in plan:
            if item == "M":
                # Skip pools that would shrink below 1x1 (small-input runs);
                # matches the functional pooling's identity-on-undersize rule.
                if hw >= 2:
                    self.features.append(MaxPool2d(2))
                    hw //= 2
                continue
            out_ch = max(1, int(round(item * width_mult)))
            conv = Conv2d(in_ch, out_ch, 3, 1, 1, rng=rng)
            bn = BatchNorm2d(out_ch)
            out_space = g.new_space(out_ch, name=f"conv{ci}")
            g.add_conv(f"conv{ci}", conv, bn, space, out_space, hw)
            self.features.extend([conv, bn, ReLU()])
            space, in_ch = out_space, out_ch
            ci += 1

        self.pool = GlobalAvgPool()
        logits = g.new_space(num_classes, frozen=True, name="logits")
        self.fc = Linear(in_ch, num_classes, rng=rng)
        g.add_linear("fc", self.fc, space, logits)
        g.validate()

    def forward(self, x: Tensor) -> Tensor:
        out = x
        i, n = 0, len(self.features)
        while i < n:
            layer = self.features[i]
            # Every conv-BN-ReLU triple's tail runs as one fused BN+ReLU.
            if (isinstance(layer, BatchNorm2d)
                    and i + 1 < n and isinstance(self.features[i + 1], ReLU)):
                out = layer(out, relu=True)
                i += 2
                continue
            out = layer(out)
            i += 1
        return self.fc(self.pool(out))


def vgg11(num_classes: int = 10, width_mult: float = 1.0, seed: int = 0,
          input_hw: int = 32) -> VGG:
    """VGG-11 with BN."""
    return VGG(VGG_PLANS["vgg11"], num_classes, input_hw,
               width_mult=width_mult, seed=seed, name="vgg11")


def vgg13(num_classes: int = 10, width_mult: float = 1.0, seed: int = 0,
          input_hw: int = 32) -> VGG:
    """VGG-13 with BN."""
    return VGG(VGG_PLANS["vgg13"], num_classes, input_hw,
               width_mult=width_mult, seed=seed, name="vgg13")

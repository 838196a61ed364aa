"""Core layers: Conv2d, BatchNorm2d, Linear, ReLU, max and global-average
pooling — the layers the paper's models are built from.

Every layer stores its structural dimensions as plain attributes
(``in_channels`` / ``out_channels`` / ...) which the PruneTrain surgery code
updates when channels are removed — the layer objects are *reconfigurable in
place*.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from . import init as _init
from .module import Module, Parameter


class Conv2d(Module):
    """2-D convolution over NCHW tensors.

    Bias defaults to off (every conv in the paper's models is followed by a
    BatchNorm which subsumes the bias).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            _init.conv_init(out_channels, in_channels, kernel_size,
                            kernel_size, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        #: set by :func:`repro.nn.bn_utils.fold_batchnorm`: the evaluation
        #: affine map now lives in the preceding conv's weight and bias
        self.folded = False

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        """Normalize ``x``; ``relu=True`` fuses the following rectifier into
        the same kernel (every BN+ReLU of the shipped models).  A folded
        layer passes ``x`` through (rectified when ``relu``) and refuses
        training mode, whose batch statistics the fold cannot express."""
        if self.folded:
            if self.training:
                raise RuntimeError(
                    f"{self!r} is folded into its convolution and runs in "
                    f"evaluation mode only")
            return F.relu(x) if relu else x
        return F.batch_norm(x, self.weight, self.bias, self.running_mean,
                            self.running_var, self.momentum, self.eps,
                            self.training, relu=relu)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with ``W`` shaped ``(out, in)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_init.linear_init(out_features, in_features,
                                                  rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:
        return "ReLU()"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)

    def __repr__(self) -> str:
        return f"MaxPool2d({self.kernel_size})"


class GlobalAvgPool(Module):
    """Spatial mean pooling ``(N, C, H, W) -> (N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool()"

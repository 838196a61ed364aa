"""Neural-network layer/module system and the paper's model zoo."""

from .graph import ConvNode, LinearNode, ModelGraph, ResidualPath, Space
from .layers import (BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d,
                     ReLU)
from .module import Module, Parameter
from .resnet import (BasicBlock, Bottleneck, ResNet, resnet20, resnet32,
                     resnet50_cifar, resnet50_imagenet, resnet56,
                     wide_resnet16)
from .vgg import VGG, VGG_PLANS, vgg11, vgg13

__all__ = [
    "Module", "Parameter",
    "Conv2d", "BatchNorm2d", "Linear", "ReLU", "MaxPool2d", "GlobalAvgPool",
    "ModelGraph", "Space", "ConvNode", "LinearNode", "ResidualPath",
    "ResNet", "BasicBlock", "Bottleneck",
    "resnet20", "resnet32", "resnet56", "resnet50_cifar", "resnet50_imagenet",
    "wide_resnet16",
    "VGG", "VGG_PLANS", "vgg11", "vgg13",
]

"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.data import make_synthetic
from repro.nn.resnet import ResNet
from repro.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_train():
    """Small but learnable dataset reused across training tests."""
    return make_synthetic(10, 256, hw=8, noise=0.8, seed=0, name="tiny")


@pytest.fixture(scope="session")
def tiny_val():
    return make_synthetic(10, 128, hw=8, noise=0.8, seed=1, name="tiny-val")


def sparsify_space(graph, sid, kill, factor=1e-9):
    """Test helper: multiply all weights of channels ``kill`` of space ``sid``
    (in every member conv) by ``factor`` so they fall below threshold."""
    for node in graph.writers(sid):
        node.conv.weight.data[kill] *= factor
    for node in graph.readers(sid):
        node.conv.weight.data[:, kill] *= factor


#: why a compiled step or a serving plan refuses :func:`uncapturable` models
UNRECORDED = "op input produced by an unrecorded op"


class _UncapturableResNet(ResNet):
    """A ResNet whose forward hands the stem a fresh ``Tensor`` over the
    input's array: the same values, but no recorded op produced it, so
    capture fails closed (:data:`UNRECORDED`) and every step and forward
    runs eagerly — with the plain model's numerics."""

    def forward(self, x: Tensor) -> Tensor:
        return super().forward(Tensor(x.data))


def uncapturable(model: ResNet) -> ResNet:
    """``model`` made a :class:`_UncapturableResNet` (a module-level class,
    so a forked elastic worker or a deep copy keeps it)."""
    model.__class__ = _UncapturableResNet
    return model

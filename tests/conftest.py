"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.data import make_synthetic
from repro.tensor import workspace


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def optimized_engine():
    """Pin the optimized engine — pooled buffers, fused BN+ReLU, the einsum
    conv lowering — whatever ``REPRO_*`` the CI leg exported.  For modules
    about that engine's fast paths or about compiled plans (which exist only
    on it): they test the engine they name instead of inheriting the leg's,
    where they would silently degrade or fail for an unrelated reason.
    Module-scoped, so module- and class-scoped fixtures that train or
    capture run inside the pin too."""
    with workspace.engine(pooling=True, fused_bnrelu=True,
                          conv_impl="einsum") as cfg:
        workspace.invalidate()
        yield cfg
        workspace.invalidate()


@pytest.fixture
def fresh_pool(optimized_engine):
    """The pinned optimized engine with an empty workspace pool (and no live
    plan) before and after each test."""
    workspace.invalidate()
    yield optimized_engine
    workspace.invalidate()


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

"""The eager engine: its configuration, its memory and its numerics through
a reconfiguration.

An eager step allocates fresh arrays, as NumPy does, so once the step's
outputs are dropped everything it allocated is gone but what training keeps
on purpose: the parameters' gradients and the optimizer's state.  A cache of
idle buffers keyed by shape would instead hold memory at shapes a
reconfiguration is about to retire.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.configs import QUICK, make_model
from repro.nn import resnet20
from repro.optim import SGD
from repro.prune import prune_and_reconfigure
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.workspace import EngineConfig, baseline_engine

from ..conftest import sparsify_space


class TestEngineConfig:
    """A mistyped lowering used to select the seed conv silently — and with
    it eager stepping, every capture failing closed."""

    def test_unknown_conv_impl_is_refused(self):
        for good in ("einsum", "im2col"):
            assert EngineConfig(conv_impl=good).conv_impl == good
        with pytest.raises(ValueError, match='"einsum" or "im2col"'):
            EngineConfig(conv_impl="einsun")

    def test_unknown_conv_impl_in_the_environment_fails_the_import(self):
        env = dict(os.environ, REPRO_CONV_IMPL="einsun",
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.tensor.workspace"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert 'ValueError: conv_impl must be "einsum" or "im2col"' \
            in proc.stderr and "einsun" in proc.stderr


def _vgg11_step(n: int):
    """A fresh QUICK VGG-11 at width 0.25, its optimizer and one batch."""
    model = make_model("vgg11", "cifar10s", replace(QUICK, width_mult=0.25),
                       seed=0)
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 3, QUICK.hw, QUICK.hw)).astype(np.float32)
    return model, opt, x, rng.integers(0, 10, size=n)


def _eager_step(model, opt, x, y) -> None:
    opt.zero_grad()
    logits = model(Tensor(x))
    loss = F.cross_entropy(logits, y)
    loss.backward()
    opt.step()


def test_an_eager_step_keeps_nothing(optimized_engine):
    """After one eager step with ``loss`` and ``logits`` dropped, the traced
    heap has grown by the gradients and the optimizer state the step created
    and nothing else: no staging, no interior gradient, no saved activation.
    A warm-up step at another batch size first fills whatever is built once
    per process (and would hide a shape-keyed cache at N = 32)."""
    _eager_step(*_vgg11_step(4))
    model, opt, x, y = _vgg11_step(32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _eager_step(model, opt, x, y)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept = sum(p.grad.nbytes for p in model.parameters())
    kept += sum(v.nbytes for v in opt._velocity.values())
    kept += sum(s.nbytes for s in opt._scratch.values())
    # room for the Python objects holding those arrays
    assert grown <= kept + 64 * 1024, (grown, kept)


def _sparsify_all(model, frac=0.4, seed=0):
    rng = np.random.default_rng(seed)
    g = model.graph
    for sid, sp in g.spaces.items():
        if sp.frozen:
            continue
        kill = rng.random(sp.size) < frac
        kill[0] = False
        sparsify_space(g, sid, kill)


def _train_reconfigure_train(steps: int = 3):
    """Train -> prune_and_reconfigure -> train; return final parameters."""
    rng = np.random.default_rng(3)
    model = resnet20(num_classes=6, width_mult=0.25, input_hw=8, seed=1)
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
    xb = rng.normal(size=(8, 3, 8, 8)).astype(np.float32)
    yb = rng.integers(0, 6, size=8)
    for _ in range(steps):
        _eager_step(model, opt, xb, yb)
    _sparsify_all(model)
    prune_and_reconfigure(model, opt)
    for _ in range(steps):
        _eager_step(model, opt, xb, yb)
    return [p.data.copy() for p in model.parameters()]


def test_einsum_engine_tracks_the_seed_engine_through_a_reconfiguration(
        optimized_engine):
    """Train, reconfigure (every activation shape changes) and train again,
    under the optimized engine and under the seed engine: the parameters
    agree up to the float32 reduction-order rounding of the two conv
    lowerings."""
    optimized = _train_reconfigure_train()
    with baseline_engine():
        seed = _train_reconfigure_train()
    assert len(optimized) == len(seed)
    for a, b in zip(optimized, seed):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=2e-3, atol=2e-5)

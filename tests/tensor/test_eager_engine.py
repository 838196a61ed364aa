"""The eager engine's memory.

An eager step allocates fresh arrays, as NumPy does, so once the step's
outputs are dropped everything it allocated is gone but what training keeps
on purpose: the parameters' gradients and the optimizer's state.  A cache of
idle buffers keyed by shape would instead hold memory at shapes a
reconfiguration is about to retire.
"""

import tracemalloc
from dataclasses import replace

import numpy as np

from repro.experiments.configs import QUICK, make_model
from repro.optim import SGD
from repro.tensor import Tensor
from repro.tensor import functional as F


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


def test_an_eager_step_keeps_nothing():
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

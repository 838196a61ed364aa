"""A compiled training plan owns its gradients.

Every gradient a replay hands on is a plan buffer (live until the slot's
consumer has read it) or a fresh array.  What makes that sound is pinned
here: a replay reads no plan byte it did not write this step (an arena
filled with ``0xFF`` — NaN in float32 — before every replay changes no bit
of the loss or of any gradient), and no leaf gradient a replay leaves
aliases a buffer the next replay rewrites (two replays with no
``zero_grad`` between them accumulate exactly what two eager steps do).
"""

import numpy as np
import pytest

from repro.experiments.configs import QUICK, make_model
from repro.nn import vgg11
from repro.tensor import Tensor, functional as F
from repro.tensor import compile as C


def _resnet32():
    return make_model("resnet32", "cifar10s", QUICK, seed=0)


def _batch(rng, hw, n=8):
    return (rng.standard_normal((n, 3, hw, hw)).astype(np.float32),
            rng.integers(0, 10, size=n))


def _capture(model, x, y):
    plan, loss_t, _, reason = C.capture_training_step(model, x, y)
    assert reason is None, reason
    loss_t.backward()
    model.zero_grad()
    return plan


def _grads(model):
    return [p.grad.copy() for p in model.parameters()]


def _eager_step(model, x, y):
    """Loss of one eager forward and backward (gradients accumulate)."""
    loss = F.cross_entropy(model(Tensor(x)), y)
    loss.backward()
    return loss.data.copy()


def _assert_bitwise(expected, got):
    assert len(expected) == len(got)
    for i, (a, b) in enumerate(zip(expected, got)):
        assert a.dtype == b.dtype and np.array_equal(a, b), i


#: VGG-11 at 18 and 20 pixels runs an odd map (9, 5) into a 2x2 max-pool,
#: whose planned ``dx`` has a ragged edge the kernel must zero on every call
POISONED = {
    "resnet32": (_resnet32, QUICK.hw),
    **{f"vgg11-w0.25-hw{hw}": (
        lambda hw=hw: vgg11(10, width_mult=0.25, input_hw=hw, seed=0), hw)
       for hw in (18, 20)},
}


@pytest.mark.parametrize("name", POISONED)
def test_a_poisoned_arena_changes_no_bit(name):
    """Every replay reads only plan bytes it wrote this step."""
    build, hw = POISONED[name]
    model = build()
    rng = np.random.default_rng(0)
    plan = _capture(model, *_batch(rng, hw))
    for _ in range(3):
        x, y = _batch(rng, hw)
        eager = [_eager_step(model, x, y)] + _grads(model)
        model.zero_grad()
        plan._mem.arena.fill(0xFF)
        loss, _ = plan.run(x, y)
        _assert_bitwise(eager, [loss.copy()] + _grads(model))
        model.zero_grad()


def test_two_replays_without_zero_grad_accumulate_like_eager():
    model, hw = _resnet32(), QUICK.hw
    rng = np.random.default_rng(0)
    batches = [_batch(rng, hw) for _ in range(2)]
    plan = _capture(model, *batches[0])
    eager = [_eager_step(model, x, y) for x, y in batches]
    eager += _grads(model)
    model.zero_grad()
    replayed = [plan.run(x, y)[0].copy() for x, y in batches]
    _assert_bitwise(eager, replayed + _grads(model))

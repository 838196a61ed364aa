"""A compiled training plan owns its gradients.

Every gradient a replay hands on is a plan buffer (live until the slot's
consumer has read it) or a fresh array, so replay never speaks the eager
engine's workspace-pool protocol: no ``acquire``, ``release`` or ``owns``
call in any engine setting.  What makes that sound is pinned here too: a
replay reads no plan byte it did not write this step (an arena filled with
``0xFF`` — NaN in float32 — before every replay changes no bit of the loss
or of any gradient), and no leaf gradient a replay leaves aliases a buffer
the next replay rewrites (two replays with no ``zero_grad`` between them
accumulate exactly what two eager steps do).
"""

import collections
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.configs import QUICK, make_model
from repro.nn import vgg11
from repro.prune import zero_sparsified_groups
from repro.prune.sparsity import conv_sparsity
from repro.tensor import Tensor, functional as F, sparse, workspace
from repro.tensor import compile as C

from ..conftest import sparsify_space

pytestmark = pytest.mark.usefixtures("fresh_pool")


def _vgg11():
    return make_model("vgg11", "cifar10s", replace(QUICK, width_mult=0.25),
                      seed=0)


#: name -> (model builder, input side); ``-bn-eval`` trains through batch
#: norms in evaluation mode (running statistics), whose backward a training
#: plan plans too
MODELS = {
    "resnet32": (lambda: make_model("resnet32", "cifar10s", QUICK, seed=0),
                 QUICK.hw),
    "vgg11-w0.25": (_vgg11, QUICK.hw),
    "vgg11-w0.25-bn-eval": (lambda: _vgg11().eval(), QUICK.hw),
}

#: the engine settings a training plan is captured under
SETTINGS = {
    "default": {},
    "parallel_replay": {"parallel_replay": True},
    "mem_plan-off": {"mem_plan": False},
    "fused_bnrelu-off": {"fused_bnrelu": False},
    "pooling-off": {"pooling": False},
    "sparse-gain0": {"sparse_compute": True, "sparse_min_gain": 0.0},
}


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


def _kill_half_and_publish(model):
    """Hard-zero about half the channels of every prunable space and publish
    the dead sets, so the sparse gate has live-channel kernels to probe."""
    rng = np.random.default_rng(0)
    g = model.graph
    for sid, space in g.spaces.items():
        if not space.frozen:
            kill = rng.random(space.size) < 0.5
            kill[0] = False
            sparsify_space(g, sid, kill)
    zero_sparsified_groups(g, 1e-4)
    sparse.publish([(node.conv.weight,
                     np.asarray(sp.in_sparse, dtype=bool),
                     np.asarray(sp.out_sparse, dtype=bool))
                    for node in g.active_convs()
                    for sp in (conv_sparsity(node, 1e-4),)])


def _count_pool_calls(monkeypatch):
    calls = collections.Counter()
    for name in ("acquire", "release", "owns"):
        def counted(*args, _fn=getattr(workspace.POOL, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(workspace.POOL, name, counted)
    return calls


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("name", MODELS)
def test_a_replay_makes_no_pool_call(monkeypatch, name, setting):
    """At the commit before plans owned their gradients a QUICK ResNet-32
    replay made 186-232 pool calls, depending on the setting (99 releases,
    one acquire and 101 ``owns`` under the default engine), a QUICK VGG-11
    at width 0.25 one 52-60, and one with its BNs in evaluation mode 60-68
    (each affine BN backward drew its ``dx`` from the pool)."""
    build, hw = MODELS[name]
    model = build()
    x, y = _batch(np.random.default_rng(0), hw)
    try:
        with workspace.engine(**SETTINGS[setting]):
            if SETTINGS[setting].get("sparse_compute"):
                _kill_half_and_publish(model)
            plan = _capture(model, x, y)
            calls = _count_pool_calls(monkeypatch)
            lent = workspace.POOL.lent_count
            for _ in range(2):
                plan.run(x, y)
                model.zero_grad()
            assert not calls, dict(calls)
            assert workspace.POOL.lent_count == lent
    finally:
        sparse.clear()


#: VGG-11 at 18 and 20 pixels runs an odd map (9, 5) into a 2x2 max-pool,
#: whose planned ``dx`` has a ragged edge the kernel must zero on every call
POISONED = {
    "resnet32": MODELS["resnet32"],
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
    assert plan.mem_metrics() is not None
    for _ in range(3):
        x, y = _batch(rng, hw)
        eager = [_eager_step(model, x, y)] + _grads(model)
        model.zero_grad()
        plan._mem.arena.fill(0xFF)
        loss, _ = plan.run(x, y)
        _assert_bitwise(eager, [loss.copy()] + _grads(model))
        model.zero_grad()


@pytest.mark.parametrize("setting", ["default", "parallel_replay",
                                     "mem_plan-off", "pooling-off"])
def test_two_replays_without_zero_grad_accumulate_like_eager(setting):
    build, hw = MODELS["resnet32"]
    model = build()
    rng = np.random.default_rng(0)
    batches = [_batch(rng, hw) for _ in range(2)]
    with workspace.engine(**SETTINGS[setting]):
        plan = _capture(model, *batches[0])
        eager = [_eager_step(model, x, y) for x, y in batches]
        eager += _grads(model)
        model.zero_grad()
        replayed = [plan.run(x, y)[0].copy() for x, y in batches]
        _assert_bitwise(eager, replayed + _grads(model))

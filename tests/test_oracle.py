"""The engine against an implementation it does not share.

``tests/oracle.py`` is a float64, plain-NumPy reference of every op a
shipped model runs.  Here it is held to three things: it imports nothing
from the package, its own step is the gradient of its own loss (finite
differences), and every engine op in float64 equals it to rounding.  Then
the whole-step check: one float32 **compiled** training step of each
shipped model family — QUICK ResNet-32, QUICK VGG-11 at width 0.25, the
bottleneck ResNet-50 and a ResNet-32 after a reconfiguration that removed
layers and unioned a junction — against the oracle's step: the loss, every
parameter gradient, the running statistics, and one group-lasso + momentum
SGD update (PruneTrain's Alg. 1, lines 10 and 16).
"""

import ast
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.configs import QUICK, make_model
from repro.nn import resnet20, resnet50_cifar, vgg11
from repro.optim import SGD
from repro.prune import GroupLasso, prune_and_reconfigure
from repro.tensor import Tensor
from repro.tensor import compile as C
from repro.tensor import functional as F

from . import oracle
from .conftest import sparsify_space


def rel_err(got, want) -> float:
    """``||got - want|| / ||want||`` (``||got||`` when ``want`` is zero)."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    scale = np.linalg.norm(want)
    diff = np.linalg.norm(got - want)
    return diff / scale if scale else diff


def test_the_oracle_imports_nothing_from_the_package():
    """Its only imports are NumPy and the standard library, so no engine
    kernel can reach it, directly or through another module."""
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.add(node.module.split(".")[0])
    assert imported == {"__future__", "typing", "numpy"}


# -- the oracle against itself ------------------------------------------------

def _float64(model):
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    return model


def _without_a_block(model):
    model.stages[1][1].active = False
    return model


@pytest.mark.parametrize("build", [
    lambda: _without_a_block(resnet20(5, width_mult=0.25, input_hw=8, seed=1)),
    lambda: resnet50_cifar(5, width_mult=0.125, input_hw=12, seed=1),
    lambda: vgg11(5, width_mult=0.125, input_hw=8, seed=1),
], ids=["resnet20-one-block-removed", "resnet50", "vgg11"])
def test_the_oracle_step_is_the_gradient_of_its_loss(build):
    """Along a random direction ``d`` of every parameter, the central
    difference of the oracle's loss equals ``sum(grad * d)``."""
    model = _float64(build())
    rng = np.random.default_rng(0)
    hw = model.input_hw
    x = rng.standard_normal((4, 3, hw, hw))
    y = rng.integers(0, 5, size=4)
    step = oracle.Step(model, x, y)
    params = dict(model.named_parameters())
    assert step.grads.keys() <= params.keys()
    base = {k: p.data.copy() for k, p in params.items()}
    d = {k: rng.standard_normal(v.shape) for k, v in base.items()}
    eps = 1e-8      # small enough that no ReLU input crosses zero

    def loss_at(t):
        for k, p in params.items():
            p.data = base[k] + t * d[k]
        return oracle.Step(model, x, y).loss

    numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    analytic = sum(float((g * d[k]).sum()) for k, g in step.grads.items())
    assert numeric == pytest.approx(analytic, rel=1e-5)


# -- every engine op, in float64, against the oracle's ------------------------

def _engine_op(fn, arrays, dy_seed=3):
    """Forward and backward of an engine op over float64 tensors."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*inputs)
    dy = np.random.default_rng(dy_seed).standard_normal(out.shape)
    out.backward(dy)
    return out.data, [t.grad for t in inputs], dy


def _assert_all_close(got, want):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("relu", [False, True])
def test_batch_norm_matches_the_oracle(training, relu):
    rng = np.random.default_rng(1)
    x = rng.normal(0.5, 2.0, size=(4, 3, 5, 5))
    gamma, beta = rng.normal(1.0, 0.2, 3), rng.normal(0.0, 0.2, 3)
    mean, var = rng.normal(0.0, 0.3, 3), rng.uniform(0.5, 2.0, 3)
    rm, rv = mean.copy(), var.copy()
    y, grads, dy = _engine_op(
        lambda a, g, b: F.batch_norm(a, g, b, rm, rv, 0.1, 1e-5, training,
                                     relu), (x, gamma, beta))
    y0, (rm0, rv0), cache = oracle.batchnorm_forward(
        x, gamma, beta, mean, var, 0.1, 1e-5, training)
    if relu:
        y0, mask = oracle.relu_forward(y0)
        dy = oracle.relu_backward(dy, mask)
    _assert_all_close([y, rm, rv], [y0, rm0, rv0])
    _assert_all_close(grads, oracle.batchnorm_backward(dy, cache))


@pytest.mark.parametrize("k, hw", [(2, 6), (3, 6), (2, 7), (3, 2)])
def test_max_pool_matches_the_oracle(k, hw):
    x = np.random.default_rng(2).standard_normal((2, 3, hw, hw))
    y, (dx,), dy = _engine_op(lambda t: F.max_pool2d(t, k), (x,))
    y0, cache = oracle.maxpool_forward(x, k)
    _assert_all_close([y, dx], [y0, oracle.maxpool_backward(dy, cache)])


def test_the_other_ops_match_the_oracle():
    """ReLU, add-ReLU, global average pool, linear (with and without a
    bias) and the mean cross-entropy."""
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2, 2, 3, 3, 3))
    y, (dx,), dy = _engine_op(F.relu, (a,))
    y0, mask = oracle.relu_forward(a)
    _assert_all_close([y, dx], [y0, oracle.relu_backward(dy, mask)])

    y, grads, dy = _engine_op(F.add_relu, (a, b))
    y0, mask = oracle.add_relu_forward(a, b)
    _assert_all_close([y] + grads,
                      [y0, *oracle.add_relu_backward(dy, mask)])

    y, (dx,), dy = _engine_op(F.global_avg_pool, (a,))
    y0, shape = oracle.global_avgpool_forward(a)
    _assert_all_close([y, dx], [y0, oracle.global_avgpool_backward(dy, shape)])

    x, w, bias = rng.standard_normal((5, 4)), rng.standard_normal((3, 4)), \
        rng.standard_normal(3)
    y, grads, dy = _engine_op(lambda *t: F.linear(*t), (x, w, bias))
    y0, cache = oracle.linear_forward(x, w, bias)
    _assert_all_close([y] + grads, [y0, *oracle.linear_backward(dy, cache)])
    y, grads, dy = _engine_op(lambda *t: F.linear(*t, None), (x, w))
    y0, cache = oracle.linear_forward(x, w, None)
    _assert_all_close([y] + grads,
                      [y0, *oracle.linear_backward(dy, cache)[:2]])

    targets = rng.integers(0, 4, size=5)
    logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    loss = F.cross_entropy(logits, targets)
    loss.backward()
    loss0, cache = oracle.cross_entropy_forward(logits.data, targets)
    _assert_all_close([loss.data, logits.grad],
                      [loss0, oracle.cross_entropy_backward(cache)])


# -- the whole step -----------------------------------------------------------

def _pruned_resnet32():
    """QUICK ResNet-32 after a reconfiguration that prunes channel 0 of
    every space — a junction's channel goes only because every block
    writing and reading it lost it too, the channel union — and every
    inner channel of two blocks, which removes those blocks."""
    model = make_model("resnet32", "cifar10s", QUICK, seed=0)
    graph = model.graph
    for sid, space in list(graph.spaces.items()):
        if not space.frozen:
            sparsify_space(graph, sid, [0])
    for block in ("s1b2", "s2b1"):
        sid = graph.conv_by_name(f"{block}.conv1").out_space
        sparsify_space(graph, sid, list(range(graph.spaces[sid].size)))
    rep = prune_and_reconfigure(model, threshold=1e-3, remove_layers=True,
                                zero_sparse=True)
    assert rep.removed_paths == ["s1b2", "s2b1"]
    junction = graph.conv_by_name("s2b0.proj").out_space
    assert graph.spaces[junction].size < round(64 * QUICK.width_mult)
    return model


#: model -> (its builder, the batch, the bound on every relative error).
#: Float32 rounding leaves ~1e-5 on the first three.  The bottleneck net
#: ends on 2x2 maps, so each activation of its last stage carries a
#: thirty-second of a channel's gradient at N = 8, and a ReLU input that
#: float32 rounds to the other side of zero moves whole gradients by ~1e-2
#: (the engine in float64 equals the oracle to 1e-12 on the same step).
WHOLE_STEP = {
    "resnet32": (lambda: make_model("resnet32", "cifar10s", QUICK, seed=0),
                 16, 1e-3),
    "vgg11-w0.25": (lambda: make_model(
        "vgg11", "cifar10s", replace(QUICK, width_mult=0.25), seed=0),
        16, 1e-3),
    "resnet50": (lambda: make_model("resnet50", "cifar10s", QUICK, seed=0),
                 8, 5e-2),
    "resnet32-pruned": (_pruned_resnet32, 16, 1e-3),
}


@pytest.mark.parametrize("name", list(WHOLE_STEP))
def test_a_compiled_step_computes_the_oracle_step(name):
    """A replay of a captured plan — after a first step, so the momentum
    buffers are live — gives the oracle's loss, gradients and running
    statistics; the group-lasso subgradient added to those gradients and
    the SGD update that follows give its velocities and its new
    weights."""
    build, n, bound = WHOLE_STEP[name]
    model = build()
    model.train()
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    lasso = GroupLasso(model.graph)
    rng = np.random.default_rng(0)

    def batch():
        return (rng.standard_normal((n, 3, QUICK.hw, QUICK.hw))
                .astype(np.float32), rng.integers(0, 10, size=n))

    x, y = batch()
    plan, loss, _, reason = C.capture_training_step(model, x, y)
    assert reason is None, reason
    loss.backward()
    lasso.set_coefficient(float(loss.data), 0.25)
    lasso.add_gradients()
    opt.step()
    opt.zero_grad()

    x, y = batch()
    ref = oracle.Step(model, x, y)
    params = dict(model.named_parameters())
    weights = {k: p.data.copy() for k, p in params.items()}
    velocity = {k: opt.state_for(p).astype(np.float64)
                for k, p in params.items() if opt.state_for(p) is not None}
    loss = float(plan.run(x, y)[0])
    assert loss == pytest.approx(ref.loss, rel=1e-5)
    grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    assert grads.keys() == ref.grads.keys()
    errors = {k: rel_err(grads[k], ref.grads[k]) for k in grads}
    for bn_name, bn in model.named_modules():
        if bn_name in ref.running:
            want_mean, want_var = ref.running[bn_name]
            errors[f"{bn_name}.running_mean"] = rel_err(bn.running_mean,
                                                        want_mean)
            errors[f"{bn_name}.running_var"] = rel_err(bn.running_var,
                                                       want_var)
    assert len(errors) == len(grads) + 2 * len(ref.running)

    lasso.add_gradients()
    with_lasso = {k: p.grad.copy() for k, p in params.items()
                  if p.grad is not None}
    opt.step()
    new_w, new_v = ref.update(lasso.lam, opt.lr, opt.momentum,
                              opt.weight_decay, velocity)
    for i, conv in enumerate(ref.lasso_convs):
        errors[f"{conv} lasso"] = rel_err(
            with_lasso[conv] - grads[conv], oracle.group_lasso_subgradient(
                ref.params[conv], lasso.lam, first=i == 0))
    for k in new_w:
        errors[f"{k} velocity"] = rel_err(opt.state_for(params[k]), new_v[k])
        errors[f"{k} update"] = rel_err(params[k].data - weights[k],
                                        new_w[k] - weights[k])
    worst = max(errors, key=errors.get)
    assert errors[worst] <= bound, (worst, errors[worst])

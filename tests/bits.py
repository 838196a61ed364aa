"""Bit digests of the seeded numerics a refactor must not move.

    PYTHONPATH=src python tests/bits.py [conv] [ops] [lasso] [prunetrain] \
        [layouts] [dp] [serve]

prints one ``name sha256[:16]`` line per seeded case (all seven sections
when none is named):

``conv/<case>/kernel``
    ``(y, dw, db, dx)`` of one conv through ``conv2d_forward`` /
    ``conv2d_backward`` — every form (window gather, 1x1, unrolled, span)
    x weight-gradient form x stride x N in {1, 7, 32}.
``conv/<case>/{eager,captured,planned}``
    loss and every gradient of a conv -> conv -> pool -> linear step whose
    second conv is the case, over three batches: stepped eagerly, on the
    capturing step plus two replays (``captured``), and replayed
    (``planned``: the capturing batch again, then the other two).
``ops/<case>/{eager,captured,planned}``
    the same three legs of a conv -> op -> pool -> linear step for every
    variant of the ops with planned buffers: batch-norm in training and
    evaluation mode, with and without its fused ReLU (``-fused``: the
    affine-folded formulation, named when the seed engine's ``xhat`` one ran
    beside it); ReLU; add-ReLU; and the linear head with and without a
    bias.
``ops/max_pool2d-k<k>[-ragged]/{eager,captured,planned}``
    the same three legs of a conv -> ReLU -> ``k x k`` max-pool -> pool ->
    linear step, on a map ``k`` divides and on a ragged one.
``lasso/{vgg11,r32}[-scaled]``
    ``GroupLasso.add_gradients`` on QUICK VGG-11 and ResNet-32 with some
    input and output groups zeroed (to ``+0.0`` and to ``-0.0``), into
    absent and then into pre-filled gradients, without and with
    ``per_group_size_scaling``.
``prunetrain/{eager,compiled}``, ``prunetrain/vgg11/{eager,compiled}``
    QUICK ResNet-32 and QUICK VGG-11 at width 0.25 PruneTrain, two epochs
    with a reconfiguration between them: every epoch loss, parameter and
    momentum buffer.
``layout/<model>-serial/{train,serve}``
    the three arena layouts ``test_plan_builder.py`` pins.
``layout/_r32-n<N>/train``, ``layout/vgg11-pruned/{train,forward}``
    more layouts at shapes the benchmark captures: QUICK ResNet-32
    at the grown batch N = 160 and at an odd N = 37, and a QUICK VGG-11 at
    width 0.25 after one reconfiguration, its train plan and the
    evaluation forward at N = 256.
``dp/k<K>/step<i>-n<N>[-pruned]``
    the in-process data-parallel step at K = 2 and K = 3 over a miniature
    PruneTrain schedule on a small ResNet-20 — a shrinking, odd batch, a
    reconfiguration that removes a residual block (``-pruned``: the step
    after it), then batch growth: the averaged gradients, the loss and the
    comm bytes of each step.
``serve/<model>/b{1,16}``
    the replies of the public ``ModelRegistry`` to 16 requests, sent one at
    a time (``b1``) and as one group (``b16``), for QUICK ResNet-32 dense
    and 50 %-pruned and QUICK VGG-11 at width 0.25, each with running
    statistics recalibrated on random batches; within a model the two
    lines are equal.

Only surfaces that outlive a refactor are used, so this copy of the script
runs against any tree: ``PYTHONPATH=<tree>/src python tests/bits.py``.  Run
it on the parent and on the change; the diff is empty unless the PR declares
a bit move.  No digest is committed — BLAS low bits are host-specific —
but within one run ``eager``, ``captured`` and ``planned`` of a case must
agree, which ``tests/tensor/test_bits.py`` asserts.
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.data import make_synthetic
from repro.distributed import data_parallel_step
from repro.experiments.configs import QUICK, make_dataset, make_model
from repro.nn import resnet20
from repro.nn.bn_utils import recalibrate_bn
from repro.optim import SGD
from repro.prune import GroupLasso, prune_and_reconfigure
from repro.serve import ModelRegistry
from repro.tensor import Tensor
from repro.tensor import compile as C
from repro.tensor import functional as F
from repro.tensor.ops import conv as conv_ops
from repro.train import PruneTrainConfig, PruneTrainTrainer

#: name -> (c, k, h, w, r, stride, padding); the ``dw`` form is what
#: ``dw_folds`` says of each (narrow on a large map keeps the per-sample
#: slab, wide on a small one folds) and is spelled in the name only.  The
#: stride-1 same-size ``gather`` cases have more filters than ``conv_spans``
#: admits; ``span-*`` and ``unrolled-3x3`` are the geometries that took the
#: window gather before those two forms reached them.
CASES = {
    "gather-slab-s1": (4, 26, 12, 12, 3, 1, 1),
    "gather-slab-s2": (4, 4, 8, 8, 3, 2, 1),
    "gather-slab-s1-p0": (4, 4, 8, 8, 3, 1, 0),
    "gather-fold-s1": (32, 32, 4, 4, 3, 1, 1),
    "gather-fold-s2": (16, 16, 5, 5, 3, 2, 1),
    "gather-5x5-s1": (3, 13, 6, 7, 5, 1, 2),
    "pointwise-slab-s1": (4, 4, 8, 8, 1, 1, 0),
    "pointwise-slab-s2": (4, 4, 8, 8, 1, 2, 0),
    "pointwise-fold-s1": (16, 16, 2, 2, 1, 1, 0),
    "pointwise-fold-s2": (16, 16, 4, 4, 1, 2, 0),
    "unrolled-3x3": (16, 16, 3, 3, 3, 1, 1),
    "unrolled-2x2": (6, 5, 2, 2, 3, 1, 1),
    "unrolled-1x1": (6, 5, 1, 1, 3, 1, 1),
    "unrolled-5x5-on-4x4": (3, 4, 4, 4, 5, 1, 2),
    "span-3x3": (4, 4, 8, 8, 3, 1, 1),
    "span-3x3-wide-in": (16, 6, 4, 6, 3, 1, 1),
    "span-5x5": (3, 5, 6, 7, 5, 1, 2),
}
BATCHES = (1, 7, 32)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _kernel(x, w, b, dy, stride, padding) -> str:
    y, ctx = conv_ops.conv2d_forward(x, w, b, stride, padding)
    dx, dw, db = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride,
                                          padding)
    return digest((y, dw, db, dx))


class _Net:
    """1x1 conv (the first layer) -> the conv under test, biased -> global
    average pool -> linear: the loss reads ``y``, the first conv's gradient
    reads ``dx``."""

    def __init__(self, c, w, b, stride, padding):
        rng = np.random.default_rng(1)
        self.args = (stride, padding)
        self.params = [Tensor(a.astype(np.float32), requires_grad=True)
                       for a in (rng.standard_normal((c, 3, 1, 1)) * 0.5,
                                 w, b,
                                 rng.standard_normal((4, w.shape[0])) * 0.3)]

    def __call__(self, x):
        w0, w, b, fc = self.params
        h = F.conv2d(x, w0, None, 1, 0, first_layer=True)
        return F.linear(F.global_avg_pool(F.conv2d(h, w, b, *self.args)),
                        fc, None)

    def take_grads(self):
        out = [p.grad.copy() for p in self.params]
        for p in self.params:
            p.grad = None
        return out


class _OpNet:
    """3x3 conv (the first layer) -> the op under test -> global average
    pool -> linear, biased for the ``linear-bias`` case; add-ReLU joins a
    second first-layer conv."""

    def __init__(self, case):
        rng = np.random.default_rng(2)
        self.case = case
        self.params = [Tensor(a.astype(np.float32), requires_grad=True)
                       for a in (rng.standard_normal((6, 3, 3, 3)) * 0.3,
                                 rng.standard_normal((6, 3, 3, 3)) * 0.3,
                                 1 + 0.1 * rng.standard_normal(6),
                                 0.1 * rng.standard_normal(6),
                                 rng.standard_normal((4, 6)) * 0.3,
                                 0.1 * rng.standard_normal(4))]
        self.running = [(0.1 * rng.standard_normal(6)).astype(np.float32),
                        (1 + 0.1 * rng.random(6)).astype(np.float32)]

    def __call__(self, x):
        w, w2, gamma, beta, fc, fc_b = self.params
        h = F.conv2d(x, w, None, 1, 1, first_layer=True)
        kind, *flags = self.case.split("-")
        if kind == "batch_norm":
            h = F.batch_norm(h, gamma, beta, *self.running,
                             training="train" in flags, relu="relu" in flags)
        elif kind == "relu":
            h = F.relu(h)
        elif kind == "add_relu":
            h = F.add_relu(h, F.conv2d(x, w2, None, 1, 1, first_layer=True))
        elif kind == "max_pool2d":
            h = F.max_pool2d(F.relu(h), int(flags[0][1:]))
        return F.linear(F.global_avg_pool(h), fc,
                        fc_b if "bias" in flags else None)

    def take_grads(self):
        out = [p.grad.copy() for p in self.params if p.grad is not None]
        for p in self.params:
            p.grad = None
        return out


#: every variant of the ops with planned buffers, and the max-pool at both
#: window sizes on a 6x6 map and a ragged 7x7 one
OP_CASES = [f"batch_norm-{mode}{relu}-fused"
            for mode in ("train", "eval") for relu in ("", "-relu")] + [
    "relu", "add_relu", "linear", "linear-bias"] + [
    f"max_pool2d-k{k}{edge}" for k in (2, 3) for edge in ("", "-ragged")]


def _net_digests(fresh, batches) -> dict:
    net, seen = fresh(), []
    for x, y in batches:
        loss = F.cross_entropy(net(Tensor(x)), y)
        loss.backward()
        seen += [loss.data.copy()] + net.take_grads()
    out = {"eager": digest(seen)}
    net = fresh()
    (x0, y0), rest = batches[0], batches[1:]
    plan, loss, _, reason = C.capture_training_step(net, x0, y0)
    if plan is None:
        raise RuntimeError(f"capture failed: {reason}")
    loss.backward()
    first = [loss.data.copy()] + net.take_grads()
    seen = list(first)
    for x, y in rest:
        seen += [plan.run(x, y)[0].copy()] + net.take_grads()
    out["captured"] = digest(seen)
    # the capturing batch again, now replayed
    replayed = [plan.run(x0, y0)[0].copy()] + net.take_grads()
    out["planned"] = digest(replayed + seen[len(first):])
    return out


def conv_lines():
    for name, (c, k, h, wd, r, stride, padding) in CASES.items():
        for n in BATCHES:
            rng = np.random.default_rng(n)
            w = (rng.standard_normal((k, c, r, r)) * 0.2).astype(np.float32)
            b = rng.standard_normal(k).astype(np.float32)
            x = rng.standard_normal((n, c, h, wd)).astype(np.float32)
            ho, wo = conv_ops.conv_out_size(h, wd, r, r, stride, padding)
            dy = rng.standard_normal((n, k, ho, wo)).astype(np.float32)
            case = f"conv/{name}-n{n}"
            yield f"{case}/kernel", _kernel(x, w, b, dy, stride, padding)
            batches = [(rng.standard_normal((n, 3, h, wd)).astype(np.float32),
                        rng.integers(0, 4, size=n)) for _ in range(3)]
            for leg, d in _net_digests(
                    lambda: _Net(c, w, b, stride, padding), batches).items():
                yield f"{case}/{leg}", d


def ops_lines():
    for name in OP_CASES:
        hw = 7 if name.endswith("-ragged") else 6
        for n in BATCHES:
            rng = np.random.default_rng(n)
            batches = [(rng.standard_normal((n, 3, hw, hw))
                        .astype(np.float32), rng.integers(0, 4, size=n))
                       for _ in range(3)]
            for leg, d in _net_digests(lambda: _OpNet(name), batches).items():
                yield f"ops/{name}-n{n}/{leg}", d


def _zero_groups(graph) -> None:
    """Zero every third output group of each conv to ``+0.0`` and every
    fourth input group past the first conv's to ``-0.0``."""
    for node in graph.active_convs():
        w = node.conv.weight.data
        w[::3] = 0.0
        if not graph.spaces[node.in_space].frozen:
            w[:, 1::4] *= -0.0


def lasso_lines():
    for name, model in (("vgg11", "vgg11"), ("r32", "resnet32")):
        for scaled in (False, True):
            net = make_model(model, "cifar10s", QUICK, seed=0)
            graph = net.graph
            _zero_groups(graph)
            lasso = GroupLasso(graph, per_group_size_scaling=scaled)
            lasso.set_coefficient(2.3, 0.25)
            params = [n.conv.weight for n in graph.active_convs()]
            for p in params:
                p.grad = None
            lasso.add_gradients()
            arrays = [p.grad.copy() for p in params]
            rng = np.random.default_rng(0)
            for p in params:
                p.grad = rng.standard_normal(p.data.shape).astype(
                    p.data.dtype)
            lasso.add_gradients()
            arrays += [p.grad for p in params]
            yield f"lasso/{name}{'-scaled' if scaled else ''}", \
                digest(arrays)


def _prunetrain(name, model, scale, train, val):
    for leg, compiled in (("eager", False), ("compiled", True)):
        net = make_model(model, "cifar10s", scale, seed=0)
        cfg = PruneTrainConfig(
            epochs=2, batch_size=scale.batch_size, augment=scale.augment,
            seed=0, log_every=0, penalty_ratio=0.25, reconfig_interval=1,
            threshold=None, lambda_mode="rate", zero_sparse=True,
            compile_step=compiled)
        trainer = PruneTrainTrainer(net, train, val, cfg)
        log = trainer.train()
        arrays = [np.float64([r.train_loss, r.val_acc]) for r in log.records]
        for _, p in net.named_parameters():
            arrays += [p.data, trainer.optimizer.state_for(p)]
        yield f"{name}/{leg}", digest(arrays)


def prunetrain_lines():
    train, val = make_dataset("cifar10s", QUICK, seed=0)
    yield from _prunetrain("prunetrain", "resnet32", QUICK, train, val)
    yield from _prunetrain("prunetrain/vgg11", "vgg11",
                           replace(QUICK, width_mult=0.25), train, val)


def _kill(graph, sid, channels) -> None:
    """Scale ``channels`` of space ``sid`` to below the pruning threshold."""
    for node in graph.writers(sid):
        node.conv.weight.data[channels] *= 1e-9
    for node in graph.readers(sid):
        node.conv.weight.data[:, channels] *= 1e-9


def _r32_at(n):
    def build():
        return make_model("resnet32", "cifar10s", QUICK, seed=0), QUICK.hw, n
    build.__name__ = f"_r32-n{n}"
    return build


def _pruned_vgg11():
    """QUICK VGG-11 at width 0.25 after one reconfiguration that keeps a
    different share of every prunable space, as the churn benchmark's
    epochs leave it."""
    model = make_model("vgg11", "cifar10s", replace(QUICK, width_mult=0.25),
                       seed=0)
    graph = model.graph
    for i, (sid, space) in enumerate(list(graph.spaces.items())):
        if not space.frozen:
            _kill(graph, sid, list(range(0, space.size, 3 + i % 4)))
    rep = prune_and_reconfigure(model, threshold=1e-3)
    if rep.channels_pruned == 0:
        raise RuntimeError("the vgg11 reconfiguration pruned nothing")
    return model, QUICK.hw, 32


_pruned_vgg11.__name__ = "vgg11-pruned"

#: layouts beyond the pinned ones, at shapes the benchmark captures: the
#: grown and an odd batch of ResNet-32 (train), and the pruned VGG-11 of the
#: churn run (train, and its evaluation forward at the evaluation batch)
EXTRA_LAYOUTS = ((_r32_at(160), None), (_r32_at(37), None),
                 (_pruned_vgg11, (256, False)))


def _capture_layouts(name, build, forward=None):
    """The train plan's layout line and, for ``forward=(N, row_stable)``,
    a forward plan's after it (on the training batch when N is None)."""
    from tests.tensor.test_plan_builder import _layout
    model, hw, n = build()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 3, hw, hw)).astype(np.float32)
    y = rng.integers(0, 10, size=n)
    plan, loss, _, reason = C.capture_training_step(model, x, y)
    if plan is None:
        raise RuntimeError(f"capture failed: {reason}")
    loss.backward()
    yield f"{name}/train", _layout(plan)[0]
    if forward is not None:
        fn, row_stable = forward
        if fn is not None:
            x = rng.standard_normal((fn, 3, hw, hw)).astype(np.float32)
        model.eval()
        fplan, _, reason = C.capture_forward(model, x, row_stable=row_stable)
        if fplan is None:
            raise RuntimeError(f"capture failed: {reason}")
        yield f"{name}/{'serve' if row_stable else 'forward'}", \
            _layout(fplan)[0]


def layout_lines():
    from tests.tensor.test_plan_builder import LAYOUTS
    # "-serial": these lines keep the names they had when a parallel
    # layout was recorded beside each, so outputs diff across trees
    for build, (_, serve) in LAYOUTS.items():
        yield from _capture_layouts(
            f"layout/{build.__name__}-serial", build,
            None if serve is None else (None, True))
    for build, forward in EXTRA_LAYOUTS:
        yield from _capture_layouts(f"layout/{build.__name__}", build,
                                    forward)


#: (global batch, reconfigure before the step) per data-parallel step
DP_SCHEDULE = ((24, False), (17, False), (17, False), (17, True),
               (32, False), (32, False))


def _dp_prune(model, opt) -> None:
    """Kill channel 0 of every prunable space and all of one residual
    block's inner channels, then reconfigure: channels and a layer go."""
    graph = model.graph

    for sid, space in list(graph.spaces.items()):
        if not space.frozen:
            _kill(graph, sid, [0])
    sid = graph.conv_by_name("s2b1.conv1").out_space
    _kill(graph, sid, list(range(graph.spaces[sid].size)))
    rep = prune_and_reconfigure(model, opt, threshold=1e-3,
                                remove_layers=True, zero_sparse=True)
    if not (rep.channels_pruned > 0 and rep.removed_layers > 0):
        raise RuntimeError("the dp schedule's reconfiguration pruned nothing")


def dp_lines():
    data = make_synthetic(10, 32, hw=8, noise=0.8, seed=0)
    for k in (2, 3):
        model = resnet20(10, width_mult=0.25, input_hw=8, seed=3)
        model.train()
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9,
                  weight_decay=5e-4)
        for i, (n, prune) in enumerate(DP_SCHEDULE):
            if prune:
                _dp_prune(model, opt)
            res, _ = data_parallel_step(model, data.x[:n], data.y[:n],
                                        workers=k)
            arrays = [np.float64([res.loss, res.comm_bytes_per_worker])]
            arrays += [p.grad for p in model.parameters()]
            yield (f"dp/k{k}/step{i}-n{n}{'-pruned' if prune else ''}",
                   digest(arrays))
            opt.step()


def _served_r32(prune):
    model = make_model("resnet32", "cifar10s", QUICK, seed=3)
    if prune:
        rng = np.random.default_rng(0)
        for sid, space in list(model.graph.spaces.items()):
            if not space.frozen:
                kill = rng.random(space.size) < 0.5
                kill[0] = False
                _kill(model.graph, sid, np.flatnonzero(kill))
        if prune_and_reconfigure(model).channels_pruned == 0:
            raise RuntimeError("the served r32 reconfiguration pruned nothing")
    return model


#: name -> builder of the served models' ``serve`` lines
SERVED = {
    "r32-dense": lambda: _served_r32(False),
    "r32-pruned": lambda: _served_r32(True),
    "vgg11-w0.25": lambda: make_model(
        "vgg11", "cifar10s", replace(QUICK, width_mult=0.25), seed=3),
}


def serve_lines():
    rng = np.random.default_rng(0)
    hw = QUICK.hw
    for name, build in SERVED.items():
        model = build()
        recalibrate_bn(model, [rng.standard_normal((32, 3, hw, hw))
                               .astype(np.float32) for _ in range(2)])
        registry = ModelRegistry(max_models=1)
        registry.register_model(name, model)
        x = rng.standard_normal((16, 3, hw, hw)).astype(np.float32)
        b1 = [registry.run(name, x[i:i + 1]) for i in range(len(x))]
        yield f"serve/{name}/b1", digest([np.concatenate(b1)])
        yield f"serve/{name}/b16", digest([registry.run(name, x)])
        registry.clear()


SECTIONS = {"conv": conv_lines, "ops": ops_lines, "lasso": lasso_lines,
            "prunetrain": prunetrain_lines, "layouts": layout_lines, "dp": dp_lines, "serve": serve_lines}


def lines(sections=tuple(SECTIONS)):
    for section in sections:
        yield from SECTIONS[section]()


if __name__ == "__main__":
    # the layouts section imports the pinned builders from the test module
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    for name, value in lines(sys.argv[1:] or tuple(SECTIONS)):
        print(name, value)

"""The plan builder binds kernels it does not define.

Guards on that design: every op but the conv is one table row, a row
alone runs an op eager, captured, replayed and planned alike (an op with
neither a row nor a builder fails capture closed), and every row is one a
shipped model runs; the builder has two drivers and ``functional`` two,
the only node and record makers in the package; ``_PlanBuilder`` contains
no NumPy arithmetic; and rebinding the builder to shared kernels moved no
byte of any plan's arena — the layouts below were recorded at the commit
before the kernels were shared.
"""

import ast
import collections
import hashlib
import inspect
import json
import pathlib

import numpy as np
import pytest

import repro
from repro.experiments.configs import QUICK, make_model
from repro.nn import resnet50_cifar, vgg11, vgg13
from repro.prune import GatedPathRunner
from repro.tensor import Tensor, no_grad
from repro.tensor import compile as C
from repro.tensor import functional as F
from repro.tensor import tensor as tensor_mod
from repro.tensor.ops.table import OPS, Op


# -- an op is one table row -----------------------------------------------------

def _leaky_fwd(x, slope, save, bufs):
    mask = x > 0
    return np.where(mask, x, x * np.float32(slope)), mask


def _leaky_bwd(g, mask, slope, bufs):
    return (np.where(mask, g, g * np.float32(slope)),)


class _ToyNet:
    """conv -> op under test -> global average pool -> linear (biased when
    asked); ``op(net, h, x)`` may use the net's BN parameters and a second
    first-layer conv of ``x``."""

    def __init__(self, op, bias=False):
        rng = np.random.default_rng(0)
        self.op = op
        self.w, self.w2, self.gamma, self.beta, self.fc, self.fc_b = [
            Tensor(a.astype(np.float32), requires_grad=True)
            for a in (rng.standard_normal((6, 3, 3, 3)) * 0.3,
                      rng.standard_normal((6, 3, 3, 3)) * 0.3,
                      1 + 0.1 * rng.standard_normal(6),
                      0.1 * rng.standard_normal(6),
                      rng.standard_normal((4, 6)) * 0.3,
                      0.1 * rng.standard_normal(4))]
        self.bias = bias
        self.running = [(0.1 * rng.standard_normal(6)).astype(np.float32),
                        (1 + 0.1 * rng.random(6)).astype(np.float32)]

    def __call__(self, x):
        h = self.op(self, F.conv2d(x, self.w, None, 1, 1, first_layer=True),
                    x)
        return F.linear(F.global_avg_pool(h), self.fc,
                        self.fc_b if self.bias else None)

    def grads(self):
        params = (self.w, self.w2, self.gamma, self.beta, self.fc, self.fc_b)
        out = [p.grad.copy() for p in params if p.grad is not None]
        for p in params:
            p.grad = None
        return out


def _toy_batch():
    rng = np.random.default_rng(1)
    return (rng.standard_normal((5, 3, 6, 6)).astype(np.float32),
            rng.integers(0, 4, size=5))


def _bn(training, relu):
    return lambda net, h, x: F.batch_norm(h, net.gamma, net.beta,
                                          *net.running, training=training,
                                          relu=relu)


def _add_relu(net, h, x):
    return F.add_relu(h, F.conv2d(x, net.w2, None, 1, 1, first_layer=True))


#: case -> (kind, op, head bias): a toy row that plans no buffers, and every
#: row that plans some, in each variant ("-fused" names the affine-folded
#: batch-norm, which was one of two formulations when the cases were named)
ROW_CASES = {
    "leaky": ("leaky", lambda net, h, x: F.apply_op("leaky", (h,), 0.1),
              False),
    **{f"bn-{mode}{'-relu' if relu else ''}-fused":
       ("batch_norm", _bn(mode == "train", relu), False)
       for mode in ("train", "eval") for relu in (False, True)},
    "relu": ("relu", lambda net, h, x: F.relu(h), False),
    "add_relu": ("add_relu", _add_relu, False),
    "linear": ("linear", lambda net, h, x: h, False),
    "linear-bias": ("linear", lambda net, h, x: h, True),
}


def _assert_row_runs_alike(monkeypatch, case):
    """Eager, the capturing step, a replay and a timed replay agree bit for
    bit, and the op shows up in ``replay_timed`` under its kind."""
    kind, op, bias = ROW_CASES[case]
    monkeypatch.setitem(OPS, "leaky", Op(_leaky_fwd, _leaky_bwd, (True,)))
    net = _ToyNet(op, bias)
    x, y = _toy_batch()
    loss = F.cross_entropy(net(Tensor(x)), y)
    loss.backward()
    eager = [loss.data.copy()] + net.grads()
    plan, loss_t, _, reason = C.capture_training_step(net, x, y)
    assert reason is None, reason
    loss_t.backward()
    captured = [loss_t.data.copy()] + net.grads()
    loss_r, _ = plan.run(x, y)
    replayed = [loss_r.copy()] + net.grads()
    loss_p, _, seconds = plan.replay_timed(x, y)
    timed = [loss_p.copy()] + net.grads()
    for other in (captured, replayed, timed):
        assert len(other) == len(eager)
        for a, b in zip(eager, other):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    kinds = [(kind_, phase) for kind_, phase, _ in seconds]
    assert (kind, "fwd") in kinds and (kind, "bwd") in kinds


def test_a_table_row_alone_makes_an_op(monkeypatch):
    """A row the builder has never heard of is enough to plan an op."""
    _assert_row_runs_alike(monkeypatch, "leaky")


@pytest.mark.parametrize("case", [c for c in ROW_CASES if c != "leaky"])
def test_every_buffer_planning_row_runs_alike(monkeypatch, case):
    _assert_row_runs_alike(monkeypatch, case)


@pytest.mark.parametrize("bias", [False, True])
def test_a_row_stable_linear_is_batch_one_eager_row_by_row(bias):
    net = _ToyNet(lambda net, h, x: h, bias)
    x, _ = _toy_batch()
    plan, _, reason = C.capture_forward(net, x, row_stable=True)
    assert reason is None, reason
    out = plan.run_forward(x)
    with no_grad():
        for i in range(len(x)):
            assert np.array_equal(out[i:i + 1],
                                  net(Tensor(x[i:i + 1])).data), i


def test_an_op_with_neither_row_nor_builder_fails_capture_closed():
    def mystery(net, t, x):
        out = Tensor._make(t.data * 2, (t,), lambda g: t._accumulate(g * 2))
        tensor_mod._TAPE.record("mystery", (t,), out, None)
        return out

    x, y = _toy_batch()
    fallbacks = C.STATS.fallbacks
    plan, loss_t, _, reason = C.capture_training_step(_ToyNet(mystery), x, y)
    assert plan is None and reason == "no plan builder for op 'mystery'"
    assert C.STATS.fallbacks == fallbacks + 1
    loss_t.backward()                   # the eager step still completes


# -- two drivers, no arithmetic in the builder ------------------------------------

def test_only_the_conv_and_the_loss_have_builders_of_their_own():
    """Every other op is driven from its table row by ``_from_row``."""
    tree = ast.parse(inspect.getsource(C._PlanBuilder))
    builders = {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_build_")}
    assert builders == {"_build_conv2d", "_build_cross_entropy"}


def test_only_apply_op_and_conv2d_make_nodes_or_records():
    """Nothing under ``src/repro`` builds a graph node or writes a capture
    record but the two functional drivers: the eager wrappers of table ops
    are thin ``apply_op`` calls, and ``Tensor`` has no ops of its own."""
    root = pathlib.Path(repro.__file__).parent
    makers = set()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root.parent).with_suffix("")
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        ast.unparse(node.func) == "Tensor._make"
                        or ast.unparse(node.func).endswith("_TAPE.record")):
                    makers.add((module.as_posix(), getattr(top, "name", None)))
    assert makers == {("repro/tensor/functional", "apply_op"),
                      ("repro/tensor/functional", "conv2d")}


def _recorded_kinds(run):
    with C.Tape() as tape:
        run(tape)
    return {rec.kind for rec in tape.records}


def _training_step(model, hw):
    def run(tape):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, hw, hw)).astype(np.float32)
        loss = F.cross_entropy(model(tape.input(x)), rng.integers(0, 10, 4))
        loss.backward()
    return run


def test_every_row_is_run_by_a_shipped_model():
    """The table holds the ops the paper's models run and nothing else:
    a ResNet-32 and a VGG-11 training step, plus the gating runner's
    forward, record every row."""
    kinds = _recorded_kinds(_training_step(_r32()[0], QUICK.hw))
    kinds |= _recorded_kinds(_training_step(
        vgg11(10, width_mult=0.25, input_hw=16, seed=0), 16))
    model = resnet50_cifar(10, width_mult=0.25, input_hw=8, seed=0)
    graph = model.graph
    path = next(iter(graph.paths.values()))
    runner = GatedPathRunner(graph, path)
    cin = graph.spaces[graph.conv_by_name(path.conv_names[0]).in_space].size
    x = np.zeros((2, cin, 8, 8), np.float32)
    kinds |= _recorded_kinds(lambda tape: runner.forward(tape.input(x)))
    assert kinds == set(OPS) | {"conv2d"}


def test_plan_builder_holds_no_numpy_arithmetic():
    """The only ``np.*`` names inside ``_PlanBuilder`` allocate or annotate;
    a kernel restated there is a kernel that can drift from eager."""
    tree = ast.parse(inspect.getsource(C._PlanBuilder))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert used <= {"empty", "zeros", "ndarray", "dtype"}, sorted(used)


def test_the_eager_conv_drives_kernels_it_does_not_restate():
    """``ops/conv.py`` states each conv form once: GEMMs and reductions
    (``np.matmul``, ``@``, ``np.add.reduce``, ``.sum(``) appear only in the
    form classes and the ``dw`` helper they share;
    ``conv2d_forward`` / ``conv2d_backward`` / ``release_ctx`` build a kernel
    set and call it — no NumPy call, no string-kind or ``ctx[0]`` dispatch.
    At the parent of the commit that made eager a driver there were 39 such
    sites, 19 of them outside ``ConvKernels`` (7 in ``conv2d_backward``
    alone); there were 19 after it, the span form added its two GEMMs (its
    ``dw`` goes through ``_DwGemm``) and deleting the seed im2col lowering
    took its four away."""
    from repro.tensor.ops import conv as conv_ops
    tree = ast.parse(inspect.getsource(conv_ops))
    owners, drivers = {}, {}
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        if top.name in ("conv2d_forward", "conv2d_backward", "release_ctx"):
            drivers[top.name] = top
        for node in ast.walk(top):
            call = isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and (
                    ast.unparse(node.func) in ("np.matmul", "np.add.reduce")
                    or node.func.attr == "sum")
            if call or (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.MatMult)):
                owners[top.name] = owners.get(top.name, 0) + 1
    forms = {cls.__name__ for cls in conv_ops.FORMS.values()}
    assert set(owners) <= forms | {"ConvKernels", "_DwGemm"}
    assert forms <= set(owners) and sum(owners.values()) <= 17, owners
    assert len(drivers) == 3
    for name, fn in drivers.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                assert not ast.unparse(node.func).startswith("np."), name
            if isinstance(node, ast.Subscript):
                assert "ctx" not in ast.unparse(node.value), name
            if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    for c in ast.walk(node)):
                assert "ctx" not in ast.unparse(node), name


def test_a_plan_does_not_keep_its_builder_alive():
    """The conv kernels a plan binds hold buffers, not the ``alloc`` that
    supplied them: the builder's closes over the builder, the tape and with
    it every activation of the capturing step, which must all die with the
    build by reference count (no collector pass), or arenas of invalidated
    plans pile up until one runs."""
    import gc
    net = _ToyNet(lambda net, h, x: F.relu(h))
    x, y = _toy_batch()
    gc.collect()
    gc.disable()
    try:
        plan, loss_t, _, reason = C.capture_training_step(net, x, y)
        assert reason is None, reason
        loss_t.backward()
        del loss_t
        alive = {type(o).__name__ for o in gc.get_objects()}
        assert not alive & {"_PlanBuilder", "Tape"}
    finally:
        gc.enable()


# -- no byte of any arena moved ---------------------------------------------------

def _layout(plan):
    """(digest over mem_metrics() and the ordered slab (tag, shape, dtype,
    offset) list, arena bytes, aliased buffers, slab count).

    The recorded digests were taken while the report also carried
    ``external_sink_bytes``, bytes of gradient destinations bound outside
    the arena, which was 0.0 on every plan here (nothing bound them); the
    digest still includes that 0.0 so the recordings keep pinning the same
    layouts."""
    mem = plan._mem
    slabs = [(s.tag, list(s.shape), s.dtype.str, int(s.root().offset))
             for s in mem.slabs]
    metrics = {"external_sink_bytes": 0.0, **plan.mem_metrics()}
    blob = json.dumps([sorted(metrics.items()), slabs])
    return (hashlib.sha256(blob.encode()).hexdigest()[:16],
            int(mem.arena_bytes), int(mem.alias_buffers), len(slabs))


def _r32():
    return make_model("resnet32", "cifar10s", QUICK, seed=0), QUICK.hw, 32


def _vgg13():
    return vgg13(10, width_mult=0.5, input_hw=16, seed=0), 16, 32


def _r50():         # over half 1x1 convs, stride 1 and 2
    return resnet50_cifar(10, width_mult=0.25, input_hw=8, seed=0), 8, 8


#: recorded at the parent of the commit that moved the kernels out of the
#: builder: model -> layout of the train plan and, where given, of the
#: row-stable forward plan.  The ``_vgg13`` and ``_r50`` rows
#: were re-recorded when convs on maps smaller than their window took the
#: unrolled form (four of VGG-13's ten convs, seven of this ResNet-50's 53):
#: those convs keep ``T`` and the restaged input from forward to backward and
#: request no column tensor, so the train arenas grew from 16662528
#: and 4141056 bytes.  Both ``_r32`` rows and the ``_r50`` row were re-recorded
#: when narrow same-size convs took the span form and maps *equal* to the
#: window the unrolled one (20 + 9 of this ResNet-32's 33 convs, 6 of the
#: ResNet-50's 53): a span conv's column tensors are ``Wp/Wo`` wider and its
#: gathered ``dy`` lives through ``dw`` and ``dx``, so the ResNet-32 arenas
#: grew from 4712448 (train) and 1367040 (serving) bytes.  The ``_vgg13`` rows did not move: every conv there keeps its form.
#: Every train layout was re-recorded when the pools' backwards stopped
#: drawing ``dx`` from the workspace pool: each max-pool and the global
#: average pool plans its ``dx`` as one more slab (ResNet-32 536 -> 537,
#: VGG-13 140 -> 145, ResNet-50 573 -> 574), packed into the bytes the arenas
#: already had — arena sizes and aliased buffers did not move, nor did any
#: serving layout.
LAYOUTS = {
    _r32: (("cf403b35e0c5704b", 6527232, 15, 537),
           ("a7acf8d8f6e1f63e", 1648128, 0, 150)),
    _vgg13: (("ff0ee4ac87719a54", 21037056, 0, 145), None),
    _r50: (("36e16060616b09c9", 5099520, 16, 574),
           ("a6e71bb97bd670f7", 621568, 0, 124)),
}


@pytest.mark.parametrize("build", list(LAYOUTS), ids=lambda v: v.__name__)
def test_arena_layouts_are_the_recorded_ones(build):
    model, hw, n = build()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 3, hw, hw)).astype(np.float32)
    y = rng.integers(0, 10, size=n)
    train, serve = LAYOUTS[build]
    plan, loss_t, _, reason = C.capture_training_step(model, x, y)
    assert reason is None, reason
    loss_t.backward()
    assert _layout(plan) == train
    if serve is not None:
        model.eval()
        fplan, _, reason = C.capture_forward(model, x, row_stable=True)
        assert reason is None, reason
        assert _layout(fplan) == serve


# -- which form a layer got ---------------------------------------------------------

def _conv_forms(build):
    model, hw, n = build()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 3, hw, hw)).astype(np.float32)
    plan, loss_t, _, reason = C.capture_training_step(
        model, x, rng.integers(0, 10, size=n))
    assert reason is None, reason
    loss_t.backward()
    return plan.conv_forms()


def test_plans_report_the_form_of_every_conv():
    """VGG-13 (w0.5, hw16 — the ``dense_vgg13_wide`` benchmark model) runs
    16/16/8/8/4/4-pixel maps through the window gather (32 filters and more:
    too many for the span form) and its 2x2 and 1x1 tail unrolled, the list
    it had before the span form existed; QUICK ResNet-32 runs its 6- and
    12-filter stages as span convs, its 3x3-map stage unrolled, and keeps
    the window gather for the two strided convs."""
    forms = _conv_forms(_vgg13)
    assert [f[-1] for f in forms] == ["gather"] * 6 + ["unrolled"] * 4
    assert [f[0][2:] for f in forms[6:]] == [(2, 2)] * 2 + [(1, 1)] * 2
    assert forms[6] == ((32, 128, 2, 2), (256, 128, 3, 3), 1, 1, "unrolled")
    r32 = _conv_forms(_r32)
    count = collections.Counter(f[-1] for f in r32)
    assert count == {"span": 20, "unrolled": 9, "gather": 2, "pointwise": 2}
    assert all(f[2] == 2 for f in r32 if f[-1] == "gather")
    assert all(f[0][2:] == (3, 3) for f in r32 if f[-1] == "unrolled")

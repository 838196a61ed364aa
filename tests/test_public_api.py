"""Public API surface: everything the README documents must import and have
docstrings, every ``REPRO_*`` switch must be in the README's table, and the
``workspace.config`` namespace the benchmark still writes is read by
nothing — a guard against silent API drift."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.tensor", "repro.tensor.functional",
    "repro.nn", "repro.nn.graph", "repro.nn.bn_utils",
    "repro.data", "repro.optim",
    "repro.prune",
    "repro.costmodel",
    "repro.distributed",
    "repro.train",
    "repro.io", "repro.analysis",
    "repro.experiments",
]

PUBLIC_NAMES = {
    "repro.tensor": ["Tensor", "no_grad"],
    "repro.nn": ["Module", "Parameter", "Conv2d", "BatchNorm2d", "Linear",
                 "ModelGraph", "resnet20", "resnet32", "resnet56",
                 "resnet50_cifar", "resnet50_imagenet", "wide_resnet16",
                 "vgg11", "vgg13"],
    "repro.data": ["Dataset", "DataLoader", "Augmenter", "make_synthetic",
                   "cifar10s", "cifar100s", "imagenet_s"],
    "repro.optim": ["SGD", "StepLR", "ConstantLR", "milestones_for"],
    "repro.prune": ["GroupLasso", "prune_and_reconfigure",
                    "space_keep_masks", "zero_sparsified_groups",
                    "ChannelTracker", "GatedPathRunner", "UnionPathRunner",
                    "density_report", "junctions"],
    "repro.costmodel": ["inference_flops", "training_flops_per_sample",
                        "MemoryModel", "iteration_memory_bytes",
                        "bn_traffic_bytes", "ring_allreduce_bytes",
                        "DeviceModel", "iteration_time", "epoch_time",
                        "V100", "GTX_1080TI"],
    "repro.distributed": ["ring_allreduce", "data_parallel_step",
                          "DynamicBatchAdjuster"],
    "repro.train": ["Trainer", "TrainerConfig", "PruneTrainTrainer",
                    "PruneTrainConfig", "SSLTrainer", "OneTimeTrainer",
                    "AMCLikePruner", "fine_tune", "RunLog"],
    "repro.io": ["save_checkpoint", "load_checkpoint"],
    "repro.analysis": ["summarize", "summary_table"],
    "repro.experiments": ["SMOKE", "QUICK", "PAPER", "Runs", "get_runs",
                          "make_model", "make_dataset"],
}


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
def test_module_imports_and_documented(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, \
        f"{modname} lacks a module docstring"


@pytest.mark.parametrize("modname", sorted(PUBLIC_NAMES))
def test_public_names_exist(modname):
    mod = importlib.import_module(modname)
    for name in PUBLIC_NAMES[modname]:
        assert hasattr(mod, name), f"{modname}.{name} missing"


@pytest.mark.parametrize("modname", sorted(PUBLIC_NAMES))
def test_public_callables_have_docstrings(modname):
    mod = importlib.import_module(modname)
    for name in PUBLIC_NAMES[modname]:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{modname}.{name} lacks a docstring"


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


#: every ``REPRO_*`` variable ``src/`` reads.  A new one needs a row in the
#: README's switch table and a line here — the configuration lattice the CI
#: matrix has to keep honest grows with each.
ENV_SWITCHES = {"REPRO_COMPILE_STEP"}


def test_switch_lattice_is_closed():
    root = pathlib.Path(__file__).resolve().parents[1]
    read = set()
    for path in (root / "src").rglob("*.py"):
        read.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert read == ENV_SWITCHES
    table = [line for line in (root / "README.md").read_text().splitlines()
             if line.startswith("|")]
    for name in ENV_SWITCHES:
        assert any(f"`{name}`" in row for row in table), \
            f"{name} has no row in README's switch table"


#: every setting a training or serving caller can pass, by owner.  A knob
#: that no shipped caller varies is a constant in its module instead; a new
#: one means editing this pin.
CONFIG_SURFACE = {
    "repro.train.TrainerConfig": (
        "epochs", "batch_size", "lr", "momentum", "weight_decay",
        "lr_milestone_fractions", "lr_gamma", "workers", "augment",
        "eval_batch", "bn_recal_batches", "seed", "log_every", "profile",
        "checkpoint_every", "checkpoint_dir", "checkpoint_keep",
        "compile_step", "dist_engine", "dist_heartbeat_timeout",
        "dist_fault_plan"),
    "repro.train.PruneTrainConfig": (
        "penalty_ratio", "reconfig_interval", "threshold", "lambda_scale",
        "lambda_mode", "decay_budget", "remove_layers", "zero_sparse",
        "per_group_size_scaling"),
    "repro.train.AMCLikeConfig": (
        "target_inference_ratio", "finetune_epochs", "max_rounds",
        "pretrain_epochs"),
    "repro.costmodel.MemoryModel": ("capacity_bytes",),
    "repro.distributed.DynamicBatchAdjuster": (
        "memory_model", "granularity", "max_batch", "lr_rule", "history"),
    "repro.data.Augmenter": ("flip", "max_shift"),
    "repro.serve.ServedModel": ("name", "model"),
    "repro.serve.ModelRegistry": ("max_models",),
    "repro.serve.InferenceServer": (
        "registry", "max_batch", "latency_budget", "clock"),
    "repro.serve.BatcherConfig": ("max_batch", "latency_budget"),
}


def test_configuration_surface_is_pinned():
    """Dataclasses list their own fields (a config subclass only those it
    adds to ``TrainerConfig``); other classes their ``__init__`` parameters."""
    from repro.train import TrainerConfig
    inherited = {f.name for f in dataclasses.fields(TrainerConfig)}
    for qualname, expected in CONFIG_SURFACE.items():
        modname, name = qualname.rsplit(".", 1)
        cls = getattr(importlib.import_module(modname), name)
        if not dataclasses.is_dataclass(cls):
            got = tuple(inspect.signature(cls.__init__).parameters)[1:]
        elif cls is TrainerConfig:
            got = tuple(f.name for f in dataclasses.fields(cls))
        else:
            got = tuple(f.name for f in dataclasses.fields(cls)
                        if f.name not in inherited)
        assert got == expected, qualname


def _workspace_uses(tree, name="config", module_scope=False):
    """Lines of ``tree`` that touch ``workspace.<name>`` — import it, or
    name it as an attribute of the workspace module (``ws.config``,
    ``repro.tensor.workspace.config``, ``getattr(ws, "config")``), whatever
    names the module imported the workspace as.  ``module_scope``: the tree
    is ``workspace.py`` itself, where any load of ``name`` counts."""
    ws_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ws_names.update(a.asname or a.name for a in node.names
                            if a.name == "workspace")
        elif isinstance(node, ast.Import):
            ws_names.update(a.asname for a in node.names
                            if a.asname and a.name.endswith(".workspace"))

    def is_workspace(expr):
        return ((isinstance(expr, ast.Name) and expr.id in ws_names)
                or (isinstance(expr, ast.Attribute)
                    and expr.attr == "workspace"))

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("workspace") and \
                    any(a.name == name for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute):
            if node.attr == name and is_workspace(node.value):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                    and len(node.args) > 1 and is_workspace(node.args[0])
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == name):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name):
            if module_scope and node.id == name and \
                    isinstance(node.ctx, ast.Load):
                lines.append(node.lineno)
    return lines


def test_nothing_reads_the_inert_engine_config():
    """``workspace.config`` is a plain namespace kept only for
    ``benchmarks/e2e``'s ladder, which writes ``mem_plan``,
    ``parallel_replay`` and ``sparse_compute`` on it: no module of ``src/``
    reads it, and writing any of them leaves a live plan valid, its arena
    intact and its replay bit for bit the same."""
    root = pathlib.Path(__file__).resolve().parents[1] / "src"
    reads = {}
    for path in root.rglob("*.py"):
        rel = path.relative_to(root).as_posix()
        lines = _workspace_uses(ast.parse(path.read_text()),
                                module_scope=rel == "repro/tensor/workspace.py")
        if lines:
            reads[rel] = lines
    assert reads == {}
    # the guard sees every spelling it claims to
    probe = ast.parse("from ..tensor import workspace as _ws\n"
                      "from .workspace import config as c\n"
                      "import repro.tensor.workspace as w\n"
                      "on = _ws.config.mem_plan\n"
                      "w.config.sparse_compute = True\n"
                      "getattr(_ws, 'config')\n"
                      "repro.tensor.workspace.config\n"
                      "other.config.x = 1\n"
                      "_ws.configure()\n")
    assert sorted(_workspace_uses(probe)) == [2, 4, 5, 6, 7]
    assert _workspace_uses(ast.parse("config = 1\nx = config\n"),
                           module_scope=True) == [2]

    from repro.nn import resnet20
    from repro.tensor import compile as C
    from repro.tensor import workspace
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    y = np.arange(4)
    model = resnet20(10, width_mult=0.25, input_hw=8, seed=0)
    plan, loss_t, _, reason = C.capture_training_step(model, x, y)
    assert reason is None, reason
    loss_t.backward()
    arena, metrics = plan._mem.arena, plan.mem_metrics()
    before = plan.run(x, y)[0].copy()
    cfg = workspace.config
    saved = vars(cfg).copy()
    try:
        cfg.mem_plan, cfg.parallel_replay, cfg.sparse_compute = \
            False, True, True
        assert plan.invalid_reason() is None
        assert plan._mem.arena is arena and plan.mem_metrics() == metrics
        assert np.array_equal(plan.run(x, y)[0], before)
    finally:
        vars(cfg).update(saved)


def test_nothing_calls_the_inert_invalidate():
    """``workspace.invalidate()`` is a no-op kept only for
    ``benchmarks/e2e``, which calls it after its ladder: a plan retires
    with its own model (``Module.invalidate_plans``), so no module of
    ``src/`` or ``tests/`` names the process-wide one."""
    root = pathlib.Path(__file__).resolve().parents[1]
    uses = {}
    for path in [*root.joinpath("src").rglob("*.py"),
                 *root.joinpath("tests").rglob("*.py")]:
        lines = _workspace_uses(ast.parse(path.read_text()), "invalidate")
        if lines:
            uses[path.relative_to(root).as_posix()] = lines
    assert uses == {}
    probe = ast.parse("from repro.tensor import workspace\n"
                      "from repro.tensor.workspace import invalidate\n"
                      "workspace.invalidate()\n"
                      "model.invalidate_plans()\n")
    assert _workspace_uses(probe, "invalidate") == [2, 3]


#: ``PROFILER.summary()``'s counter entries and how many keys each reports
SUMMARY_LAYOUT = {"_plans": 6, "_memplan": 8, "_comm": 5}


def test_counters_keep_the_names_the_benchmark_reads():
    """``benchmarks/e2e/wl_train.py`` reads engine counters by attribute,
    and the summary's counter entries are what ``profile=True`` logs.
    ``benchmarks/e2e/layer_probes.py`` also calls
    ``sparse.publish``/``sparse.clear`` and enters
    ``workspace.baseline_engine()``: they must stay callable and without
    effect on plans or on eager bits."""
    import repro.train  # noqa: F401  (imports every counter set)
    from repro.profiler import PROFILER
    from repro.tensor import compile as tcompile
    from repro.tensor import memplan, sparse, workspace
    read = {"compile.STATS": (tcompile.STATS, ["fallbacks"]),
            "memplan.STATS": (memplan.STATS, ["plans", "solve_seconds"]),
            "workspace.POOL.stats": (workspace.POOL.stats, [
                "hits", "misses", "bytes_allocated", "invalidations",
                "evictions"])}
    for owner, (counters, names) in read.items():
        for name in names:
            assert isinstance(getattr(counters, name), (int, float)), \
                f"{owner}.{name}"
    layout = {key: len(entry) for key, entry in PROFILER.summary().items()
              if key.startswith("_")}
    assert layout == SUMMARY_LAYOUT

    from repro.nn import resnet20
    from repro.tensor import Tensor
    from repro.tensor import functional as F
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    model = resnet20(10, width_mult=0.25, input_hw=8, seed=0)
    plan, loss_t, _, reason = tcompile.capture_training_step(
        model, x, np.arange(4))
    assert reason is None, reason
    loss_t.backward()
    gen = model.plan_generation
    sparse.publish([(np.zeros((2, 2, 3, 3), np.float32),
                     np.zeros(2, bool), np.ones(2, bool))])
    sparse.clear()
    assert model.plan_generation == gen and plan.invalid_reason() is None

    # baseline_engine(), which the ladder's "seed" rung enters, is inert: a
    # context manager that moves no eager bit

    def eager_step():
        model = resnet20(10, width_mult=0.25, input_hw=8, seed=0)
        loss = F.cross_entropy(model(Tensor(x)), np.arange(4))
        loss.backward()
        return [loss.data] + [p.grad for p in model.parameters()]

    plain = eager_step()
    with workspace.baseline_engine():
        pinned = eager_step()
    assert all(np.array_equal(a, b) for a, b in zip(plain, pinned))


def test_captures_go_through_the_names_the_benchmark_wraps(monkeypatch):
    """``benchmarks/e2e`` times plan capture (its ``compile.capture`` span)
    by wrapping three module-level names: ``capture_training_step`` and
    ``capture_forward`` in ``repro.train.trainer`` and ``capture_forward``
    in ``repro.serve.registry``.  A compiled training step, a compiled
    evaluation and a served request must each capture through them."""
    from repro.data import make_synthetic
    from repro.nn import resnet20
    from repro.serve import ModelRegistry
    from repro.serve import registry as registry_mod
    from repro.train import Trainer, TrainerConfig
    from repro.train import trainer as trainer_mod
    calls = []

    def spy(mod, name):
        real = getattr(mod, name)

        def wrapped(*args, **kwargs):
            calls.append(f"{mod.__name__}.{name}")
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapped)

    spy(trainer_mod, "capture_training_step")
    spy(trainer_mod, "capture_forward")
    spy(registry_mod, "capture_forward")
    data = make_synthetic(10, 32, hw=8, noise=0.8, seed=0, name="api")
    tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), data, data,
                 TrainerConfig(epochs=1, batch_size=16, augment=False,
                               bn_recal_batches=0, compile_step=True))
    tr.train()
    registry = ModelRegistry()
    registry.register_model("m", tr.model)
    registry.run("m", data.x[:4])
    assert calls == ["repro.train.trainer.capture_training_step",
                     "repro.train.trainer.capture_forward",
                     "repro.serve.registry.capture_forward"]

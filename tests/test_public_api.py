"""Public API surface: everything the README documents must import and have
docstrings, every engine switch must be in the README's table and in the
plan signature, and only ``workspace.engine`` may write the engine config —
a guard against silent API drift."""

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
ENV_SWITCHES = {
    "REPRO_COMPILE_STEP", "REPRO_CONV_IMPL", "REPRO_FUSED", "REPRO_MEM_PLAN",
}


def test_switch_lattice_is_closed():
    from repro.tensor.workspace import EngineConfig
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
    # every EngineConfig field is something a plan is specialised on: one
    # signature entry per field, and flipping any one retires the plan
    cfg = EngineConfig()
    fields = dataclasses.fields(cfg)
    assert len(cfg.plan_signature()) == len(fields) == 3
    other = {bool: lambda v: not v, str: lambda v: "im2col"}
    for f in fields:
        value = getattr(cfg, f.name)
        flipped = dataclasses.replace(
            cfg, **{f.name: other[type(value)](value)})
        assert flipped.plan_signature() != cfg.plan_signature(), f.name


#: every setting a training or serving caller can pass, by owner.  A knob
#: that no shipped caller varies is a constant in its module instead; a new
#: one means editing this pin, as ``EngineConfig``'s ``== 3`` above does.
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
    "repro.serve.ServedModel": ("name", "model", "generation"),
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


def _config_writes(tree):
    """Lines of ``tree`` that assign to a field of ``workspace.config`` —
    ``config.f = v``, ``ws.config.f += v`` or ``setattr(config, ...)`` —
    whatever names the module imported the workspace or its config as."""
    ws_names, cfg_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name == "workspace":
                    ws_names.add(a.asname or a.name)
                elif a.name == "config" and \
                        (node.module or "").endswith("workspace"):
                    cfg_names.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            ws_names.update(a.asname for a in node.names
                            if a.asname and a.name.endswith(".workspace"))

    def is_config(expr):
        if isinstance(expr, ast.Name):
            return expr.id in cfg_names
        return (isinstance(expr, ast.Attribute) and expr.attr == "config"
                and isinstance(expr.value, ast.Name)
                and expr.value.id in ws_names)

    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and node.args
              and is_config(node.args[0])):
            lines.append(node.lineno)
        lines += [t.lineno for t in targets
                  if isinstance(t, ast.Attribute) and is_config(t.value)]
    return lines


def test_only_engine_pins_write_the_engine_config():
    """``workspace.engine(...)`` is the one writer of ``workspace.config``:
    no other module of ``src/`` assigns to one of its fields."""
    root = pathlib.Path(__file__).resolve().parents[1] / "src"
    writes = {}
    for path in root.rglob("*.py"):
        rel = path.relative_to(root).as_posix()
        lines = _config_writes(ast.parse(path.read_text()))
        if lines and rel != "repro/tensor/workspace.py":
            writes[rel] = lines
    assert writes == {}
    # the guard sees every spelling it claims to
    probe = ast.parse("from ..tensor import workspace as _ws\n"
                      "from .workspace import config as c\n"
                      "import repro.tensor.workspace as w\n"
                      "_ws.config.mem_plan = False\n"
                      "c.mem_plan += 1\n"
                      "setattr(c, 'fused_bnrelu', 0)\n"
                      "w.config.mem_plan: bool = True\n"
                      "other.config.x = 1\n"
                      "cfg = _ws.config\n")
    assert sorted(_config_writes(probe)) == [4, 5, 6, 7]


#: ``PROFILER.summary()``'s counter entries and how many keys each reports
SUMMARY_LAYOUT = {"_plans": 6, "_memplan": 10, "_comm": 5}


def test_counters_keep_the_names_the_benchmark_reads():
    """``benchmarks/e2e/wl_train.py`` reads engine counters by attribute,
    and the summary's counter entries are what ``profile=True`` logs.
    ``benchmarks/e2e/layer_probes.py`` also pins two inert names on
    ``workspace.config`` and calls ``sparse.publish``/``sparse.clear``:
    they must stay settable, callable and without effect on plans."""
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

    cfg = workspace.config
    sig = cfg.plan_signature()
    for name in ("parallel_replay", "sparse_compute"):
        saved = getattr(cfg, name)
        try:
            setattr(cfg, name, not saved)
            assert cfg.plan_signature() == sig, name
        finally:
            setattr(cfg, name, saved)
        with pytest.raises(TypeError):
            with workspace.engine(**{name: True}):
                pass
    gen = workspace.plan_generation()
    sparse.publish([(np.zeros((2, 2, 3, 3), np.float32),
                     np.zeros(2, bool), np.ones(2, bool))])
    sparse.clear()
    assert workspace.plan_generation() == gen
    with workspace.baseline_engine() as base:
        assert base.conv_impl == "im2col" and not base.mem_plan


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
    from repro.tensor import workspace
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
    with workspace.engine(conv_impl="einsum"):
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

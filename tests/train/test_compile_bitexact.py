"""Compiled stepping is bit-exact across a full PruneTrain run.

The acceptance bar for ``TrainerConfig(compile_step=True)``: a run that
prunes channels, removes a layer, grows the mini-batch, and is killed and
resumed from a format-v2 checkpoint mid-phase must produce *identical* bits
— every EpochRecord scalar, every parameter, every momentum buffer — to the
same run stepped eagerly.  Capture/recapture points (run start, each
reconfiguration, each batch-size change, resume) are exactly where the
eager and compiled executions may diverge if the plan machinery is wrong,
so the fixture is built to hit all of them (same dynamics as
tests/train/test_resume.py).
"""

import json

import numpy as np
import pytest

from repro.costmodel import MemoryModel, iteration_memory_bytes
from repro.data import make_synthetic
from repro.distributed import DynamicBatchAdjuster
from repro.io import checkpoint_path
from repro.nn import resnet20
from repro.tensor.compile import STATS
from repro.train import PruneTrainConfig, PruneTrainTrainer

from .test_resume import assert_logs_identical, assert_models_identical


@pytest.fixture(scope="module")
def data():
    train = make_synthetic(10, 192, hw=8, noise=0.8, seed=0, name="t")
    val = make_synthetic(10, 96, hw=8, noise=0.8, seed=1, name="v")
    return train, val


def _trainer(data, ckpt_dir, compile_step, **dist):
    train, val = data
    model = resnet20(10, width_mult=0.375, input_hw=8, seed=0)
    # nudge one residual-path conv toward death so the first
    # reconfiguration also removes layers
    model.graph.conv_by_name("s2b1.conv1").conv.weight.data *= 0.02
    cfg = PruneTrainConfig(
        epochs=6, batch_size=32, augment=True, log_every=0,
        penalty_ratio=0.3, reconfig_interval=2, lambda_scale=400.0,
        threshold=None, zero_sparse=True,
        checkpoint_every=1, checkpoint_dir=ckpt_dir, checkpoint_keep=0,
        compile_step=compile_step, **dist)
    cap = iteration_memory_bytes(model.graph, 32) * 4
    adjuster = DynamicBatchAdjuster(MemoryModel(cap), granularity=8,
                                    max_batch=128)
    return PruneTrainTrainer(model, train, val, cfg,
                             batch_adjuster=adjuster,
                             track_convs=("s0b0.conv1",))


def _run(data, ckpt_dir, resume_from=None):
    """Train the fixture trainer, compiled; returns ``(trainer, log)``."""
    t = _trainer(data, ckpt_dir, compile_step=True)
    return t, t.train(resume_from=resume_from)


def _assert_velocities_identical(t1, t2):
    for (n, p1), (_, p2) in zip(t1.model.named_parameters(),
                                t2.model.named_parameters()):
        assert np.array_equal(t1.optimizer.state_for(p1),
                              t2.optimizer.state_for(p2)), f"{n} velocity"


@pytest.fixture(scope="module")
def runs(data, tmp_path_factory):
    eager = _trainer(data, str(tmp_path_factory.mktemp("eager")),
                     compile_step=False)
    log_eager = eager.train()
    STATS.reset()
    compiled, log_compiled = _run(
        data, str(tmp_path_factory.mktemp("compiled")))
    return eager, log_eager, compiled, log_compiled


class TestCompiledPruneTrainBitExact:
    def test_run_exercised_every_dynamic(self, runs):
        eager, log_eager, _, _ = runs
        assert eager.reports[0].channels_pruned > 0
        assert eager.reports[0].removed_layers > 0
        assert log_eager.records[1].batch_size > 32
        assert eager.lr_scale > 1.0

    def test_compiled_run_actually_replayed(self, runs):
        assert STATS.captures > 0
        assert STATS.replays > STATS.captures
        assert STATS.fallbacks == 0, STATS.last_fallback_reason

    def test_logs_params_velocity_identical(self, runs):
        eager, log_eager, compiled, log_compiled = runs
        assert_logs_identical(log_eager, log_compiled)
        assert_models_identical(eager.model, compiled.model)
        _assert_velocities_identical(eager, compiled)

    def test_kill_resume_compiled_matches_eager_full(self, runs, data,
                                                     tmp_path):
        """Kill the compiled run after epoch 2 (mid-phase: one
        reconfiguration and the batch growth already happened) and resume
        a fresh compiled trainer from its checkpoint: the stitched run
        must still match the uninterrupted eager run bit-for-bit."""
        eager, log_eager, compiled, _ = runs
        ckpt = checkpoint_path(compiled.cfg.checkpoint_dir, 2)
        resumed, log_res = _run(data, str(tmp_path / "resumed"),
                                resume_from=ckpt)
        assert_logs_identical(log_eager, log_res)
        assert_models_identical(eager.model, resumed.model)
        _assert_velocities_identical(eager, resumed)


class TestMemPlanBitExact:
    """The memory planner changes *where* plan buffers live, never values:
    the compiled run above, bit-identical to the eager one across pruning,
    layer removal, batch growth and kill/resume, planned every plan it
    replayed (per-epoch arena metrics recorded)."""

    def test_planner_on_recorded_arena_metrics(self, runs):
        _, _, _, log_on = runs
        for rec in log_on.records:
            assert rec.arena_bytes > 0
            assert rec.mem_peak_bytes > 0
            assert 0.0 < rec.mem_plan_savings < 1.0
        # pruning shrinks the model, so the planned footprint per sample
        # must shrink too (raw arena bytes can grow: the freed memory is
        # deliberately refilled by dynamic batch growth)
        first, last = log_on.records[0], log_on.records[-1]
        assert (last.arena_bytes / last.batch_size
                < first.arena_bytes / first.batch_size)


class TestCheckpointCompat:
    """Checkpoints written before the trainer stopped recording dead-set
    history (the ``dead_hist`` train state and ``dead_hist/*`` arrays a run
    with sparse compute on wrote) still restore, in the same format, and
    resume bit-exactly."""

    def test_dead_set_history_is_ignored_on_resume(self, runs, data,
                                                   tmp_path):
        eager, log_eager, compiled, _ = runs
        src = checkpoint_path(compiled.cfg.checkpoint_dir, 2)
        with np.load(src) as archive:
            blobs = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(blobs["meta.json"]).decode())
        assert meta["format_version"] == 2
        state = meta["train_state"]
        assert "dead_hist" not in state
        assert not any(key.startswith("dead_hist/") for key in blobs)
        # keyed by conv name, sized by the checkpointed weights
        module_names = {id(m): n for n, m in compiled.model.named_modules()}
        state["dead_hist"] = {}
        for node in compiled.model.graph.active_convs():
            k, c = blobs[f"state/{module_names[id(node.conv)]}.weight"
                         ].shape[:2]
            state["dead_hist"][node.name] = 2
            for i in range(2):
                prefix = f"dead_hist/{node.name}/{i}"
                blobs[prefix + "/in"] = np.arange(c) % 3 == 0
                blobs[prefix + "/out"] = np.arange(k) % 2 == 0
        blobs["meta.json"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        ckpt = str(tmp_path / "parent-ckpt.npz")
        np.savez(ckpt, **blobs)

        resumed, log_res = _run(data, str(tmp_path / "resumed"),
                                resume_from=ckpt)
        assert_logs_identical(log_eager, log_res)
        assert_models_identical(eager.model, resumed.model)
        _assert_velocities_identical(eager, resumed)


def test_sim_data_parallel_replays_and_equals_eager(data, tmp_path):
    """``workers=2`` on the ``"sim"`` engine: every shard runs
    ``train_step`` through the trainer's plan cache — the step an elastic
    worker runs — so the run replays plans, and across pruning, layer
    removal and batch growth it equals the eagerly stepped run bit for
    bit."""
    def run(compile_step):
        t = _trainer(data, str(tmp_path / f"c{compile_step}"), compile_step,
                     workers=2, dist_engine="sim")
        return t, t.train()

    eager, log_eager = run(False)
    replays, fallbacks = STATS.replays, STATS.fallbacks
    compiled, log_compiled = run(True)
    assert eager.reports[0].removed_layers > 0
    assert log_eager.records[-1].batch_size > 32
    assert STATS.replays > replays
    assert STATS.fallbacks == fallbacks, STATS.last_fallback_reason
    assert_logs_identical(log_eager, log_compiled)
    assert_models_identical(eager.model, compiled.model)
    _assert_velocities_identical(eager, compiled)

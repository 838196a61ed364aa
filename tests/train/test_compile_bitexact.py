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

import numpy as np
import pytest

from repro.costmodel import MemoryModel, iteration_memory_bytes
from repro.data import make_synthetic
from repro.distributed import DynamicBatchAdjuster
from repro.io import checkpoint_path
from repro.nn import resnet20
from repro.tensor import workspace
from repro.tensor.compile import STATS
from repro.train import PruneTrainConfig, PruneTrainTrainer

from .test_resume import assert_logs_identical, assert_models_identical


# Compiled plans exist only on the optimized engine; pin it so these tests
# check the plans they are about, whatever engine the CI leg selected.
pytestmark = pytest.mark.usefixtures("optimized_engine")


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


def _run(data, ckpt_dir, resume_from=None, **switches):
    """Train the fixture trainer, compiled, under ``workspace.engine(
    **switches)``; returns ``(trainer, log)``."""
    t = _trainer(data, ckpt_dir, compile_step=True)
    with workspace.engine(**switches):
        return t, t.train(resume_from=resume_from)


def _assert_velocities_identical(t1, t2):
    for (n, p1), (_, p2) in zip(t1.model.named_parameters(),
                                t2.model.named_parameters()):
        assert np.array_equal(t1.optimizer.state_for(p1),
                              t2.optimizer.state_for(p2)), f"{n} velocity"


@pytest.fixture(scope="module")
def runs(optimized_engine, data, tmp_path_factory):
    eager = _trainer(data, str(tmp_path_factory.mktemp("eager")),
                     compile_step=False)
    log_eager = eager.train()
    STATS.reset()
    # mem_plan pinned on (not left to the REPRO_MEM_PLAN default): the
    # planner-vs-off differential below must hold on every CI matrix leg
    compiled, log_compiled = _run(
        data, str(tmp_path_factory.mktemp("compiled")), mem_plan=True)
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
        if workspace.config.sparse_compute:
            # with sparse compute armed, every epoch-end dead-set publish
            # that *changes* the stable sets retires the plans (the baked
            # gate decisions are stale) — at this fixture's 6 batches per
            # epoch captures legitimately rival replays, so only assert
            # that replay happened at all
            assert STATS.replays > 0
        else:
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
    """The memory planner changes *where* plan buffers live, never values.

    The compiled run above already exercises planner-on (mem_plan pinned
    on) across pruning, layer removal, batch growth, and
    kill/resume; here the same schedule runs with the planner forced off
    and every bit must agree — plus the planner-on run must actually have
    planned (per-epoch arena metrics recorded).
    """

    @pytest.fixture(scope="class")
    def planner_off(self, data, tmp_path_factory):
        return _run(data, str(tmp_path_factory.mktemp("noplan")),
                    mem_plan=False)

    def test_planner_on_off_bit_identical(self, runs, planner_off):
        _, log_eager, compiled, log_on = runs
        off, log_off = planner_off
        assert_logs_identical(log_on, log_off)
        assert_logs_identical(log_eager, log_off)
        assert_models_identical(compiled.model, off.model)
        _assert_velocities_identical(compiled, off)

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

    def test_planner_off_recorded_no_metrics(self, planner_off):
        _, log_off = planner_off
        assert all(r.arena_bytes == 0 for r in log_off.records)

    def test_resume_across_planner_configs(self, runs, data, tmp_path):
        """A checkpoint written by a planner-on run resumes bit-exactly in
        a planner-off trainer: plan layout is not run state."""
        eager, log_eager, compiled, _ = runs
        ckpt = checkpoint_path(compiled.cfg.checkpoint_dir, 2)
        resumed, log_res = _run(data, str(tmp_path / "res-noplan"),
                                resume_from=ckpt, mem_plan=False)
        assert_logs_identical(log_eager, log_res)
        assert_models_identical(eager.model, resumed.model)
        _assert_velocities_identical(eager, resumed)


class TestParallelReplayBitExact:
    """Level-scheduled multi-threaded replay across the full PruneTrain
    schedule — pruning, layer removal, batch growth, kill/resume — must be
    bit-identical to the serial compiled run (itself bit-identical to
    eager).  Replay order is pinned by the schedule's accumulation-order
    edges, so the thread count must never show up in the bits.
    """

    @pytest.fixture(scope="class")
    def parallel_run(self, data, tmp_path_factory):
        from repro.tensor import parallel as par
        par.STATS.reset()
        return _run(data, str(tmp_path_factory.mktemp("parallel")),
                    mem_plan=True, parallel_replay=True, replay_workers=4)

    def test_parallel_matches_eager_and_serial(self, runs, parallel_run):
        _, log_eager, compiled, log_serial = runs
        par_t, log_par = parallel_run
        assert_logs_identical(log_serial, log_par)
        assert_logs_identical(log_eager, log_par)
        assert_models_identical(compiled.model, par_t.model)
        _assert_velocities_identical(compiled, par_t)

    def test_parallel_replay_actually_ran(self, parallel_run):
        from repro.tensor import parallel as par
        assert par.STATS.schedules > 0
        assert par.STATS.replays > 0
        assert par.STATS.max_width >= 2
        assert par.STATS.thunks_run > par.STATS.levels_run

    def test_resume_across_parallel_serial_boundary(self, runs, data,
                                                    parallel_run, tmp_path):
        """A checkpoint written by the *parallel* run resumes bit-exactly
        in a *serial* trainer and vice versa: replay scheduling is not run
        state."""
        eager, log_eager, compiled, _ = runs
        par_t, _ = parallel_run
        # parallel checkpoint -> serial resume
        ckpt_p = checkpoint_path(par_t.cfg.checkpoint_dir, 2)
        res_s, log_s = _run(data, str(tmp_path / "res-serial"),
                            resume_from=ckpt_p, parallel_replay=False)
        assert_logs_identical(log_eager, log_s)
        assert_models_identical(eager.model, res_s.model)
        _assert_velocities_identical(eager, res_s)
        # serial checkpoint -> parallel resume
        ckpt_s = checkpoint_path(compiled.cfg.checkpoint_dir, 2)
        res_p, log_p = _run(data, str(tmp_path / "res-parallel"),
                            resume_from=ckpt_s, parallel_replay=True,
                            replay_workers=4)
        assert_logs_identical(log_eager, log_p)
        assert_models_identical(eager.model, res_p.model)
        _assert_velocities_identical(eager, res_p)


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

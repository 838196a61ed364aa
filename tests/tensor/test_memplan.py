"""Unit tests for the static memory planner (solver + compile integration).

Solver tests drive :class:`MemPlanner` directly with hand-built request
sequences; integration tests capture real training/forward plans and check
that planning engages, aliases fire, and a planning failure fails the
capture closed, leaving a step bit-identical to the eager one.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.tensor.memplan import (ALIGN, MemPlanner, PlanError, STATS,
                                  live_arena_bytes, live_arena_count)
from repro.tensor.compile import capture_training_step

from .test_compile import _batch, _model


F32 = np.float32


def _planned(mem):
    """Run solve+materialize and flip into serve mode."""
    mem.solve()
    mem.materialize()
    return mem


class TestSolver:
    def test_disjoint_intervals_share_one_offset(self):
        mem = MemPlanner()
        mem.alloc((64,), F32, 0, 1, tag="a")
        mem.alloc((64,), F32, 2, 3, tag="b")
        mem.solve()
        a, b = mem.slabs
        assert a.offset == b.offset == 0
        assert mem.arena_bytes == 256  # one 64-float slab, aligned

    def test_overlapping_intervals_get_distinct_regions(self):
        mem = MemPlanner()
        mem.alloc((64,), F32, 0, 5, tag="a")
        mem.alloc((64,), F32, 3, 8, tag="b")
        mem.solve()
        a, b = mem.slabs
        assert {a.offset, b.offset} == {0, 256}
        assert mem.arena_bytes == 512

    def test_gap_fill_reuses_freed_hole(self):
        # M dies at t=4 leaving a hole between A and B; D (t>=6) must land
        # in that hole instead of extending the arena.
        mem = MemPlanner()
        mem.alloc((128,), F32, 0, 9, tag="A")   # 512B, pins offset 0
        mem.alloc((64,), F32, 0, 4, tag="M")    # 256B hole donor
        mem.alloc((32,), F32, 0, 9, tag="B")    # 128B after the hole
        mem.alloc((32,), F32, 6, 9, tag="D")    # fits M's hole
        mem.solve()
        a, m, b, d = mem.slabs
        assert (a.offset, m.offset, b.offset) == (0, 512, 768)
        assert d.offset == 512
        assert mem.arena_bytes == 896

    def test_alias_collapses_onto_root_with_interval_union(self):
        mem = MemPlanner()
        mem.alloc((32,), F32, 0, 3, tag="x", out_slot=1)
        mem.alloc((32,), F32, 2, 7, tag="y", alias_slot=1)
        mem.solve()
        x, y = mem.slabs
        assert y.alias_of is x
        assert (x.start, x.end) == (0, 7)  # union
        assert mem.alias_buffers == 1
        assert mem.arena_bytes == _align_up(32 * 4)

    def test_alias_refused_on_shape_or_persistent_mismatch(self):
        mem = MemPlanner()
        mem.alloc((32,), F32, 0, 3, out_slot=1)
        bad_shape = mem.alloc((16,), F32, 2, 4, alias_slot=1)
        assert bad_shape.shape == (16,)
        assert mem.slabs[-1].alias_of is None
        bad_dtype = mem.alloc((32,), np.float64, 2, 4, alias_slot=1)
        assert bad_dtype.dtype == np.float64
        assert mem.slabs[-1].alias_of is None

    def test_arena_never_exceeds_naive(self):
        rng = np.random.default_rng(0)
        mem = MemPlanner()
        for _ in range(40):
            a = int(rng.integers(0, 50))
            b = int(rng.integers(0, 50))
            mem.alloc((int(rng.integers(1, 500)),), F32, min(a, b),
                      max(a, b))
        mem.solve()
        assert mem.peak_bytes <= mem.arena_bytes
        assert mem.arena_bytes <= _align_up_sum(mem)
        assert 0.0 <= mem.savings < 1.0

    def test_serve_replays_in_order_and_zero_fills(self):
        mem = MemPlanner()
        mem.alloc((4,), F32, 0, 1)
        mem.alloc((4,), F32, 2, 3)
        _planned(mem)
        z = mem.alloc((4,), F32, 0, 1)
        assert z is mem.slabs[0].arr
        other = mem.alloc((4,), F32, 2, 3)
        assert other is mem.slabs[1].arr
        assert np.shares_memory(other, mem.arena)
        assert np.shares_memory(z, mem.arena)
        mem.finish()

    def test_serve_divergence_raises(self):
        mem = MemPlanner()
        mem.alloc((4,), F32, 0, 1)
        _planned(mem)
        with pytest.raises(PlanError):
            mem.alloc((8,), F32, 0, 1)     # wrong shape
        mem2 = MemPlanner()
        mem2.alloc((4,), F32, 0, 1)
        _planned(mem2)
        mem2.alloc((4,), F32, 0, 1)
        with pytest.raises(PlanError):
            mem2.alloc((4,), F32, 0, 1)    # more requests than planned

    def test_finish_detects_underconsumption(self):
        mem = MemPlanner()
        mem.alloc((4,), F32, 0, 1)
        mem.alloc((4,), F32, 2, 3)
        _planned(mem)
        mem.alloc((4,), F32, 0, 1)
        with pytest.raises(PlanError):
            mem.finish()

    def test_double_materialize_raises(self):
        mem = MemPlanner()
        mem.alloc((4,), F32, 0, 1)
        _planned(mem)
        with pytest.raises(PlanError):
            mem.materialize()


def _align_up(n):
    return (n + ALIGN - 1) // ALIGN * ALIGN


def _align_up_sum(mem):
    return sum(_align_up(s.nbytes) for s in mem.slabs)


class TestArenaRegistry:
    def test_live_arena_accounting_follows_plan_lifetime(self):
        base_count = live_arena_count()
        base_bytes = live_arena_bytes()
        mem = MemPlanner()
        mem.alloc((1024,), F32, 0, 1)
        _planned(mem)
        assert live_arena_count() == base_count + 1
        assert live_arena_bytes() >= base_bytes + 4096
        del mem
        assert live_arena_count() == base_count
        assert live_arena_bytes() == base_bytes


class TestCompileIntegration:
    def _capture(self, seed=0):
        rng = np.random.default_rng(seed)
        x, y = _batch(rng)
        model = _model()
        plan, loss_t, logits_t, reason = capture_training_step(model, x, y)
        assert reason is None, reason
        loss_t.backward()
        return model, plan, x, y

    def test_planner_engages_and_reports(self):
        STATS.reset()
        _, plan, _, _ = self._capture()
        m = plan.mem_metrics()
        assert m is not None
        assert 0 < m["arena_bytes"] <= m["naive_bytes"]
        assert 0 < m["peak_bytes"] <= m["arena_bytes"]
        assert m["savings"] > 0.2
        assert STATS.plans == 1

    def test_every_slab_is_align_aligned(self):
        """``np.empty`` aligns to 16 bytes only; the arena starts at an
        ``ALIGN`` boundary so every slab view is cache-line aligned."""
        for seed in range(3):
            _, plan, _, _ = self._capture(seed)
            slabs = [s for s in plan._mem.slabs if s.nbytes]
            assert slabs
            for s in slabs:
                assert s.arr.ctypes.data % ALIGN == 0, s
            assert plan._mem.arena.nbytes == plan._mem.arena_bytes

    def test_residual_alias_buffers_fire(self):
        # The test model (see test_compile._model) has a residual
        # add+relu join: at least one alias must have been taken.
        _, plan, _, _ = self._capture()
        assert plan.mem_metrics()["alias_buffers"] >= 1

    def test_vgg13_training_arena_has_no_per_sample_dw_slab(self):
        """The planned VGG-13 (width 0.5, batch 32, hw 16) training arena was
        85 065 728 B while every conv weight gradient staged an (N, K, C*R*S)
        slab; with the wide layers' dw batch-folded it is ~17 MB.  Guard the
        bound so the slab cannot come back."""
        from repro.nn import vgg13
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, size=32)
        model = vgg13(10, width_mult=0.5, input_hw=16, seed=0)
        plan, loss_t, _, reason = capture_training_step(model, x, y)
        assert reason is None, reason
        loss_t.backward()
        assert 0 < plan.mem_metrics()["arena_bytes"] < 25 * 2 ** 20

    def test_a_planning_failure_fails_the_capture_closed(self, monkeypatch):
        """A ``PlanError`` leaves no plan: the capture returns the reason,
        ``compile.STATS`` counts a fallback, and a training run steps
        eagerly, bit for bit the run with compiled stepping off."""
        from repro.data import make_synthetic
        from repro.nn import resnet20
        from repro.tensor import compile as C, memplan
        from repro.train import Trainer, TrainerConfig
        from ..train.test_resume import (assert_logs_identical,
                                         assert_models_identical)

        def run(compile_step):
            data = make_synthetic(10, 64, hw=8, noise=0.8, seed=0, name="f")
            tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8, seed=0),
                         data, data, TrainerConfig(
                             epochs=1, batch_size=32, augment=False,
                             log_every=0, compile_step=compile_step))
            return tr, tr.train()

        eager, log_eager = run(False)

        def boom(self):
            raise PlanError("forced")

        monkeypatch.setattr(memplan.MemPlanner, "solve", boom)
        fallbacks = C.STATS.fallbacks
        x, y = _batch(np.random.default_rng(3))
        plan, loss_t, _, reason = capture_training_step(_model(), x, y)
        assert (plan, reason) == (None, "memory plan: forced")
        assert C.STATS.fallbacks == fallbacks + 1
        loss_t.backward()               # the capturing step still completes

        stepped, log_stepped = run(True)
        assert C.STATS.fallbacks > fallbacks + 1
        assert_logs_identical(log_eager, log_stepped)
        assert_models_identical(eager.model, stepped.model)

    def test_a_capture_failing_at_finish_books_no_plan(self, monkeypatch):
        """``finish()`` runs after the arena is materialized; a capture that
        fails closed there counts a fallback and no plan: every memplan
        counter keeps its value."""
        import dataclasses
        from repro.tensor import compile as C, memplan

        def boom(self):
            raise PlanError("forced")

        self._capture(seed=1)               # a plan booked before
        monkeypatch.setattr(memplan.MemPlanner, "finish", boom)
        booked = dataclasses.asdict(STATS)
        fallbacks = C.STATS.fallbacks
        x, y = _batch(np.random.default_rng(3))
        plan, loss_t, _, reason = capture_training_step(_model(), x, y)
        assert (plan, reason) == (None, "memory plan: forced")
        assert dataclasses.asdict(STATS) == booked
        assert C.STATS.fallbacks == fallbacks + 1
        loss_t.backward()

    def test_capture_books_every_solve(self, monkeypatch):
        """A capture solves its layout once and ``STATS.solve_seconds``
        books it.  A solve reads the fake clock twice, so it books exactly
        1 s."""
        from repro.tensor import memplan
        ticks = itertools.count()
        monkeypatch.setattr(memplan, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        solves = []
        real_solve = memplan.MemPlanner.solve

        def counted(mem):
            solves.append(mem)
            return real_solve(mem)

        monkeypatch.setattr(memplan.MemPlanner, "solve", counted)
        STATS.reset()
        self._capture()
        assert len(solves) == 1
        assert STATS.plans == 1
        assert STATS.solve_seconds == float(len(solves))


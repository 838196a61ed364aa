"""Op profiler: opt-in semantics, counter correctness, trainer wiring.

The profiler must be strictly opt-in — disabled, the instrumented ops pay
one attribute check and record nothing — and when enabled it must attribute
wall time and bytes to the engine's kernels and surface in each epoch's
log record via ``TrainerConfig(profile=True)``.
"""

import dataclasses

import numpy as np

from repro.data import make_synthetic
from repro.nn import resnet20
from repro.profiler import COUNTERS, PROFILER, Counters, OpProfiler
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.train import Trainer, TrainerConfig


def _one_forward_backward(rng):
    x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
               requires_grad=True)
    y = F.conv2d(x, w, None, stride=1, padding=1)
    y.backward(np.ones(y.shape, dtype=np.float32))


class TestOptIn:
    def test_disabled_by_default_records_nothing(self, rng):
        PROFILER.disable()
        PROFILER.reset()
        _one_forward_backward(rng)
        assert PROFILER.summary().get("conv2d_fwd") is None
        assert PROFILER.total_seconds() == 0.0

    def test_session_scopes_enablement(self, rng):
        with PROFILER.session():
            _one_forward_backward(rng)
            stats = PROFILER.summary()
        assert stats["conv2d_fwd"]["calls"] == 1
        assert stats["conv2d_bwd"]["calls"] == 1
        assert stats["conv2d_fwd"]["seconds"] > 0
        assert stats["conv2d_fwd"]["bytes"] > 0
        assert not PROFILER.enabled
        _one_forward_backward(rng)  # must not record after the session
        assert PROFILER.summary()["conv2d_fwd"]["calls"] == 1
        PROFILER.reset()

    def test_a_table_op_reports_under_its_kind(self, rng):
        """``apply_op`` brackets every row, so an eager ResNet step reports
        batch-norm (fused ReLU or not), the residual join and the head under
        their kinds, beside the conv."""
        model = resnet20(4, width_mult=0.25, input_hw=8)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        with PROFILER.session():
            F.cross_entropy(model(Tensor(x)), np.array([0, 1])).backward()
            stats = PROFILER.summary()
        for kind in ("batch_norm", "add_relu", "linear", "cross_entropy",
                     "conv2d"):
            assert stats[f"{kind}_fwd"]["calls"] > 0, kind
            assert stats[f"{kind}_bwd"]["calls"] > 0, kind
        assert stats["batch_norm_fwd"]["bytes"] > 0
        PROFILER.reset()

    def test_summary_includes_engine_counters(self, rng):
        with PROFILER.session():
            _one_forward_backward(rng)
            stats = PROFILER.summary()
        assert "_workspace" not in stats
        assert "_memplan" in stats
        for key in ("plans", "arena_bytes", "naive_bytes", "peak_bytes",
                    "live_arenas", "live_arena_bytes"):
            assert key in stats["_memplan"]
        PROFILER.reset()


class TestCounters:
    def test_add_aggregates(self):
        p = OpProfiler()
        p.enable()
        p.add("op", 0.25, 100)
        p.add("op", 0.75, 300)
        st = p.summary()["op"]
        assert st["calls"] == 2
        assert st["seconds"] == 1.0
        assert st["bytes"] == 400
        assert p.total_seconds() == 1.0

    def test_counter_set_resets_and_reports_its_fields(self):
        @dataclasses.dataclass
        class Probe(Counters):
            hits: int = 0
            reason: str = ""
            rows: list = dataclasses.field(default_factory=list)

            def derived(self):
                return {"n_rows": len(self.rows)}

        c = Probe()
        c.hits, c.reason = 3, "x"
        c.rows.append(1)
        assert c.as_dict() == {"hits": 3, "reason": "x", "rows": [1],
                               "n_rows": 1}
        rows = c.rows
        c.reset()
        assert c.as_dict() == {"hits": 0, "reason": "", "rows": [],
                               "n_rows": 0}
        assert c.rows is not rows, "a factory default must be rebuilt"

    def test_summary_reports_every_registered_counter_set(self):
        from repro.tensor import compile as tcompile
        summary = OpProfiler().summary()
        assert set(COUNTERS) <= set(summary)
        assert summary["_plans"] == tcompile.STATS.as_dict()
        for key, counters in COUNTERS.items():
            assert "reset" not in vars(type(counters)), key

    def test_report_renders_table(self):
        p = OpProfiler()
        p.enable()
        p.add("conv", 0.002, 1000)
        text = p.report()
        assert "conv" in text and "calls" in text


class TestTrainerWiring:
    def test_profile_flag_snapshots_each_epoch(self):
        train = make_synthetic(4, 32, hw=8, noise=0.8, seed=0, name="t")
        val = make_synthetic(4, 16, hw=8, noise=0.8, seed=1, name="v")
        model = resnet20(4, width_mult=0.25, input_hw=8)
        tr = Trainer(model, train, val,
                     TrainerConfig(epochs=2, batch_size=16, augment=False,
                                   log_every=0, profile=True))
        log = tr.train()
        assert not PROFILER.enabled, "trainer must disable on exit"
        for rec in log.records:
            assert rec.op_profile, "profile missing from epoch record"
            assert rec.op_profile["conv2d_fwd"]["calls"] > 0
            assert rec.op_profile["conv2d_bwd"]["seconds"] > 0

    def test_epoch_profile_excludes_eval_phase(self):
        """Epoch records must profile the training phase only: the summary
        is snapshotted before evaluation/BN recalibration runs."""
        class MarkedEval(Trainer):
            def evaluate(self):
                if PROFILER.enabled:
                    PROFILER.add("eval_marker", 0.001, 0)
                return super().evaluate()

        train = make_synthetic(4, 32, hw=8, noise=0.8, seed=0, name="t")
        val = make_synthetic(4, 16, hw=8, noise=0.8, seed=1, name="v")
        model = resnet20(4, width_mult=0.25, input_hw=8)
        tr = MarkedEval(model, train, val,
                        TrainerConfig(epochs=2, batch_size=16, augment=False,
                                      log_every=0, profile=True))
        log = tr.train()
        for rec in log.records:
            assert "eval_marker" not in rec.op_profile
            assert rec.op_profile["conv2d_fwd"]["calls"] > 0

    def test_profile_off_leaves_records_empty(self):
        train = make_synthetic(4, 32, hw=8, noise=0.8, seed=0, name="t")
        val = make_synthetic(4, 16, hw=8, noise=0.8, seed=1, name="v")
        model = resnet20(4, width_mult=0.25, input_hw=8)
        tr = Trainer(model, train, val,
                     TrainerConfig(epochs=1, batch_size=16, augment=False,
                                   log_every=0))
        log = tr.train()
        assert log.records[0].op_profile == {}

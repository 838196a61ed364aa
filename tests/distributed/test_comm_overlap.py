"""The elastic engine's gradient exchange: differential parity of the
engine (compiled workers, and the eager step a capture failure selects)
against the simulation across the full PruneTrain schedule, fault recovery
across a step, and shared-memory teardown robustness."""

import numpy as np
import pytest

from repro.data import make_synthetic
from repro.distributed import (COMM_STATS, ElasticEngine, FaultPlan,
                               data_parallel_step)
from repro.nn import resnet20
from repro.optim import SGD
from repro.prune import prune_and_reconfigure
from repro.tensor.compile import capture_training_step

from ..conftest import UNRECORDED, sparsify_space, uncapturable

pytestmark = pytest.mark.distributed

SMALL = dict(width_mult=0.25, input_hw=8)
SGD_KW = dict(lr=0.05, momentum=0.9, weight_decay=5e-4)


@pytest.fixture(scope="module")
def batch():
    ds = make_synthetic(10, 32, hw=8, noise=0.8, seed=0)
    return ds.x, ds.y


def fresh(wrap=lambda m: m):
    m = wrap(resnet20(10, **SMALL, seed=3))
    m.train()
    return m, SGD(m.parameters(), **SGD_KW)


def _prune(m, opt):
    for sid, sp in list(m.graph.spaces.items()):
        if not sp.frozen:
            sparsify_space(m.graph, sid, [0, 1])
    rep = prune_and_reconfigure(m, opt, threshold=1e-3, remove_layers=True,
                                zero_sparse=True)
    assert rep.channels_pruned > 0


def momentum_by_name(model, opt):
    return {name: (None if opt.state_for(p) is None
                   else opt.state_for(p).copy())
            for name, p in model.named_parameters()}


def assert_state_equal(m1, opt1, m2, opt2):
    sd1, sd2 = m1.state_dict(), m2.state_dict()
    assert sd1.keys() == sd2.keys()
    for k in sd1:
        np.testing.assert_array_equal(sd1[k], sd2[k], err_msg=k)
    v1, v2 = momentum_by_name(m1, opt1), momentum_by_name(m2, opt2)
    assert v1.keys() == v2.keys()
    for k in v1:
        if v1[k] is None:
            assert v2[k] is None, k
        else:
            np.testing.assert_array_equal(v1[k], v2[k], err_msg=k)


def metrics_equal(a, b):
    return [tuple(map(float, t)) for t in a] == \
        [tuple(map(float, t)) for t in b]


# The full PruneTrain schedule in miniature: shrinking batch -> pruning
# reconfiguration (payload + layout change) -> batch growth (new shard
# shapes force plan recapture in the workers).
def schedule(batch, steps=7, prune_at=3, grow_at=5):
    x, y = batch
    for s in range(steps):
        n = 16 if s < grow_at else len(x)
        yield s, (s == prune_at), x[:n], y[:n]


def run_sim(batch, workers_at=lambda s: 2, wrap=lambda m: m, **sched_kw):
    m, opt = fresh(wrap)
    out = []
    for s, do_prune, xb, yb in schedule(batch, **sched_kw):
        if do_prune:
            _prune(m, opt)
        res, _ = data_parallel_step(m, xb, yb, workers=workers_at(s))
        opt.step()
        out.append((res.loss, res.accuracy, res.comm_bytes_per_worker))
    return m, opt, out


def run_elastic(batch, workers=2, plan=None, timeout=10.0, sched_kw=None,
                wrap=lambda m: m):
    m, opt = fresh(wrap)
    with ElasticEngine(m, workers=workers, heartbeat_timeout=timeout,
                       fault_plan=plan) as eng:
        out = []
        for s, do_prune, xb, yb in schedule(batch, **(sched_kw or {})):
            if do_prune:
                _prune(m, opt)
            r = eng.step(xb, yb)
            opt.step()
            out.append((r.loss, r.accuracy, r.comm_bytes_per_worker))
        failures = list(eng.failures)
        active = eng.active_workers
    return m, opt, out, failures, active


# -- differential parity against the simulation -----------------------------

class TestOverlapParity:
    def test_full_schedule_k2_equals_sim(self, batch):
        """Pruning, layer removal, and batch growth: the elastic engine
        reproduces the simulation bit for bit."""
        ms, opts, outs = run_sim(batch)
        me, opte, oute, failures, active = run_elastic(batch)
        assert failures == [] and active == 2
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_full_schedule_k3_overlap_equals_sim(self, batch):
        ms, opts, outs = run_sim(batch, workers_at=lambda s: 3)
        me, opte, oute, failures, active = run_elastic(batch, workers=3)
        assert failures == [] and active == 3
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_capture_failure_packs_eager_and_equals_sim(self, batch):
        """Workers whose capture fails — on a model capture cannot record,
        which forked workers inherit with the rest of the model — step
        eagerly and pack their gradients: still the simulation's bits on
        that same model, one exchange per step."""
        x, y = batch
        assert capture_training_step(fresh(uncapturable)[0], x, y)[3] \
            == UNRECORDED
        ms, opts, outs = run_sim(batch, wrap=uncapturable)
        COMM_STATS.reset()
        me, opte, oute, failures, active = run_elastic(batch,
                                                       wrap=uncapturable)
        assert failures == [] and active == 2
        assert COMM_STATS.allreduces == len(oute)
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)


# -- faults across the exchange ---------------------------------------------

class TestOverlapFaults:
    def test_kill_resume_across_overlap_boundary(self, batch):
        """A kill/resume sequence produces the degraded trajectory of a
        clean run at the surviving worker count."""
        ms, opts, outs = run_sim(batch,
                                 workers_at=lambda s: 2 if s < 2 else 1)
        plan = FaultPlan().kill(1, at_step=2)
        me, opte, oute, failures, active = run_elastic(
            batch, plan=plan, timeout=5.0)
        assert active == 1
        assert [(f.rank, f.step) for f in failures] == [(1, 2)]
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)


# -- teardown robustness (shared-memory lifecycle) ---------------------------

class TestTeardown:
    def test_shutdown_releases_segments_and_is_reentrant(self, batch):
        x, y = batch
        m, _ = fresh()
        eng = ElasticEngine(m, workers=2)
        eng.step(x, y)
        eng.shutdown()
        assert eng._param_mm is None and eng._hb_mm is None
        assert eng._handles == []
        eng.shutdown()            # double close must be a no-op
        eng.shutdown()

    def test_shutdown_without_start(self):
        m, _ = fresh()
        eng = ElasticEngine(m, workers=2)
        eng.shutdown()
        eng.shutdown()

    def test_evict_then_shutdown_double_release(self, batch):
        """Eviction closes the dead worker's gradient segment; shutdown
        must not trip over the already-released handle."""
        x, y = batch
        m, _ = fresh()
        plan = FaultPlan().kill(1, at_step=0)
        eng = ElasticEngine(m, workers=2, heartbeat_timeout=5.0,
                            fault_plan=plan)
        eng.step(x, y)
        assert [f.rank for f in eng.failures] == [1]
        assert eng._handles[1].grad_mm is None   # released at eviction
        eng.shutdown()
        eng.shutdown()

    def test_restart_after_shutdown(self, batch):
        """The engine can start a fresh pool after a full teardown."""
        x, y = batch
        m, _ = fresh()
        eng = ElasticEngine(m, workers=2)
        r1 = eng.step(x, y)
        eng.shutdown()
        r2 = eng.step(x, y)       # auto-restarts around the updated model
        eng.shutdown()
        assert r2.active_workers == 2
        assert r1.comm_bytes_per_worker == r2.comm_bytes_per_worker

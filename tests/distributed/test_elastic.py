"""Elastic multi-process engine: bit-exact parity with the in-process
simulation, resync through pruning surgery, and deterministic fault
injection (kill / hang / heartbeat corruption, graceful K -> K-1 -> 1)."""

import os

import numpy as np
import pytest

from repro.data import make_synthetic
from repro.distributed import (ElasticEngine, FaultPlan, data_parallel_step)
from repro.nn import resnet20
from repro.optim import SGD
from repro.prune import prune_and_reconfigure
from repro.tensor import blas

from ..conftest import sparsify_space

pytestmark = pytest.mark.distributed

SMALL = dict(width_mult=0.25, input_hw=8)
SGD_KW = dict(lr=0.05, momentum=0.9, weight_decay=5e-4)


@pytest.fixture(scope="module")
def batch():
    ds = make_synthetic(10, 32, hw=8, noise=0.8, seed=0)
    return ds.x, ds.y


def fresh():
    m = resnet20(10, **SMALL, seed=3)
    m.train()
    return m, SGD(m.parameters(), **SGD_KW)


def momentum_by_name(model, opt):
    out = {}
    for name, p in model.named_parameters():
        buf = opt.state_for(p)
        out[name] = None if buf is None else buf.copy()
    return out


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


def run_sim(batch, steps, workers_at=lambda s: 2, prune_at=None):
    """Reference: in-process simulation with a per-step worker count."""
    x, y = batch
    m, opt = fresh()
    out = []
    for s in range(steps):
        if prune_at is not None and s == prune_at:
            _prune(m, opt)
        res, _ = data_parallel_step(m, x, y, workers=workers_at(s))
        opt.step()
        out.append((res.loss, res.accuracy, res.comm_bytes_per_worker))
    return m, opt, out


def run_elastic(batch, steps, workers=2, plan=None, timeout=10.0,
                prune_at=None):
    x, y = batch
    m, opt = fresh()
    with ElasticEngine(m, workers=workers, heartbeat_timeout=timeout,
                       fault_plan=plan) as eng:
        out = []
        for s in range(steps):
            if prune_at is not None and s == prune_at:
                _prune(m, opt)
            r = eng.step(x, y)
            opt.step()
            out.append((r.loss, r.accuracy, r.comm_bytes_per_worker))
        failures = list(eng.failures)
        active = eng.active_workers
    return m, opt, out, failures, active


def _prune(m, opt):
    """Force a real structural reconfiguration (2 channels per free space)."""
    for sid, sp in list(m.graph.spaces.items()):
        if not sp.frozen:
            sparsify_space(m.graph, sid, [0, 1])
    rep = prune_and_reconfigure(m, opt, threshold=1e-3, remove_layers=True,
                                zero_sparse=True)
    assert rep.channels_pruned > 0


def metrics_equal(a, b):
    return [tuple(map(float, t)) for t in a] == \
        [tuple(map(float, t)) for t in b]


class TestParity:
    def test_bit_exact_vs_simulation(self, batch):
        ms, opts, outs = run_sim(batch, steps=4)
        me, opte, oute, failures, active = run_elastic(batch, steps=4)
        assert failures == [] and active == 2
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_three_workers(self, batch):
        ms, opts, outs = run_sim(batch, steps=3, workers_at=lambda s: 3)
        me, opte, oute, failures, active = run_elastic(batch, steps=3,
                                                       workers=3)
        assert failures == [] and active == 3
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_resync_after_pruning_bit_exact(self, batch):
        """Reconfiguration mid-run: replicas rebuilt from serialized state,
        trajectory stays bit-identical (and comm bytes shrink)."""
        ms, opts, outs = run_sim(batch, steps=6, prune_at=3)
        me, opte, oute, failures, _ = run_elastic(batch, steps=6, prune_at=3)
        assert failures == []
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)
        assert oute[-1][2] < oute[0][2]  # pruned payload moves fewer bytes

    def test_more_workers_than_samples(self, batch):
        """Idle workers (k > n) neither stall nor perturb the result."""
        x, y = batch
        small = (x[:2], y[:2])
        ms, opts, outs = run_sim(small, steps=2, workers_at=lambda s: 2)
        me, opte, oute, failures, active = run_elastic(small, steps=2,
                                                       workers=4)
        assert failures == [] and active == 4
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)


class TestFaults:
    def test_kill_at_start_equals_single_worker(self, batch):
        """Worker 1 dies on its first command: the whole run must equal a
        clean one-worker run bit for bit (step 0 retried on the survivor)."""
        ms, opts, outs = run_sim(batch, steps=3, workers_at=lambda s: 1)
        plan = FaultPlan().kill(1, at_step=0)
        me, opte, oute, failures, active = run_elastic(batch, steps=3,
                                                       plan=plan, timeout=5.0)
        assert active == 1
        assert [f.rank for f in failures] == [1]
        assert failures[0].step == 0 and failures[0].reason == "died"
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_kill_mid_run_equals_degraded_continuation(self, batch):
        """Kill at step 2 of 5: steps 0-1 are K=2, steps 2-4 must equal a
        clean K=1 continuation of the same coordinator state."""
        ms, opts, outs = run_sim(batch, steps=5,
                                 workers_at=lambda s: 2 if s < 2 else 1)
        plan = FaultPlan().kill(1, at_step=2)
        me, opte, oute, failures, active = run_elastic(batch, steps=5,
                                                       plan=plan, timeout=5.0)
        assert active == 1
        assert [(f.rank, f.step) for f in failures] == [(1, 2)]
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_hang_trips_heartbeat_timeout(self, batch):
        """A hung worker stops beating; the coordinator evicts it after the
        timeout and the run degrades exactly like a death."""
        ms, opts, outs = run_sim(batch, steps=3,
                                 workers_at=lambda s: 2 if s < 1 else 1)
        plan = FaultPlan().hang(1, at_step=1, seconds=120)
        me, opte, oute, failures, active = run_elastic(batch, steps=3,
                                                       plan=plan, timeout=0.8)
        assert active == 1
        assert [(f.rank, f.step, f.reason) for f in failures] == \
            [(1, 1, "heartbeat")]
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_corrupt_heartbeat_evicts(self, batch):
        """A garbage (NaN) heartbeat is indistinguishable from staleness:
        the worker is evicted even though its process is alive."""
        ms, opts, outs = run_sim(batch, steps=3,
                                 workers_at=lambda s: 2 if s < 1 else 1)
        plan = FaultPlan().corrupt_heartbeat(0, at_step=1)
        me, opte, oute, failures, active = run_elastic(batch, steps=3,
                                                       plan=plan, timeout=0.8)
        assert active == 1
        assert [(f.rank, f.reason) for f in failures] == [(0, "heartbeat")]
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_failure_during_reconfiguration_resync(self, batch):
        """Worker killed by the resync command itself (pruning barrier):
        the survivor resyncs and continues, equal to a clean degraded run."""
        def workers_at(s):
            return 2 if s < 3 else 1
        ms, opts, outs = run_sim(batch, steps=5, workers_at=workers_at,
                                 prune_at=3)
        plan = FaultPlan().kill(1, at_step=3)
        me, opte, oute, failures, active = run_elastic(
            batch, steps=5, plan=plan, timeout=5.0, prune_at=3)
        assert active == 1
        assert [(f.rank, f.step, f.phase) for f in failures] == \
            [(1, 3, "resync")]
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_all_workers_dead_raises(self, batch):
        x, y = batch
        m, opt = fresh()
        plan = FaultPlan().kill(0, at_step=1).kill(1, at_step=1)
        with ElasticEngine(m, workers=2, heartbeat_timeout=5.0,
                           fault_plan=plan) as eng:
            eng.step(x, y)
            with pytest.raises(RuntimeError, match="all elastic workers"):
                eng.step(x, y)

    def test_scripted_faults_are_deterministic(self, batch):
        """Two runs under the same fault plan produce identical metrics,
        identical failure records, and identical final state."""
        plan = FaultPlan().kill(1, at_step=1)
        a = run_elastic(batch, steps=4, plan=plan, timeout=5.0)
        b = run_elastic(batch, steps=4, plan=plan, timeout=5.0)
        assert metrics_equal(a[2], b[2])
        assert a[3] == b[3]
        assert_state_equal(a[0], a[1], b[0], b[1])


class TestEngineApi:
    def test_invalid_worker_count(self, batch):
        m, _ = fresh()
        with pytest.raises(ValueError):
            ElasticEngine(m, workers=0)

    def test_empty_batch_raises(self, batch):
        x, y = batch
        m, _ = fresh()
        with ElasticEngine(m, workers=2) as eng:
            with pytest.raises(ValueError, match="empty batch"):
                eng.step(x[:0], y[:0])

    def test_shutdown_idempotent(self, batch):
        x, y = batch
        m, _ = fresh()
        eng = ElasticEngine(m, workers=2)
        eng.step(x, y)
        eng.shutdown()
        eng.shutdown()
        assert eng.active_workers == 2  # back to configured (not started)

    def test_blas_runs_at_each_workers_share_of_the_cpus(self, batch):
        """Forked from a coordinator running one BLAS thread more than its
        share, each of K = 2 workers runs its step at ``max(1, cpus // 2)``
        threads and reports it, the coordinator waits for them at that
        width, and its own count is restored after the step."""
        if blas.blas_threads() is None:
            pytest.skip("no controllable BLAS backend")
        x, y = batch
        want = max(1, len(os.sched_getaffinity(0)) // 2)
        seen = []
        m, _ = fresh()
        with blas.limit_blas_threads(want + 1):
            with ElasticEngine(m, workers=2) as eng:
                real_await = eng._await

                def spy(*args):
                    seen.append(blas.blas_threads())
                    return real_await(*args)

                eng._await = spy
                eng.step(x, y)
                assert eng.worker_blas_threads == {0: want, 1: want}
                assert seen == [want]
                assert blas.blas_threads() == want + 1

"""Overlapped zero-copy gradient exchange: bucketed-ring bit-exactness,
bucket planning invariants, differential parity
of the elastic engine (compiled workers, and the packed eager fallback a
capture failure selects) against the simulation across the full PruneTrain
schedule, mid-exchange fault recovery, and shared-memory teardown
robustness."""

import numpy as np
import pytest

from repro.data import make_synthetic
from repro.distributed import (COMM_STATS, ElasticEngine, FaultPlan,
                               data_parallel_step, module_param_groups,
                               plan_gradient_buckets, ring_allreduce,
                               ring_allreduce_range)
from repro.nn import resnet20
from repro.optim import SGD
from repro.prune import prune_and_reconfigure
from repro.tensor import workspace

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


def run_sim(batch, workers_at=lambda s: 2, **sched_kw):
    m, opt = fresh()
    out = []
    for s, do_prune, xb, yb in schedule(batch, **sched_kw):
        if do_prune:
            _prune(m, opt)
        res, _ = data_parallel_step(m, xb, yb, workers=workers_at(s))
        opt.step()
        out.append((res.loss, res.accuracy, res.comm_bytes_per_worker))
    return m, opt, out


def run_elastic(batch, workers=2, plan=None, timeout=10.0, sched_kw=None,
                **engine_kw):
    m, opt = fresh()
    with ElasticEngine(m, workers=workers, heartbeat_timeout=timeout,
                       fault_plan=plan, **engine_kw) as eng:
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


# -- bucketed ring == monolithic ring (the overlap correctness kernel) -------

class TestBucketedRing:
    def test_any_partition_any_order_matches_monolithic(self):
        """Reducing a payload bucket by bucket — arbitrary cuts, shuffled
        launch order, any worker count — must reproduce the monolithic
        ring's bits exactly."""
        rng = np.random.default_rng(7)
        for p in (2, 3, 4, 5):
            total = int(rng.integers(50, 400))
            base = rng.standard_normal((p, total)).astype(np.float32)
            mono = [b.copy() for b in base]
            ring_allreduce(mono, average=True)
            for trial in range(3):
                ncuts = int(rng.integers(0, 6))
                cuts = sorted(rng.integers(0, total + 1, size=ncuts))
                bounds = [0] + list(cuts) + [total]
                ranges = [(int(bounds[i]), int(bounds[i + 1]))
                          for i in range(len(bounds) - 1)]
                rng.shuffle(ranges)
                bucketed = [b.copy() for b in base]
                moved = sum(ring_allreduce_range(bucketed, total, lo, hi)
                            for lo, hi in ranges)
                for w in range(p):
                    np.testing.assert_array_equal(bucketed[w], mono[w])
                # bytes moved sums exactly to the monolithic total
                assert moved == 2 * (p - 1) * total * 4

    def test_range_validation(self):
        flats = [np.zeros(8, np.float32) for _ in range(2)]
        with pytest.raises(ValueError, match="bad range"):
            ring_allreduce_range(flats, 8, 5, 3)
        with pytest.raises(ValueError, match="bad range"):
            ring_allreduce_range(flats, 8, 0, 9)
        assert ring_allreduce_range(flats, 8, 4, 4) == 0
        assert ring_allreduce_range([flats[0]], 8, 0, 8) == 0


class TestBucketPlanning:
    def test_buckets_cover_payload_in_backward_order(self):
        m, _ = fresh()
        params = m.parameters()
        sizes = [p.data.size for p in params]
        offsets = list(np.cumsum([0] + sizes[:-1]))
        groups = module_param_groups(m)
        buckets = plan_gradient_buckets(sizes, offsets, groups, 16384)
        assert len(buckets) > 1
        # backward order: bucket 0 holds the LAST parameters (produced
        # first by backward), and together they tile the payload exactly
        assert buckets[0].hi == sum(sizes)
        assert buckets[-1].lo == 0
        for a, b in zip(buckets, buckets[1:]):
            assert b.hi == a.lo           # contiguous, descending
        covered = sorted(i for b in buckets for i in b.param_indices)
        assert covered == list(range(len(params)))
        # module alignment: no group is split across buckets
        owner = {}
        for b in buckets:
            for i in b.param_indices:
                owner[i] = b.index
        for g0, g1 in groups:
            assert len({owner[i] for i in range(g0, g1)}) == 1

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target_bytes"):
            plan_gradient_buckets([4], [0], [(0, 1)], 0)


# -- differential parity against the simulation -----------------------------

class TestOverlapParity:
    def test_full_schedule_k2_equals_sim(self, batch):
        """Pruning, layer removal, and batch growth: the overlapped
        zero-copy engine reproduces the simulation bit for bit."""
        ms, opts, outs = run_sim(batch)
        me, opte, oute, failures, active = run_elastic(
            batch, bucket_bytes=16384)
        assert failures == [] and active == 2
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_full_schedule_k3_overlap_equals_sim(self, batch):
        ms, opts, outs = run_sim(batch, workers_at=lambda s: 3)
        me, opte, oute, failures, active = run_elastic(
            batch, workers=3, bucket_bytes=16384)
        assert failures == [] and active == 3
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_overlap_actually_buckets(self, batch):
        """The engine exchanges bucket by bucket — several per step, each
        announced by every worker — and reports the simulation's per-step
        comm bytes."""
        _, _, outs = run_sim(batch)
        COMM_STATS.reset()
        _, _, oute, _, _ = run_elastic(batch, bucket_bytes=16384)
        assert COMM_STATS.buckets_reduced > len(oute)
        assert COMM_STATS.bucket_launches == 2 * COMM_STATS.buckets_reduced
        assert [t[2] for t in oute] == [t[2] for t in outs]

    def test_capture_failure_packs_eager_and_equals_sim(self, batch):
        """Workers whose capture fails — the seed conv lowering refuses it,
        and forked workers inherit the engine they were started under —
        step eagerly, pack their gradients and announce after the pack:
        still the simulation's bits under that same engine."""
        with workspace.engine(conv_impl="im2col"):
            ms, opts, outs = run_sim(batch)
            COMM_STATS.reset()
            me, opte, oute, failures, active = run_elastic(
                batch, bucket_bytes=16384)
        assert failures == [] and active == 2
        assert COMM_STATS.buckets_reduced > len(oute)
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)


# -- faults across the overlapped exchange -----------------------------------

class TestOverlapFaults:
    def test_kill_resume_across_overlap_boundary(self, batch):
        """A kill/resume sequence produces the degraded trajectory of a
        clean run at the surviving worker count."""
        ms, opts, outs = run_sim(batch,
                                 workers_at=lambda s: 2 if s < 2 else 1)
        plan = FaultPlan().kill(1, at_step=2)
        me, opte, oute, failures, active = run_elastic(
            batch, plan=plan, timeout=5.0, bucket_bytes=16384)
        assert active == 1
        assert [(f.rank, f.step) for f in failures] == [(1, 2)]
        assert metrics_equal(outs, oute)
        assert_state_equal(ms, opts, me, opte)

    def test_kill_between_bucket_launches(self, batch):
        """A worker dying mid-backward — after announcing one bucket, with
        that bucket possibly already reduced in place — voids the attempt;
        the retry equals a clean smaller-K step."""
        ms, opts, outs = run_sim(batch,
                                 workers_at=lambda s: 2 if s < 1 else 1)
        plan = FaultPlan().kill_after_bucket(1, at_step=1, bucket=1)
        me, opte, oute, failures, active = run_elastic(
            batch, plan=plan, timeout=5.0, bucket_bytes=16384)
        assert active == 1
        assert [(f.rank, f.step, f.reason, f.phase) for f in failures] == \
            [(1, 1, "died", "step")]
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

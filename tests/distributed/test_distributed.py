"""Ring allreduce correctness, data-parallel steps, dynamic mini-batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import (MemoryModel, gradient_payload_bytes,
                             ring_allreduce_bytes)
from repro.data import make_synthetic
from repro.distributed import (DynamicBatchAdjuster, GradPayload,
                               data_parallel_step, exchange, ring_allreduce)
from repro.distributed.worker import shard_bounds
from repro.nn import Module, Parameter, resnet20
from repro.optim import SGD
from repro.prune import prune_and_reconfigure

from ..conftest import sparsify_space

SMALL = dict(width_mult=0.25, input_hw=8)


class TestRingAllreduce:
    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    @pytest.mark.parametrize("n", [1, 5, 64, 1000])
    def test_all_workers_get_mean(self, p, n, rng):
        bufs = [rng.normal(size=n) for _ in range(p)]
        expect = np.mean(bufs, axis=0)
        ring_allreduce(bufs)
        for b in bufs:
            np.testing.assert_allclose(b, expect, rtol=1e-10)

    def test_sum_mode(self, rng):
        bufs = [rng.normal(size=10) for _ in range(3)]
        expect = np.sum(bufs, axis=0)
        ring_allreduce(bufs, average=False)
        np.testing.assert_allclose(bufs[0], expect, rtol=1e-10)

    def test_single_worker_noop(self, rng):
        b = rng.normal(size=10)
        orig = b.copy()
        trace = ring_allreduce([b])
        np.testing.assert_array_equal(b, orig)
        assert trace.bytes_per_worker == 0.0

    def test_bytes_match_closed_form(self, rng):
        p, n = 4, 1000
        bufs = [rng.normal(size=n) for _ in range(p)]
        trace = ring_allreduce(bufs)
        expect = ring_allreduce_bytes(n * 8, p)
        assert trace.bytes_per_worker == pytest.approx(expect, rel=0.01)

    def test_steps_count(self, rng):
        bufs = [rng.normal(size=16) for _ in range(4)]
        assert ring_allreduce(bufs).steps == 6  # 2*(P-1)

    def test_mismatched_shapes_raise(self, rng):
        with pytest.raises(ValueError):
            ring_allreduce([rng.normal(size=3), rng.normal(size=4)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ring_allreduce([])

    def test_multidim_buffers(self, rng):
        bufs = [rng.normal(size=(3, 4, 5)) for _ in range(3)]
        expect = np.mean(bufs, axis=0)
        ring_allreduce(bufs)
        np.testing.assert_allclose(bufs[2], expect, rtol=1e-10)


class _Layers(Module):
    """A model stand-in: one single-parameter module per array."""

    def __init__(self, arrays):
        super().__init__()
        self.layers = [_Layer(a) for a in arrays]


class _Layer(Module):
    def __init__(self, a):
        super().__init__()
        self.w = Parameter(a)


def exchange_vs_monolithic(p, sizes, seed):
    """Pack random per-worker gradients into their payloads and
    :func:`exchange` them; also concatenate the same gradients by hand and
    reduce those with one monolithic ``ring_allreduce``."""
    rng = np.random.default_rng(seed)
    model = _Layers([np.zeros(s, np.float32) for s in sizes])
    payload = GradPayload(model)
    flats = np.empty((p, payload.total), np.float32)
    mono = []
    for flat in flats:
        grads = [rng.normal(size=s).astype(np.float32) for s in sizes]
        for param, g in zip(model.parameters(), grads):
            param.grad = g
        payload.pack_grads(flat)
        mono.append(np.concatenate(grads))
    trace = ring_allreduce(mono)
    return payload, exchange(list(flats)), trace, flats, mono


class TestBucketExchange:
    def test_reduces_heterogeneous_shapes(self):
        shapes = [(3, 4), (7,), (2, 2, 2)]
        rng = np.random.default_rng(0)
        model = _Layers([np.zeros(s, np.float32) for s in shapes])
        payload = GradPayload(model)
        grads = [[rng.normal(size=s).astype(np.float32) for s in shapes]
                 for _ in range(3)]
        flats = np.empty((3, payload.total), np.float32)
        for flat, worker in zip(flats, grads):
            for p, g in zip(model.parameters(), worker):
                p.grad = g
            payload.pack_grads(flat)
        exchange(list(flats))
        payload.unpack_grads(flats[1])
        for i, p in enumerate(model.parameters()):
            np.testing.assert_allclose(
                p.grad, np.mean([g[i] for g in grads], axis=0), rtol=1e-6)

    def test_single_worker_zero_bytes(self):
        flat = np.ones(4, np.float32)
        assert exchange([flat]) == 0.0
        np.testing.assert_array_equal(flat, 1.0)


class TestShardBounds:
    @given(n=st.integers(1, 600), workers=st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_property_contiguous_balanced_shards(self, n, workers):
        """Odd batches and tail batches keep every participating worker
        busy: exactly ``min(workers, n)`` non-empty contiguous shards that
        tile ``[0, n)`` and differ in size by at most one sample."""
        bounds = shard_bounds(n, workers)
        assert bounds[0] == 0 and bounds[-1] == n
        sizes = np.diff(bounds)
        assert len(sizes) == min(workers, n)
        assert (sizes > 0).all()
        assert sizes.max() - sizes.min() <= 1

    def test_rejects_no_workers_and_empty_batch(self):
        with pytest.raises(ValueError, match="workers"):
            shard_bounds(8, 0)
        with pytest.raises(ValueError, match="empty batch"):
            shard_bounds(0, 2)


class TestDataParallelStep:
    def test_matches_sequential_shard_average(self):
        """K-worker gradients must equal the mean of per-shard gradients."""
        ds = make_synthetic(10, 32, hw=8, seed=0)
        m = resnet20(10, **SMALL, seed=1)
        params = m.parameters()

        res, shards = data_parallel_step(m, ds.x, ds.y, workers=4)
        par_grads = [p.grad.copy() for p in params]

        # manual: average of per-shard backward passes
        from repro.tensor import Tensor
        from repro.tensor import functional as F
        bounds = np.cumsum([0] + shards)
        manual = [np.zeros_like(p.data) for p in params]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            m.zero_grad()
            loss = F.cross_entropy(m(Tensor(ds.x[lo:hi])), ds.y[lo:hi])
            loss.backward()
            for acc, p in zip(manual, params):
                acc += p.grad / 4
        for got, want in zip(par_grads, manual):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)

    def test_reports_comm_bytes(self):
        ds = make_synthetic(10, 16, hw=8, seed=0)
        m = resnet20(10, **SMALL)
        res, _ = data_parallel_step(m, ds.x, ds.y, workers=4)
        assert res.comm_bytes_per_worker > 0

    def test_single_worker_no_comm(self):
        ds = make_synthetic(10, 16, hw=8, seed=0)
        m = resnet20(10, **SMALL)
        res, _ = data_parallel_step(m, ds.x, ds.y, workers=1)
        assert res.comm_bytes_per_worker == 0.0

    def test_invalid_workers(self):
        ds = make_synthetic(10, 8, hw=8, seed=0)
        m = resnet20(10, **SMALL)
        with pytest.raises(ValueError):
            data_parallel_step(m, ds.x, ds.y, workers=0)

    def test_empty_batch_raises(self):
        ds = make_synthetic(10, 8, hw=8, seed=0)
        m = resnet20(10, **SMALL)
        with pytest.raises(ValueError, match="empty batch"):
            data_parallel_step(m, ds.x[:0], ds.y[:0], workers=2)

    def test_more_workers_than_samples_clamps(self):
        """Empty shards must not appear (and must not dilute the average):
        with workers > n the step runs exactly as with workers = n."""
        ds = make_synthetic(10, 3, hw=8, seed=0)
        m8 = resnet20(10, **SMALL, seed=1)
        res8, shards8 = data_parallel_step(m8, ds.x, ds.y, workers=8)
        m3 = resnet20(10, **SMALL, seed=1)
        res3, shards3 = data_parallel_step(m3, ds.x, ds.y, workers=3)
        assert shards8 == shards3 == [1, 1, 1]
        assert res8.loss == res3.loss
        assert res8.accuracy == res3.accuracy
        assert res8.comm_bytes_per_worker == res3.comm_bytes_per_worker
        for p8, p3 in zip(m8.parameters(), m3.parameters()):
            np.testing.assert_array_equal(p8.grad, p3.grad)

    def test_clamped_divisor_matches_single_worker_mean(self):
        """With n=1 the clamp makes any worker count equal the plain step —
        a skipped empty shard must not change the gradient divisor."""
        ds = make_synthetic(10, 1, hw=8, seed=0)
        mk = resnet20(10, **SMALL, seed=1)
        resk, shards = data_parallel_step(mk, ds.x, ds.y, workers=4)
        assert shards == [1]
        assert resk.comm_bytes_per_worker == 0.0
        m1 = resnet20(10, **SMALL, seed=1)
        res1, _ = data_parallel_step(m1, ds.x, ds.y, workers=1)
        assert resk.loss == res1.loss
        for pk, p1 in zip(mk.parameters(), m1.parameters()):
            np.testing.assert_array_equal(pk.grad, p1.grad)

    def test_optimizer_step_after_parallel(self):
        ds = make_synthetic(10, 16, hw=8, seed=0)
        m = resnet20(10, **SMALL)
        opt = SGD(m.parameters(), 0.1)
        before = m.stem.weight.data.copy()
        data_parallel_step(m, ds.x, ds.y, workers=2)
        opt.step()
        assert not np.array_equal(before, m.stem.weight.data)

    @pytest.mark.parametrize("k", [2, 3])
    def test_measured_volume_is_the_fig11_model(self, k):
        """The bytes a step moves are the cost model's ring volume over the
        model's gradient payload (Fig. 11), and shrink with the payload when
        reconfiguration prunes channels and layers."""
        ds = make_synthetic(10, 12, hw=8, seed=0)
        m = resnet20(10, **SMALL, seed=1)
        opt = SGD(m.parameters(), 0.1)
        volumes = []
        for pruned in (False, True):
            if pruned:
                for sid, sp in list(m.graph.spaces.items()):
                    if not sp.frozen:
                        sparsify_space(m.graph, sid, [0, 1])
                rep = prune_and_reconfigure(m, opt, threshold=1e-3,
                                            remove_layers=True,
                                            zero_sparse=True)
                assert rep.channels_pruned > 0
            res, _ = data_parallel_step(m, ds.x, ds.y, workers=k)
            assert type(res.comm_bytes_per_worker) is float
            assert res.comm_bytes_per_worker == pytest.approx(
                ring_allreduce_bytes(gradient_payload_bytes(m.graph), k),
                rel=1e-12)
            volumes.append(res.comm_bytes_per_worker)
        assert volumes[1] < volumes[0]


class TestDynamicBatchAdjuster:
    def _adjuster(self, cap=60e6, **kw):
        return DynamicBatchAdjuster(MemoryModel(capacity_bytes=cap), **kw)

    def test_grows_batch_when_memory_allows(self):
        m = resnet20(10, **SMALL)
        adj = self._adjuster(cap=1e9, granularity=32, max_batch=512)
        a = adj.propose(m.graph, 64)
        assert a.new_batch > 64
        assert a.lr_scale == pytest.approx(a.new_batch / 64)

    def test_never_shrinks_by_default(self):
        m = resnet20(10, width_mult=1.0, input_hw=32)
        adj = self._adjuster(cap=1e6)  # tiny memory
        a = adj.propose(m.graph, 128)
        assert a.new_batch == 128

    def test_shrink_mode(self):
        """There is none: pruning only frees memory."""
        with pytest.raises(TypeError):
            self._adjuster(cap=5e6, shrink=True, granularity=8)

    def test_respects_max_batch(self):
        m = resnet20(10, **SMALL)
        adj = self._adjuster(cap=1e12, max_batch=256)
        assert adj.propose(m.graph, 64).new_batch == 256

    def test_none_rule_keeps_the_lr(self):
        m = resnet20(10, **SMALL)
        adj = self._adjuster(cap=1e9, lr_rule="none", max_batch=256)
        a = adj.propose(m.graph, 64)
        assert a.new_batch > 64
        assert a.lr_scale == 1.0

    def test_unknown_rule_raises(self):
        m = resnet20(10, **SMALL)
        adj = self._adjuster(lr_rule="bogus")
        with pytest.raises(ValueError):
            adj.propose(m.graph, 64)

    def test_history_recorded(self):
        m = resnet20(10, **SMALL)
        adj = self._adjuster(cap=1e9)
        adj.propose(m.graph, 64)
        adj.propose(m.graph, 96)
        assert len(adj.history) == 2


@given(st.integers(2, 6), st.integers(1, 200))
@settings(max_examples=20, deadline=None)
def test_property_allreduce_preserves_mean(p, n):
    rng = np.random.default_rng(p * 1000 + n)
    bufs = [rng.normal(size=n) for _ in range(p)]
    mean_before = np.mean(bufs, axis=0)
    ring_allreduce(bufs)
    np.testing.assert_allclose(bufs[0], mean_before, rtol=1e-9)


@given(p=st.integers(2, 8), n=st.integers(1, 300),
       dtype=st.sampled_from(["float32", "float64"]))
@settings(max_examples=40, deadline=None)
def test_property_allreduce_bytes_closed_form(p, n, dtype):
    """Moved bytes equal 2(P-1)/P * payload *exactly*: every ring step ships
    each of the P chunks once, whatever the (uneven) chunking."""
    dt = np.dtype(dtype)
    rng = np.random.default_rng(p * 100000 + n)
    bufs = [rng.normal(size=n).astype(dt) for _ in range(p)]
    trace = ring_allreduce(bufs)
    assert trace.steps == 2 * (p - 1)
    assert trace.bytes_per_worker == pytest.approx(
        ring_allreduce_bytes(n * dt.itemsize, p), rel=1e-12)


@given(p=st.integers(2, 8),
       sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_property_bucket_exchange_mean_and_bytes(p, sizes):
    """Uneven per-parameter payloads: pack then exchange reproduces the
    monolithic ring's bits and its per-worker bytes, the fused-payload
    closed form, as a Python ``float``."""
    payload, comm, trace, flats, mono = exchange_vs_monolithic(
        p, sizes, seed=p * 7919 + sum(sizes) * 31)
    assert type(comm) is float
    assert comm == trace.bytes_per_worker
    assert comm == pytest.approx(
        ring_allreduce_bytes(payload.total * 4, p), rel=1e-12)
    for got, want in zip(flats, mono):
        assert got.tobytes() == want.tobytes()

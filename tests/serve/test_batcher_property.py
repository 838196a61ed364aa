"""Property tests for the dynamic batcher, driven in virtual time.

The batcher is a pure state machine (no clock, no threads), so these
tests run seeded arrival processes through a deterministic event loop and
check the dispatch invariants exhaustively:

- every submitted request is dispatched exactly once;
- no batch exceeds ``max_batch`` and no batch mixes models;
- per-model FIFO order is preserved;
- batches leave in the arrival order of their oldest request, across
  models;
- dispatch is work-conserving: with an instant worker nobody waits, and
  with a busy worker the only wait is the service windows of the batches
  taken ahead of the request — full batches are never held;
- ``late`` counts exactly the waits above ``latency_budget``;
- padding rows never leak into responses (checked end-to-end through a
  real server, since padding happens at the plan-replay layer).
"""

import itertools

import numpy as np
import pytest

from repro.experiments.configs import SMOKE, make_model
from repro.serve import (BatcherConfig, DynamicBatcher, InferenceServer,
                         ModelRegistry)
from repro.tensor import Tensor, no_grad

SEEDS = [0, 1, 2, 3, 4]


def _arrival_process(seed, n_req, n_models, mean_gap):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_gap, size=n_req))
    models = [f"m{k}" for k in rng.integers(0, n_models, size=n_req)]
    return arrivals, models


def _drive(batcher, arrivals, models, service=0.0):
    """Deterministic event loop: submit arrivals on schedule; whenever the
    (virtual) worker is free and a request is queued, take one batch, which
    occupies the worker for ``service`` seconds.  A request arriving at the
    instant the worker frees up is queued first.  Returns per-request
    dispatch records ``rid -> (model, dispatch_time, batch_id)`` and batch
    metadata ``(model, items, start)`` in dispatch order.
    """
    n = len(arrivals)
    i = 0
    now = 0.0
    free_at = 0.0
    dispatch = {}
    batch_meta = []
    while i < n or batcher.pending():
        if i < n and (not batcher.pending() or arrivals[i] <= free_at):
            now = max(now, arrivals[i])
            batcher.submit(models[i], i, now=arrivals[i])
            i += 1
            continue
        now = max(now, free_at)
        model, items = batcher.take(now)
        bid = len(batch_meta)
        for item in items:
            assert item not in dispatch, "request dispatched twice"
            dispatch[item] = (model, now, bid)
        batch_meta.append((model, items, now))
        free_at = now + service
    assert batcher.take(now) is None
    return dispatch, batch_meta


def _check_dispatch(cfg, arrivals, models, dispatch, batch_meta):
    """The invariants every schedule keeps, whatever the service time."""
    # exactly once
    assert sorted(dispatch) == list(range(len(arrivals)))
    # batch caps and model purity
    for model, items, _t in batch_meta:
        assert 1 <= len(items) <= cfg.max_batch
        assert all(models[i] == model for i in items)
    # per-model FIFO
    for m in set(models):
        order = [i for _, items, _t in batch_meta
                 for i in items if models[i] == m]
        assert order == sorted(order)
    # batches leave in the arrival order of their oldest request
    heads = [items[0] for _m, items, _t in batch_meta]
    assert heads == sorted(heads)


@pytest.mark.parametrize("seed", SEEDS)
def test_batcher_invariants_idle_worker(seed):
    """An instant worker is always free: every request dispatches on
    arrival, however loose the budget."""
    cfg = BatcherConfig(max_batch=8, latency_budget=5.0)
    batcher = DynamicBatcher(cfg)
    arrivals, models = _arrival_process(seed, n_req=400, n_models=3,
                                        mean_gap=1.0)
    dispatch, batch_meta = _drive(batcher, arrivals, models, service=0.0)

    _check_dispatch(cfg, arrivals, models, dispatch, batch_meta)
    assert batcher.pending() == 0
    for rid, (_m, t_dispatch, _b) in dispatch.items():
        assert t_dispatch == arrivals[rid], f"request {rid} waited"
    assert batcher.late == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_batcher_wait_bound_busy_worker(seed):
    """With a busy worker, a request waits only while the worker runs the
    batches taken ahead of it: it arrived during a batch and the worker
    stayed busy until it was taken."""
    service = 2.0
    cfg = BatcherConfig(max_batch=8, latency_budget=5.0)
    batcher = DynamicBatcher(cfg)
    # offered 1 req/s vs capacity max_batch/service = 4 req/s
    arrivals, models = _arrival_process(seed, n_req=300, n_models=2,
                                        mean_gap=1.0)
    dispatch, batch_meta = _drive(batcher, arrivals, models, service=service)

    _check_dispatch(cfg, arrivals, models, dispatch, batch_meta)
    starts = [t for _m, _items, t in batch_meta]
    assert any(dispatch[r][1] > arrivals[r] for r in dispatch), \
        "the worker was never busy"
    for rid, (_m, t_dispatch, bid) in dispatch.items():
        wait = t_dispatch - arrivals[rid]
        ahead = [t for t in starts[:bid] if t + service > arrivals[rid]]
        assert wait <= service * len(ahead) + 1e-9, (
            f"request {rid} waited {wait:.3f}s behind {len(ahead)} batches")
        if wait > 0:
            # back to back from the batch running at its arrival
            assert ahead and ahead[0] <= arrivals[rid]
            assert t_dispatch == pytest.approx(ahead[0]
                                               + service * len(ahead))


@pytest.mark.parametrize("seed", SEEDS)
def test_full_batches_dispatch_without_budget_wait(seed):
    """Arrivals faster than the worker form full batches, each dispatched
    the moment the worker frees up, never held for the latency budget."""
    service = 0.1
    cfg = BatcherConfig(max_batch=4, latency_budget=100.0)
    batcher = DynamicBatcher(cfg)
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.01, size=64))
    models = ["m0"] * 64
    dispatch, batch_meta = _drive(batcher, arrivals, models, service=service)
    _check_dispatch(cfg, arrivals, models, dispatch, batch_meta)
    full = [items for _m, items, _t in batch_meta if len(items) == 4]
    assert len(full) >= 12
    free_at = 0.0
    for _m, items, t in batch_meta:
        assert t == max(free_at, arrivals[items[0]]), "batch was held back"
        free_at = t + service


@pytest.mark.parametrize("seed", SEEDS)
def test_late_counts_the_waits_above_the_budget(seed):
    """The budget no longer holds a batch; it counts the requests a busy
    worker dispatched after ``arrival + latency_budget``."""
    arrivals, models = _arrival_process(seed, n_req=300, n_models=2,
                                        mean_gap=1.0)
    loose = DynamicBatcher(BatcherConfig(max_batch=8, latency_budget=100.0))
    _drive(loose, arrivals, models, service=2.0)
    assert loose.late == 0

    tight = DynamicBatcher(BatcherConfig(max_batch=8, latency_budget=0.5))
    dispatch, _ = _drive(tight, arrivals, models, service=2.0)
    waits = [t - arrivals[rid] for rid, (_m, t, _b) in dispatch.items()]
    assert tight.late == sum(1 for w in waits if w > 0.5) > 0


def test_batches_leave_in_arrival_order_across_models():
    """A request of one model is not queued behind full batches of another
    that formed from later arrivals: the oldest request's batch goes next,
    whatever order the models' queues were created in."""
    cfg = BatcherConfig(max_batch=4, latency_budget=0.0)
    batcher = DynamicBatcher(cfg)
    # request 0 keeps the worker busy until t=1; meanwhile "a" queues one
    # request, then "b" one, then "a" seven more: two full batches of "a",
    # the second formed wholly after "b" arrived
    arrivals = [0.0, 0.1, 0.2] + [0.3 + 0.05 * j for j in range(7)]
    models = ["a", "a", "b"] + ["a"] * 7
    _dispatch, batch_meta = _drive(batcher, arrivals, models, service=1.0)
    assert [(m, items) for m, items, _t in batch_meta] == [
        ("a", [0]), ("a", [1, 3, 4, 5]), ("b", [2]), ("a", [6, 7, 8, 9])]
    assert [t for _m, _items, t in batch_meta] == [0.0, 1.0, 2.0, 3.0]


def test_padding_rows_never_leak_into_responses():
    """End-to-end: groups that get zero-padded to a larger plan batch
    return responses bit-identical to each request's own batch-1 eager
    forward through the served (folded) model — pad rows cannot influence
    any real row."""
    model = make_model("resnet32", "cifar10s", SMOKE, seed=3)
    registry = ModelRegistry(max_models=1)
    served = registry.register_model("m", model)
    rng = np.random.default_rng(5)
    # distinct-constant images: any row/pad mixup would be visible
    samples = np.stack([
        np.full((3, SMOKE.hw, SMOKE.hw), float(i + 1), dtype=np.float32)
        + rng.normal(scale=0.1, size=(3, SMOKE.hw, SMOKE.hw))
        .astype(np.float32) for i in range(6)])
    assert served.warm(4, samples.shape[1:])
    with InferenceServer(registry, max_batch=4,
                         latency_budget=0.002) as server:
        futures = [server.submit("m", samples[i]) for i in range(6)]
        results = [f.result(timeout=30) for f in futures]
    assert served.padded_replays >= 1, "test did not exercise padding"
    for i in range(6):
        with no_grad():
            ref = served.model(Tensor(samples[i:i + 1])).data[0]
        assert np.array_equal(results[i], ref), f"response {i} corrupted"


@pytest.mark.parametrize("budget, late", [(0.5, 3), (1e9, 0)])
def test_server_stats_report_late_dispatches(budget, late):
    """``InferenceServer.stats()["late"]`` is the batcher's count: under a
    clock that ticks by one second per read, every request is dispatched at
    least a second after it arrived."""
    ticks = itertools.count()
    registry = ModelRegistry(max_models=1)
    registry.register_model("m", make_model("resnet32", "cifar10s", SMOKE,
                                            seed=3))
    x = np.zeros((3, 3, SMOKE.hw, SMOKE.hw), dtype=np.float32)
    with InferenceServer(registry, max_batch=4, latency_budget=budget,
                         clock=lambda: float(next(ticks))) as server:
        for f in [server.submit("m", s) for s in x]:
            f.result(timeout=30)
    assert server.stats()["late"] == late

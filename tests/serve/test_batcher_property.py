"""Property tests for the dynamic batcher, driven in virtual time.

The batcher is a pure state machine (no clock, no threads), so these
tests run seeded arrival processes through a deterministic event loop and
check the dispatch invariants exhaustively:

- every submitted request is dispatched exactly once;
- no batch exceeds ``max_batch`` and no batch mixes models;
- per-model FIFO order is preserved;
- the batcher itself never holds a request past ``arrival +
  latency_budget`` — with an idle worker, every request dispatches by its
  deadline; with a busy worker, the only extra wait is the service window
  of batches already executing (at most one batch window at the modeled
  sub-capacity load);
- padding rows never leak into responses (checked end-to-end through a
  real server, since padding happens at the plan-replay layer).
"""

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
    """Deterministic event loop: submit arrivals on schedule, take batches
    when due and the (virtual) worker is idle; each batch occupies the
    worker for ``service`` seconds.  Returns per-request dispatch records
    ``rid -> (model, dispatch_time, batch_id)`` and batch metadata.
    """
    n = len(arrivals)
    INF = float("inf")
    i = 0
    now = 0.0
    busy_until = 0.0
    dispatch = {}
    batch_meta = []
    while i < n or batcher.pending():
        next_arrival = arrivals[i] if i < n else INF
        deadline = batcher.next_deadline()
        # a full queue's deadline is its (past) head arrival; virtual time
        # never runs backwards, so clamp the take to `now`
        next_take = (max(deadline, busy_until, now)
                     if deadline is not None else INF)
        if next_arrival <= next_take:
            now = next_arrival
            while i < n and arrivals[i] <= now:
                batcher.submit(models[i], i, now=arrivals[i])
                i += 1
            # a full batch formed by this arrival dispatches as soon as
            # the worker is free, checked on the next loop turn
            continue
        t = now = next_take
        start = max(t, busy_until)
        for model, items in batcher.take(t):
            bid = len(batch_meta)
            for item in items:
                assert item not in dispatch, "request dispatched twice"
                dispatch[item] = (model, start, bid)
            batch_meta.append((model, items, start))
            start += service
            busy_until = start
    return dispatch, batch_meta


@pytest.mark.parametrize("seed", SEEDS)
def test_batcher_invariants_idle_worker(seed):
    cfg = BatcherConfig(max_batch=8, latency_budget=5.0)
    batcher = DynamicBatcher(cfg)
    arrivals, models = _arrival_process(seed, n_req=400, n_models=3,
                                        mean_gap=1.0)
    dispatch, batch_meta = _drive(batcher, arrivals, models, service=0.0)

    # exactly once
    assert sorted(dispatch) == list(range(len(arrivals)))
    assert batcher.pending() == 0
    # batch caps and model purity
    for model, items, _t in batch_meta:
        assert 1 <= len(items) <= cfg.max_batch
        assert all(models[i] == model for i in items)
    # per-model FIFO
    for m in set(models):
        order = [i for _, items, _t in batch_meta
                 for i in items if models[i] == m]
        assert order == sorted(order)
    # with an idle worker, nobody waits past the latency budget
    for rid, (_m, t_dispatch, _b) in dispatch.items():
        wait = t_dispatch - arrivals[rid]
        assert wait <= cfg.latency_budget + 1e-9, (
            f"request {rid} waited {wait:.3f} > budget")


@pytest.mark.parametrize("seed", SEEDS)
def test_batcher_wait_bound_busy_worker(seed):
    """With a busy worker at sub-capacity load, waits exceed the budget by
    at most one batch window (the batch executing / just taken ahead)."""
    service = 2.0
    cfg = BatcherConfig(max_batch=8, latency_budget=5.0)
    batcher = DynamicBatcher(cfg)
    # offered 1 req/s vs capacity max_batch/service = 4 req/s
    arrivals, models = _arrival_process(seed, n_req=300, n_models=2,
                                        mean_gap=1.0)
    dispatch, batch_meta = _drive(batcher, arrivals, models, service=service)

    assert sorted(dispatch) == list(range(len(arrivals)))
    for model, items, _t in batch_meta:
        assert len(items) <= cfg.max_batch
        assert all(models[i] == model for i in items)
    window = service  # one batch occupies the worker for `service` seconds
    for rid, (_m, t_dispatch, _b) in dispatch.items():
        wait = t_dispatch - arrivals[rid]
        assert wait <= cfg.latency_budget + 2 * window + 1e-9, (
            f"request {rid} waited {wait:.3f}s — more than budget + "
            f"one in-flight window + one same-take window")


@pytest.mark.parametrize("seed", SEEDS)
def test_full_batches_dispatch_without_budget_wait(seed):
    """Back-to-back arrivals form full batches dispatched at formation
    time, never held for the latency budget."""
    cfg = BatcherConfig(max_batch=4, latency_budget=100.0)
    batcher = DynamicBatcher(cfg)
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.01, size=64))
    models = ["m0"] * 64
    dispatch, batch_meta = _drive(batcher, arrivals, models, service=0.0)
    full = [items for _m, items, _t in batch_meta if len(items) == 4]
    assert len(full) == 16
    for _m, items, t in batch_meta:
        formed = arrivals[items[-1]] if len(items) == cfg.max_batch else None
        if formed is not None:
            assert t == pytest.approx(formed), "full batch was held back"


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

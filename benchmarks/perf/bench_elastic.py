"""Elastic data-parallel benchmark: multi-process engine vs in-process sim.

Times one synchronous data-parallel training step of ResNet-32 at the
QUICK scale under the `workers > 1` backends:

* ``sim`` — :func:`repro.distributed.data_parallel_step`, the sequential
  in-process simulation (K eager backwards on one model, ring allreduce
  over local arrays);
* ``elastic`` — :class:`repro.distributed.ElasticEngine`, K forked worker
  processes replaying compiled shard steps concurrently, each packing its
  gradients into shared memory, then one ring allreduce over the packed
  payloads on the coordinator.

Both produce bit-identical gradients (asserted here — a benchmark comparing
diverging computations would be meaningless), so ``elastic_over_sim``
isolates orchestration cost: process scheduling, the parameter broadcast,
pipe traffic, coordinator stall, and the exchange.

Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_elastic.py

writes ``results/BENCH_elastic.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.data import make_synthetic
from repro.distributed import (COMM_STATS, ElasticEngine, data_parallel_step)
from repro.nn import resnet32
from repro.optim import SGD

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "results")
OUT_PATH = os.path.join(RESULTS_DIR, "BENCH_elastic.json")

QUICK = dict(width_mult=0.375, input_hw=12)


def _fresh():
    m = resnet32(10, **QUICK, seed=0)
    m.train()
    return m, SGD(m.parameters(), 0.1, momentum=0.9, weight_decay=5e-4)


def _time_rounds(fn, warmup: int, iters: int, rounds: int) -> float:
    """Best-of-rounds mean ms per call (same methodology as bench_engine)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best * 1e3


def run_bench(workers: int = 2, batch: int = 64, warmup: int = 3,
              iters: int = 5, rounds: int = 4) -> dict:
    ds = make_synthetic(10, batch, hw=12, noise=0.8, seed=0)
    x, y = ds.x, ds.y

    # reference: one sim step (params never change in this benchmark, so
    # every later step recomputes exactly these gradients)
    m_sim, _ = _fresh()
    res_sim, _ = data_parallel_step(m_sim, x, y, workers=workers)
    ref_grads = [p.grad.copy() for p in m_sim.parameters()]
    sim_ms = _time_rounds(
        lambda: data_parallel_step(m_sim, x, y, workers=workers),
        warmup, iters, rounds)

    m_ela, _ = _fresh()
    COMM_STATS.reset()
    with ElasticEngine(m_ela, workers=workers) as engine:
        res_ela = engine.step(x, y)
        assert float(res_sim.loss) == float(res_ela.loss), \
            "backends diverged; comparison would be meaningless"
        assert float(res_sim.comm_bytes_per_worker) == \
            float(res_ela.comm_bytes_per_worker)
        for g, q in zip(ref_grads, m_ela.parameters()):
            assert np.array_equal(g, q.grad)
        stall0 = engine.total_stall_seconds
        ela_ms = _time_rounds(lambda: engine.step(x, y),
                              warmup, iters, rounds)
        stall = engine.total_stall_seconds - stall0
        steps = warmup + iters * rounds

    return {
        "workload": {"model": "resnet32-QUICK", "batch": batch,
                     "workers": workers},
        "train_step": {
            "sim_ms": sim_ms,
            "elastic_ms": ela_ms,
            "elastic_over_sim": ela_ms / sim_ms,
            "comm_bytes_per_worker": float(res_sim.comm_bytes_per_worker),
            "stall_ms_per_step": stall / steps * 1e3,
            "comm": COMM_STATS.as_dict(),
        },
    }


def write_results(results: dict, path: str = OUT_PATH) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    return path


def main() -> None:
    results = run_bench()
    path = write_results(results)
    step = results["train_step"]
    print(f"sim {step['sim_ms']:.2f} ms")
    print(f"elastic {step['elastic_ms']:.2f} ms "
          f"({step['elastic_over_sim']:.2f}x, "
          f"stall {step['stall_ms_per_step']:.2f} ms/step)")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""Engine benchmark: compiled replay and the memory planner, each an A/B
in one process.

* ``results/BENCH_compile.json`` — the eager define-by-run step against the
  compiled StepPlan replay (:mod:`repro.tensor.compile`);
* ``results/BENCH_memplan.json`` — the arena-planned compiled step against
  its eager twin: bit identity and resident plan bytes.

``results/BENCH_engine.json`` is history: the seed engine (im2col conv,
unfused BN/ReLU) against the optimized one, measured while the seed engine
existed.  The seed engine is deleted, so nothing regenerates it.

Measurement methodology: the two sides of the compile A/B are timed in
*interleaved* rounds (before round, after round, repeat) and each side's
best round is reported.  On a shared host, absolute wall times for
identical code can drift by tens of percent between measurement windows;
interleaving puts both sides in the same windows so the *ratio* stays
meaningful, and best-of-N discards the rounds that caught external noise.

Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_engine.py

The perf smoke test (``test_perf_smoke.py``) runs a shortened version of
the same harness.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict

import numpy as np

from repro.nn import resnet32
from repro.optim import SGD
from repro.tensor import Tensor
from repro.tensor import functional as F

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "results")
OUT_PATH_COMPILE = os.path.join(RESULTS_DIR, "BENCH_compile.json")
OUT_PATH_MEMPLAN = os.path.join(RESULTS_DIR, "BENCH_memplan.json")


def _measure_interleaved(run_before: Callable[[], None],
                         run_after: Callable[[], None],
                         rounds: int, number: int, warmup: int = 1
                         ) -> Dict[str, float]:
    """Time both sides in alternating rounds; report per-side best."""
    for _ in range(warmup):
        run_before()
    for _ in range(warmup):
        run_after()
    before = after = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(number):
            run_before()
        before = min(before, (time.perf_counter() - t0) / number)
        t0 = time.perf_counter()
        for _ in range(number):
            run_after()
        after = min(after, (time.perf_counter() - t0) / number)
    before *= 1e3
    after *= 1e3
    return {"before_ms": round(before, 4), "after_ms": round(after, 4),
            "speedup": round(before / after, 3)}


def _compiled_step_pair(rng) -> tuple:
    """Eager vs compiled stepping of the acceptance workload.

    Each side runs its own model/optimizer twin (identical seed), so the measured delta isolates capture/replay: no
    graph construction, no closure allocation, preplanned buffers.
    """
    from repro.tensor.compile import capture_training_step

    xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
    yb = rng.integers(0, 10, size=32)

    m_e = resnet32(num_classes=10, width_mult=0.375, input_hw=12, seed=0)
    o_e = SGD(m_e.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)

    def run_eager():
        logits = m_e(Tensor(xb))
        loss = F.cross_entropy(logits, yb)
        o_e.zero_grad()
        loss.backward()
        o_e.step()

    m_c = resnet32(num_classes=10, width_mult=0.375, input_hw=12, seed=0)
    o_c = SGD(m_c.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    o_c.zero_grad()
    plan, loss_t, _, reason = capture_training_step(m_c, xb, yb)
    if plan is None:
        raise RuntimeError(f"step capture failed: {reason}")
    loss_t.backward()
    o_c.step()

    def run_compiled():
        o_c.zero_grad()
        plan.run(xb, yb)
        o_c.step()

    return run_eager, run_compiled


def run_compile_bench(step_warmup: int = 3, step_iters: int = 5,
                      step_rounds: int = 8) -> dict:
    """Compiled-vs-eager step A/B; returns the BENCH_compile.json payload."""
    run_eager, run_compiled = _compiled_step_pair(np.random.default_rng(1))
    step = _measure_interleaved(
        run_eager, run_compiled, step_rounds, step_iters, warmup=step_warmup)
    return {
        "meta": {
            "workload": "resnet32 @ QUICK scale (hw=12, width_mult=0.375, "
                        "batch=32)",
            "before": "optimized engine, eager define-by-run step (graph "
                      "built and torn down every batch)",
            "after": "optimized engine, compiled StepPlan replay (flat "
                     "kernel list, preplanned buffers, zero graph "
                     "construction)",
            "methodology": "interleaved A/B rounds, best-of-N per side "
                           "(robust to shared-host noise); replay is "
                           "bit-exact vs eager",
        },
        "micro": {},
        "train_step": {
            "warmup_steps": step_warmup, "steps_per_round": step_iters,
            "rounds": step_rounds, **step,
        },
    }


def run_memplan_bench() -> dict:
    """The arena-planned step against its eager twin; returns the
    BENCH_memplan.json payload.

    Eager stepping allocates every buffer fresh, the private-buffer layout
    the arena replaces.  Both twins take three steps from the same seed (the
    plan's capture step and two replays), then one more on a new batch,
    whose loss, logits and parameter gradients must agree to the bit.
    Reports the plan's resident footprint (arena vs sum-of-private-buffers)
    and the tracemalloc peak of capture plus the replays; raises unless the
    arena saves at least 20 % of the private bytes.
    """
    import tracemalloc

    from repro.tensor.compile import capture_training_step

    rng = np.random.default_rng(1)
    xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
    yb = rng.integers(0, 10, size=32)

    def twin():
        m = resnet32(num_classes=10, width_mult=0.375, input_hw=12, seed=0)
        return m, SGD(m.parameters(), lr=0.1, momentum=0.9,
                      weight_decay=5e-4)

    def eager_step(m, o, x, y):
        logits = m(Tensor(x))
        loss = F.cross_entropy(logits, y)
        o.zero_grad()
        loss.backward()
        return loss.data, logits.data

    tracemalloc.start()
    try:
        m_p, o_p = twin()
        o_p.zero_grad()
        plan, loss_t, _, reason = capture_training_step(m_p, xb, yb)
        if plan is None:
            raise RuntimeError(f"step capture failed: {reason}")
        loss_t.backward()
        o_p.step()
        for _ in range(2):
            o_p.zero_grad()
            plan.run(xb, yb)
            o_p.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m_e, o_e = twin()
    for _ in range(3):
        eager_step(m_e, o_e, xb, yb)
        o_e.step()

    rng = np.random.default_rng(7)
    xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
    yb = rng.integers(0, 10, size=32)
    o_p.zero_grad()
    planned = plan.run(xb, yb)
    eager = eager_step(m_e, o_e, xb, yb)
    bit_identical = all(np.array_equal(a, b) for a, b in zip(
        [*planned, *(p.grad for p in m_p.parameters())],
        [*eager, *(p.grad for p in m_e.parameters())]))
    m = plan.mem_metrics()
    if m["savings"] < 0.20:
        raise RuntimeError(f"the arena saves under 20 % of the private "
                           f"bytes: {m}")
    return {
        "meta": {
            "workload": "resnet32 @ QUICK scale (hw=12, width_mult=0.375, "
                        "batch=32)",
            "before": "eager step, every buffer a fresh array "
                      "(private per-buffer layout)",
            "after": "compiled StepPlan, liveness-planned shared arena",
            "methodology": "twins from one seed; the step after "
                           "three warm steps compared bitwise "
                           "(loss, logits, every parameter gradient); "
                           "times are in BENCH_compile.json",
        },
        "memory": {
            "arena_bytes": int(m["arena_bytes"]),
            "liveness_peak_bytes": int(m["peak_bytes"]),
            "plan_private_bytes": int(m["naive_bytes"]),
            "savings_fraction": round(m["savings"], 4),
            "alias_buffers": int(m["alias_buffers"]),
            "tracemalloc_peak_bytes": int(peak),
        },
        "bit_identical": bit_identical,
    }


def write_results(results: dict, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    return path


def main() -> None:
    compile_results = run_compile_bench()
    cpath = write_results(compile_results, OUT_PATH_COMPILE)
    cstep = compile_results["train_step"]
    print(f"compiled step: {cstep['before_ms']:.1f} ms (eager) -> "
          f"{cstep['after_ms']:.1f} ms (replay) ({cstep['speedup']:.2f}x)")
    print(f"wrote {cpath}")

    memplan_results = run_memplan_bench()
    mpath = write_results(memplan_results, OUT_PATH_MEMPLAN)
    mem = memplan_results["memory"]
    print(f"planned step: {mem['plan_private_bytes'] / 1e6:.1f} MB "
          f"(private) -> {mem['arena_bytes'] / 1e6:.1f} MB (arena) "
          f"({100 * mem['savings_fraction']:.1f}% saved), "
          f"bit_identical={memplan_results['bit_identical']}")
    print(f"wrote {mpath}")


if __name__ == "__main__":
    main()

"""Engine benchmark: seed kernels ("before") vs optimized engine ("after").

Measures, in one process, the same workloads under both engine
configurations — the seed path is kept alive behind
:data:`repro.tensor.workspace.config` exactly so this comparison stays
honest (same NumPy, same process, same arrays):

* conv2d forward+backward micro-benchmarks at ResNet-32 QUICK shapes,
* fused vs unfused BatchNorm→ReLU forward+backward,
* one full ResNet-32 training step (forward, loss, backward, SGD) at the
  QUICK benchmark scale, steady-state (post-warmup).

Measurement methodology: the two engines are timed in *interleaved* rounds
(baseline round, optimized round, repeat) and each engine's best round is
reported.  On a shared host, absolute wall times for identical code can
drift by tens of percent between measurement windows; interleaving puts
both engines in the same windows so the *ratio* stays meaningful, and
best-of-N discards the rounds that caught external noise.

Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_engine.py

writes ``results/BENCH_engine.json`` with before/after milliseconds and
speedups, plus ``results/BENCH_compile.json`` comparing the eager
define-by-run step against the compiled StepPlan replay
(:mod:`repro.tensor.compile`) with *both* sides on the optimized engine.
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
from repro.tensor import Tensor, workspace
from repro.tensor import functional as F
from repro.tensor.ops import conv as conv_ops
from repro.tensor.workspace import baseline_engine

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "results")
OUT_PATH = os.path.join(RESULTS_DIR, "BENCH_engine.json")
OUT_PATH_COMPILE = os.path.join(RESULTS_DIR, "BENCH_compile.json")
OUT_PATH_MEMPLAN = os.path.join(RESULTS_DIR, "BENCH_memplan.json")

#: (name, n, c_in, hw, c_out, k, stride, pad) — the conv population of
#: ResNet-32 at the QUICK scale (hw=12, width_mult=0.375) plus the 1x1
#: projection convs.
CONV_SHAPES = [
    ("conv3x3_s1_c6", 32, 6, 12, 6, 3, 1, 1),
    ("conv3x3_s2_c12", 32, 6, 12, 12, 3, 2, 1),
    ("conv3x3_s1_c12", 32, 12, 6, 12, 3, 1, 1),
    ("conv3x3_s1_c24", 32, 24, 3, 24, 3, 1, 1),
    ("conv1x1_s2_proj", 32, 6, 12, 12, 1, 2, 0),
    ("conv1x1_s1_pw", 32, 24, 6, 24, 1, 1, 0),
]

BN_SHAPE = (32, 24, 6, 6)


def _conv_workload(n, ci, hw, co, k, stride, pad, rng) -> Callable[[], None]:
    x = rng.standard_normal((n, ci, hw, hw), dtype=np.float32)
    w = rng.standard_normal((co, ci, k, k), dtype=np.float32)
    ho, wo = conv_ops.conv_out_size(hw, hw, k, k, stride, pad)
    dy = rng.standard_normal((n, co, ho, wo), dtype=np.float32)

    def run():
        y, ctx = conv_ops.conv2d_forward(x, w, None, stride, pad)
        conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride, pad)

    return run


def _bn_relu_workload(rng) -> Callable[[], None]:
    from repro.tensor.ops import norm as norm_ops
    x = rng.standard_normal(BN_SHAPE, dtype=np.float32)
    dy = rng.standard_normal(BN_SHAPE, dtype=np.float32)
    gamma = np.ones(BN_SHAPE[1], dtype=np.float32)
    beta = np.zeros(BN_SHAPE[1], dtype=np.float32)
    rm = np.zeros(BN_SHAPE[1], dtype=np.float32)
    rv = np.ones(BN_SHAPE[1], dtype=np.float32)

    def run():
        # Seed engine has no fused kernel: BN then a separate ReLU pass,
        # which is exactly what the functional layer did before fusion.
        if workspace.config.fused_bnrelu:
            y, cache = norm_ops.batchnorm_forward(
                x, gamma, beta, rm, rv, 0.1, 1e-5, True, relu=True)
            norm_ops.batchnorm_backward(dy, cache)
        else:
            y, cache = norm_ops.batchnorm_forward(
                x, gamma, beta, rm, rv, 0.1, 1e-5, True)
            r = np.maximum(y, 0)
            g = dy * (r > 0)
            norm_ops.batchnorm_backward(g, cache)

    return run


def _train_step_workload(rng) -> Callable[[], None]:
    """One QUICK-scale ResNet-32 training step (the acceptance workload)."""
    model = resnet32(num_classes=10, width_mult=0.375, input_hw=12, seed=0)
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
    yb = rng.integers(0, 10, size=32)

    def run():
        logits = model(Tensor(xb))
        loss = F.cross_entropy(logits, yb)
        opt.zero_grad()
        loss.backward()
        opt.step()

    return run


def _measure_interleaved(run_before: Callable[[], None],
                         run_after: Callable[[], None],
                         rounds: int, number: int, warmup: int = 1
                         ) -> Dict[str, float]:
    """Time both engines in alternating rounds; report per-engine best.

    ``run_before`` is executed inside :func:`baseline_engine`; each round
    times ``number`` calls and the minimum per-call round mean survives.
    """
    with baseline_engine():
        for _ in range(warmup):
            run_before()
    for _ in range(warmup):
        run_after()
    before = after = float("inf")
    for _ in range(rounds):
        with baseline_engine():
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


def _measure_interleaved_same_engine(run_before: Callable[[], None],
                                     run_after: Callable[[], None],
                                     rounds: int, number: int, warmup: int = 1
                                     ) -> Dict[str, float]:
    """Interleaved A/B where both sides run the *current* engine config.

    Used for the compiled-vs-eager comparison: wrapping the "before" side
    in :func:`baseline_engine` (as :func:`_measure_interleaved` does) would
    conflate the step-plan win with the kernel-level optimizations.
    """
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

    Both sides run the optimized engine on their own model/optimizer twin
    (identical seed), so the measured delta isolates capture/replay: no
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
    step = _measure_interleaved_same_engine(
        run_eager, run_compiled, step_rounds, step_iters, warmup=step_warmup)
    workspace.invalidate()
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


def _memplan_plan_pair(rng) -> tuple:
    """Build twin compiled steps, one with the memory planner off/on each.

    Returns ``(plan_on, run_on, peak_on, plan_off, run_off, peak_off)``
    where the ``peak_*`` entries are tracemalloc peaks (bytes) covering
    capture + two replays — the allocation cost of building and running
    each plan layout.
    """
    import tracemalloc

    from repro.tensor.compile import capture_training_step

    xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
    yb = rng.integers(0, 10, size=32)

    def build(mem_plan: bool) -> tuple:
        with workspace.engine(mem_plan=mem_plan):
            tracemalloc.start()
            try:
                m = resnet32(num_classes=10, width_mult=0.375, input_hw=12,
                             seed=0)
                o = SGD(m.parameters(), lr=0.1, momentum=0.9,
                        weight_decay=5e-4)
                o.zero_grad()
                plan, loss_t, _, reason = capture_training_step(m, xb, yb)
                if plan is None:
                    raise RuntimeError(f"step capture failed: {reason}")
                loss_t.backward()
                o.step()

                def run():
                    o.zero_grad()
                    plan.run(xb, yb)
                    o.step()

                for _ in range(2):
                    run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return plan, run, peak

    plan_off, run_off, peak_off = build(False)
    plan_on, run_on, peak_on = build(True)
    if plan_on.mem_metrics() is None:
        raise RuntimeError("memory planner did not engage")
    return plan_on, run_on, peak_on, plan_off, run_off, peak_off


def run_memplan_bench(step_warmup: int = 3, step_iters: int = 5,
                      step_rounds: int = 8) -> dict:
    """Planner on/off A/B; returns the BENCH_memplan.json payload.

    Compares the PR-3 compiled engine (every plan buffer private) against
    the arena-planned layout on the acceptance workload: replay speed
    (interleaved, best-of-N), resident plan footprint (arena vs
    sum-of-private-buffers), tracemalloc peaks, and — since the layouts
    must never change values — a bit-identity check of the two replays.
    """
    (plan_on, run_on, peak_on,
     plan_off, run_off, peak_off) = _memplan_plan_pair(
        np.random.default_rng(1))
    step = _measure_interleaved_same_engine(
        run_off, run_on, step_rounds, step_iters, warmup=step_warmup)
    # Both twins have now replayed the same number of steps from the same
    # seed, so their next losses must agree to the bit.
    rng = np.random.default_rng(7)
    xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
    yb = rng.integers(0, 10, size=32)
    loss_on, logits_on = plan_on.run(xb, yb)
    loss_off, logits_off = plan_off.run(xb, yb)
    bit_identical = bool(np.array_equal(loss_on, loss_off)
                         and np.array_equal(logits_on, logits_off))
    m = plan_on.mem_metrics()
    workspace.invalidate()
    payload = {
        "meta": {
            "workload": "resnet32 @ QUICK scale (hw=12, width_mult=0.375, "
                        "batch=32)",
            "before": "compiled StepPlan, private per-buffer layout "
                      "(planner off)",
            "after": "compiled StepPlan, liveness-planned shared arena "
                     "(planner on)",
            "methodology": "interleaved A/B rounds, best-of-N per side; "
                           "layouts verified bit-identical",
        },
        "train_step": {
            "warmup_steps": step_warmup, "steps_per_round": step_iters,
            "rounds": step_rounds, **step,
        },
        "memory": {
            "arena_bytes": int(m["arena_bytes"]),
            "liveness_peak_bytes": int(m["peak_bytes"]),
            "plan_private_bytes": int(m["naive_bytes"]),
            "savings_fraction": round(m["savings"], 4),
            "alias_buffers": int(m["alias_buffers"]),
            "tracemalloc_peak_on_bytes": int(peak_on),
            "tracemalloc_peak_off_bytes": int(peak_off),
        },
        "bit_identical": bit_identical,
    }
    return payload


def _measure_pair(make_workload: Callable[[np.random.Generator],
                                          Callable[[], None]],
                  rounds: int, number: int) -> Dict[str, float]:
    """Interleaved A/B of one kernel workload (fresh instance per engine)."""
    with baseline_engine():
        run_before = make_workload(np.random.default_rng(0))
    run_after = make_workload(np.random.default_rng(0))
    out = _measure_interleaved(run_before, run_after, rounds, number)
    workspace.invalidate()
    return out


def run_bench(repeats: int = 5, number: int = 3,
              step_warmup: int = 3, step_iters: int = 5,
              step_rounds: int = 8) -> dict:
    """Run every benchmark; returns the BENCH_engine.json payload."""
    results: dict = {
        "meta": {
            "workload": "resnet32 @ QUICK scale (hw=12, width_mult=0.375, "
                        "batch=32)",
            "before": "seed engine (im2col conv, unfused BN/ReLU)",
            "after": "optimized engine (gather-once batched-GEMM conv, "
                     "fused BN-ReLU / add-ReLU, gradient donation, "
                     "in-place SGD)",
            "methodology": "interleaved A/B rounds, best-of-N per engine "
                           "(robust to shared-host noise)",
        },
        "micro": {},
    }

    for name, n, ci, hw, co, k, stride, pad in CONV_SHAPES:
        def make(rng, a=(n, ci, hw, co, k, stride, pad)):
            return _conv_workload(*a, rng)
        results["micro"][name] = _measure_pair(make, repeats, number)

    results["micro"]["bn_relu"] = _measure_pair(
        _bn_relu_workload, repeats, number)

    # End-to-end training step, steady-state: one model+optimizer instance
    # per engine (so momentum buffers stay stationary),
    # warmed up, then timed in alternating rounds.
    with baseline_engine():
        run_before = _train_step_workload(np.random.default_rng(1))
    run_after = _train_step_workload(np.random.default_rng(1))
    step = _measure_interleaved(run_before, run_after,
                                step_rounds, step_iters, warmup=step_warmup)
    workspace.invalidate()

    results["train_step"] = {
        "warmup_steps": step_warmup, "steps_per_round": step_iters,
        "rounds": step_rounds, **step,
    }
    return results


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
    print(f"train step: {step['before_ms']:.1f} ms -> "
          f"{step['after_ms']:.1f} ms ({step['speedup']:.2f}x)")
    for name, row in results["micro"].items():
        print(f"{name:18s} {row['before_ms']:8.3f} -> {row['after_ms']:8.3f} "
              f"ms ({row['speedup']:.2f}x)")
    print(f"wrote {path}")

    compile_results = run_compile_bench()
    cpath = write_results(compile_results, OUT_PATH_COMPILE)
    cstep = compile_results["train_step"]
    print(f"compiled step: {cstep['before_ms']:.1f} ms (eager) -> "
          f"{cstep['after_ms']:.1f} ms (replay) ({cstep['speedup']:.2f}x)")
    print(f"wrote {cpath}")

    memplan_results = run_memplan_bench()
    mpath = write_results(memplan_results, OUT_PATH_MEMPLAN)
    mstep = memplan_results["train_step"]
    mem = memplan_results["memory"]
    print(f"planned step: {mstep['before_ms']:.1f} ms (private) -> "
          f"{mstep['after_ms']:.1f} ms (arena) ({mstep['speedup']:.2f}x), "
          f"{mem['plan_private_bytes'] / 1e6:.1f} MB -> "
          f"{mem['arena_bytes'] / 1e6:.1f} MB "
          f"({100 * mem['savings_fraction']:.1f}% saved), "
          f"bit_identical={memplan_results['bit_identical']}")
    print(f"wrote {mpath}")


if __name__ == "__main__":
    main()

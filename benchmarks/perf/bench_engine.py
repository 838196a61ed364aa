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
OUT_PATH_PARALLEL = os.path.join(RESULTS_DIR, "BENCH_parallel.json")
OUT_PATH_SPARSE = os.path.join(RESULTS_DIR, "BENCH_sparse.json")
OUT_PATH_INDEX = os.path.join(RESULTS_DIR, "BENCH_index.json")

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


def _parallel_plan_pair(rng, workers: int) -> tuple:
    """Twin compiled steps: serial replay vs level-scheduled replay.

    Returns ``(plan_s, run_s, o_s, m_s, plan_p, run_p, o_p, m_p)``; each
    ``run_*`` closure pins the engine config its plan was captured under
    (the plan signature check demands it) before replaying one optimizer
    step.
    """
    from repro.tensor.compile import capture_training_step

    xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
    yb = rng.integers(0, 10, size=32)

    def build(parallel: bool) -> tuple:
        pin = dict(parallel_replay=parallel, replay_workers=workers)
        m = resnet32(num_classes=10, width_mult=0.375, input_hw=12, seed=0)
        o = SGD(m.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
        o.zero_grad()
        with workspace.engine(**pin):
            plan, loss_t, _, reason = capture_training_step(m, xb, yb)
        if plan is None:
            raise RuntimeError(f"step capture failed: {reason}")
        loss_t.backward()
        o.step()

        def run():
            with workspace.engine(**pin):
                o.zero_grad()
                plan.run(xb, yb)
                o.step()

        return plan, run, o, m

    plan_s, run_s, o_s, m_s = build(False)
    plan_p, run_p, o_p, m_p = build(True)
    if plan_p._levels is None:
        raise RuntimeError("parallel schedule did not engage")
    return plan_s, run_s, o_s, m_s, plan_p, run_p, o_p, m_p


def _modeled_schedule_speedup(plan, workers: int, xb, yb, o,
                              samples: int = 3) -> Dict[str, object]:
    """Critical-path model of the level schedule from measured thunk times.

    Replays the plan on one thread while timing every thunk (several
    samples, per-thunk minimum), then evaluates the schedule with ``k``
    executors: a level of thunks ``T`` costs ``max(max(T), sum(T) / k)``
    (can't beat its longest thunk, can't beat perfect work sharing).
    This bounds what the pool can achieve on a ``k``-core host net of
    dispatch overhead — the honest number to report from a host with
    fewer cores than ``workers``.
    """
    per_level: list = None
    for _ in range(samples):
        o.zero_grad()
        _, _, level_seconds = plan.replay_timed(xb, yb)
        if per_level is None:
            per_level = [list(ts) for ts in level_seconds]
        else:
            per_level = [[min(a, b) for a, b in zip(prev, ts)]
                         for prev, ts in zip(per_level, level_seconds)]
    serial = sum(sum(ts) for ts in per_level)
    modeled = sum(max(max(ts), sum(ts) / workers) for ts in per_level)
    widths = [len(ts) for ts in per_level]
    return {
        "serial_thunk_seconds": round(serial, 6),
        "modeled_parallel_seconds": round(modeled, 6),
        "modeled_speedup": round(serial / modeled, 3),
        "levels": len(per_level),
        "max_width": max(widths),
        "parallel_levels": sum(1 for w in widths if w > 1),
    }


def run_parallel_bench(workers: int = 4, bit_steps: int = 4,
                       step_warmup: int = 3, step_iters: int = 5,
                       step_rounds: int = 8) -> dict:
    """Parallel-vs-serial replay A/B; returns the BENCH_parallel.json
    payload.

    Reports both the *measured* interleaved wall times on this host and
    the *modeled* critical-path speedup at ``workers`` executors derived
    from measured per-thunk serial timings.  On hosts with fewer cores
    than ``workers`` the measured number cannot show the schedule's win
    (threads time-slice one core); the modeled number is the
    schedule-exposed parallelism and is what the acceptance gate checks,
    with ``host_cpus`` recorded so readers can judge the measurement.
    """
    try:
        (plan_s, run_s, o_s, m_s,
         plan_p, run_p, o_p, m_p) = _parallel_plan_pair(
            np.random.default_rng(1), workers)

        # Bit-exactness first: twins step in lockstep, every parameter and
        # momentum buffer must agree to the bit after every step.
        bit_identical = True
        for _ in range(bit_steps):
            run_s()
            run_p()
            for (n, a), (_, b) in zip(m_s.named_parameters(),
                                      m_p.named_parameters()):
                if not (np.array_equal(a.data, b.data)
                        and np.array_equal(o_s.state_for(a),
                                           o_p.state_for(b))):
                    bit_identical = False

        step = _measure_interleaved_same_engine(
            run_s, run_p, step_rounds, step_iters, warmup=step_warmup)
        model = _modeled_schedule_speedup(
            plan_p, workers,
            np.random.default_rng(2).standard_normal((32, 3, 12, 12),
                                                     dtype=np.float32),
            np.random.default_rng(2).integers(0, 10, size=32), o_p)

        from repro.tensor import parallel as par
        pool_stats = par.STATS.as_dict()
        pool_stats.pop("last_levels", None)
    finally:
        workspace.invalidate()
    return {
        "meta": {
            "workload": "resnet32 @ QUICK scale (hw=12, width_mult=0.375, "
                        "batch=32)",
            "before": "compiled StepPlan, serial thunk replay",
            "after": f"compiled StepPlan, level-scheduled replay on "
                     f"{workers} threads",
            "methodology": "interleaved A/B rounds, best-of-N per side; "
                           "replays verified bit-identical; modeled "
                           "speedup = critical-path evaluation of the "
                           "level schedule over per-thunk serial timings",
            "speedup_basis": "modeled_critical_path",
        },
        "host_cpus": os.cpu_count(),
        "workers": workers,
        "train_step": {
            "warmup_steps": step_warmup, "steps_per_round": step_iters,
            "rounds": step_rounds, **step,
        },
        "schedule_model": model,
        "pool": pool_stats,
        "bit_identical": bool(bit_identical),
    }


def _sparse_schedule_run(sparse_on: bool, threshold: float, epochs: int,
                         checkpoint_dir: str = None,
                         resume_from: str = None) -> tuple:
    """One QUICK ResNet-32 PruneTrain schedule with ``zero_sparse`` on.

    ``remove_layers`` is off: this is the regime the sparse compute paths
    accelerate — channels hard-zeroed by the reconfiguration but not yet
    surgically removed, exactly what PruneTrain models between (or without)
    surgery.  Returns ``(model, losses, trainer)``.
    """
    from repro.data import make_synthetic
    from repro.train import PruneTrainConfig, PruneTrainTrainer

    train = make_synthetic(10, 192, hw=12, noise=0.8, seed=0, name="t")
    val = make_synthetic(10, 64, hw=12, noise=0.8, seed=1, name="v")
    from repro.nn import resnet32 as _r32
    model = _r32(num_classes=10, width_mult=0.375, input_hw=12, seed=0)
    cfg = PruneTrainConfig(
        epochs=epochs, batch_size=32, augment=False, bn_recal_batches=0,
        penalty_ratio=0.25, lambda_mode="rate", threshold=threshold,
        reconfig_interval=2, zero_sparse=True, remove_layers=False,
        checkpoint_every=1 if checkpoint_dir else 0,
        checkpoint_dir=checkpoint_dir)
    trainer = PruneTrainTrainer(model, train, val, cfg)
    with workspace.engine(sparse_compute=sparse_on):
        log = trainer.train(resume_from=resume_from)
    return model, [float(r.train_loss) for r in log.records], trainer


def _dead_state_for_ab(model, threshold: float,
                       target_frac: float = 0.68) -> Dict[str, object]:
    """Re-zero sparsified groups on ``model`` — the state immediately after
    a ``zero_sparse`` reconfiguration — escalating the threshold until the
    channel dead fraction reaches ``target_frac``.  Returns the state
    description (the publish itself is the caller's job)."""
    from repro.prune import zero_sparsified_groups
    from repro.prune.sparsity import conv_sparsity

    th = threshold
    for _ in range(8):
        tot = dead = full = 0
        for node in model.graph.active_convs():
            sp = conv_sparsity(node, th)
            k = len(sp.out_sparse)
            d = int(np.sum(sp.out_sparse))
            tot += k
            dead += d
            full += int(d == k)
        if tot and dead / tot >= target_frac:
            break
        th *= 1.5
    zero_sparsified_groups(model.graph, th)
    return {"threshold": th, "channel_dead_fraction": round(dead / tot, 4),
            "fully_dead_convs": full, "total_convs":
            len(list(model.graph.active_convs()))}


def _publish_model(model, threshold: float) -> None:
    from repro.prune.sparsity import conv_sparsity
    from repro.tensor import sparse

    entries = []
    for node in model.graph.active_convs():
        sp = conv_sparsity(node, threshold)
        entries.append((node.conv.weight,
                        np.asarray(sp.in_sparse, dtype=bool),
                        np.asarray(sp.out_sparse, dtype=bool)))
    sparse.publish(entries)


def run_sparse_bench(threshold: float = 0.04, epochs: int = 4,
                     step_warmup: int = 3, step_iters: int = 5,
                     step_rounds: int = 8) -> dict:
    """Sparse-vs-dense compute-path A/B; returns BENCH_sparse.json payload.

    Three legs:

    1. **Schedule bit-identity** — the full QUICK ResNet-32 PruneTrain
       schedule (``zero_sparse``, no surgery) run dense and sparse from
       identical seeds: losses and final parameters must agree to the bit.
    2. **Kill/resume** — the sparse run checkpointed every epoch, killed
       after the first reconfiguration, and resumed: the resumed run must
       land on the same bits (the dead-set exporter history is part of the
       checkpoint).
    3. **Step A/B** — twin compiled plans on the post-schedule model with
       its sparsified groups re-zeroed (the state right after a
       reconfiguration, where PruneTrain spends its training time).  The
       optimizer update is excluded from the timed region so the measured
       state stays stationary across rounds (BN-beta regrowth would
       otherwise revive channels and trip the sticky dense fallback);
       the update is identical work on both sides.

    The gate runs at its real operating point (``sparse_min_gain`` as
    configured, default 1.05); every decision it took is recorded in the
    payload, and ``gate_never_slower_ok`` checks that no accepted sparse
    pipeline measured more than 5% slower than dense.
    """
    import shutil
    import tempfile

    from repro.io import checkpoint_path
    from repro.tensor import sparse
    from repro.tensor.compile import capture_training_step

    tmpdir = tempfile.mkdtemp(prefix="bench-sparse-")
    try:
        # -- leg 1: full-schedule bit-identity ------------------------------
        sparse.clear()
        sparse.STATS.reset()
        m_d, losses_d, _ = _sparse_schedule_run(False, threshold, epochs)
        m_s, losses_s, _ = _sparse_schedule_run(
            True, threshold, epochs, checkpoint_dir=tmpdir)
        schedule_stats = {k: v for k, v in sparse.STATS.as_dict().items()
                          if k != "decisions"}
        schedule_bit = losses_d == losses_s and all(
            np.array_equal(a.data, b.data)
            for a, b in zip(m_d.parameters(), m_s.parameters()))

        # -- leg 2: kill after the first reconfiguration, resume ------------
        m_r, losses_r, _ = _sparse_schedule_run(
            True, threshold, epochs,
            resume_from=checkpoint_path(tmpdir, 1))
        resume_bit = losses_r == losses_s and all(
            np.array_equal(a.data, b.data)
            for a, b in zip(m_r.parameters(), m_s.parameters()))

        # -- leg 3: step A/B at the post-reconfiguration dead state ---------
        sparse.clear()
        sparse.STATS.reset()
        dead_state = _dead_state_for_ab(m_d, threshold)
        _dead_state_for_ab(m_s, threshold)   # identical re-zero on the twin
        rng = np.random.default_rng(1)
        xb = rng.standard_normal((32, 3, 12, 12), dtype=np.float32)
        yb = rng.integers(0, 10, size=32)

        def build(model, sparse_on):
            if sparse_on:
                _publish_model(model, dead_state["threshold"])
            o = SGD(model.parameters(), lr=0.1, momentum=0.9,
                    weight_decay=5e-4)
            o.zero_grad()
            with workspace.engine(sparse_compute=sparse_on):
                plan, loss_t, _, reason = capture_training_step(
                    model, xb, yb)
                if plan is None:
                    raise RuntimeError(f"step capture failed: {reason}")
                loss_t.backward()

            def run():
                with workspace.engine(sparse_compute=sparse_on):
                    o.zero_grad()
                    plan.run(xb, yb)

            return plan, run

        plan_d, run_d = build(m_d, False)
        plan_s, run_s = build(m_s, True)
        step = _measure_interleaved_same_engine(
            run_d, run_s, step_rounds, step_iters, warmup=step_warmup)
        loss_d, logits_d = plan_d.run(xb, yb)
        loss_s, logits_s = plan_s.run(xb, yb)
        step_bit = bool(np.array_equal(loss_d, loss_s)
                        and np.array_equal(logits_d, logits_s))
        ab_stats = sparse.STATS.as_dict()
        decisions = ab_stats.pop("decisions")
        gate_ok = all(d["measured_gain"] >= 0.95
                      for d in decisions if d["accepted"])

        # Predicted-gain curve for a representative QUICK conv GEMM
        # (conv3x3_s1_c12: N=32, C=K=12, 6x6 output, so CRS=108, P=36).
        from repro.costmodel import sparse_crossover_curve
        n_, k_, crs_, p_ = 32, 12, 108, 36
        flops = 2.0 * n_ * k_ * crs_ * p_
        byts = 4.0 * (n_ * crs_ * p_ + k_ * crs_ + n_ * k_ * p_)
        curve = sparse_crossover_curve(flops, byts)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        sparse.clear()
        sparse.STATS.reset()
        workspace.invalidate()
    return {
        "meta": {
            "workload": "resnet32 @ QUICK scale (hw=12, width_mult=0.375, "
                        "batch=32), PruneTrain schedule with zero_sparse "
                        "(no surgery)",
            "before": "dense compiled path (sparse_compute off)",
            "after": "sparsity-aware compute paths: dead-channel column "
                     "skipping + compacted backward GEMMs behind the "
                     "measured cost-model gate",
            "methodology": "interleaved A/B rounds, best-of-N per side; "
                           "full schedule, resume, and A/B step all "
                           "verified bit-identical vs dense; optimizer "
                           "update excluded from the timed region (state "
                           "stationarity; identical work both sides)",
        },
        "schedule": {
            "epochs": epochs, "reconfig_interval": 2,
            "threshold": threshold, "losses": losses_s,
            "bit_identical": bool(schedule_bit),
            "resume_bit_identical": bool(resume_bit),
            "sparse_stats": schedule_stats,
        },
        "dead_state": dead_state,
        "train_step": {
            "warmup_steps": step_warmup, "steps_per_round": step_iters,
            "rounds": step_rounds, **step,
        },
        "step_bit_identical": step_bit,
        "sparse_stats": {k: v for k, v in ab_stats.items()},
        "decisions": decisions,
        "gate_never_slower_ok": bool(gate_ok),
        "bit_identical": bool(schedule_bit and resume_bit and step_bit),
        "crossover_curve_example": curve,
    }


def build_bench_index() -> dict:
    """Consolidate every results/BENCH_*.json into BENCH_index.json."""
    index = {}
    files = sorted(os.listdir(RESULTS_DIR)) \
        if os.path.isdir(RESULTS_DIR) else []
    for fname in files:
        if not (fname.startswith("BENCH_") and fname.endswith(".json")) \
                or fname == "BENCH_index.json":
            continue
        path = os.path.join(RESULTS_DIR, fname)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue
        entry = {"file": fname}
        meta = payload.get("meta", {})
        for key in ("workload", "before", "after"):
            if key in meta:
                entry[key] = meta[key]
        step = payload.get("train_step", {})
        if "speedup" in step:
            entry["train_step_speedup"] = step["speedup"]
        if "bit_identical" in payload:
            entry["bit_identical"] = payload["bit_identical"]
        index[fname[len("BENCH_"):-len(".json")]] = entry
    return {"benchmarks": index}


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

    parallel_results = run_parallel_bench()
    ppath = write_results(parallel_results, OUT_PATH_PARALLEL)
    pstep = parallel_results["train_step"]
    pmodel = parallel_results["schedule_model"]
    print(f"parallel step: {pstep['before_ms']:.1f} ms (serial) -> "
          f"{pstep['after_ms']:.1f} ms (threaded) measured "
          f"({pstep['speedup']:.2f}x on {parallel_results['host_cpus']} "
          f"cpus), modeled {pmodel['modeled_speedup']:.2f}x at "
          f"{parallel_results['workers']} workers, "
          f"bit_identical={parallel_results['bit_identical']}")
    print(f"wrote {ppath}")

    sparse_results = run_sparse_bench()
    spath = write_results(sparse_results, OUT_PATH_SPARSE)
    sstep = sparse_results["train_step"]
    dstate = sparse_results["dead_state"]
    print(f"sparse step: {sstep['before_ms']:.1f} ms (dense) -> "
          f"{sstep['after_ms']:.1f} ms (sparse) ({sstep['speedup']:.2f}x) "
          f"at {100 * dstate['channel_dead_fraction']:.0f}% dead channels, "
          f"bit_identical={sparse_results['bit_identical']}, "
          f"gate_never_slower_ok={sparse_results['gate_never_slower_ok']}")
    print(f"wrote {spath}")

    index = build_bench_index()
    ipath = write_results(index, OUT_PATH_INDEX)
    print(f"wrote {ipath} ({len(index['benchmarks'])} benchmarks)")


if __name__ == "__main__":
    main()

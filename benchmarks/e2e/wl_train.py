"""The three training workloads and their per-layer attribution.

Every workload interleaves a *primary* leg with a *reference* leg in one
process, so ``wall_ratio_vs_ref`` compares two numbers taken seconds apart on
the same host, and the reference leg is the in-run control (a change that
only touches what the primary leg exercises must leave ``ref_wall_cal_s``
unmoved).  Gated times are calibrated seconds (see ``hostcal``): nothing but
the calibration probe's own time is taken out of a raw interval.

Untraced legs run with three hooks installed from here: around
``Trainer.train`` (the leg's wall, bracketed by calibration samples), after
every ``SGD.step`` (a timestamp: step periods) and after every
``Trainer.evaluate`` (no period spans an epoch boundary); behind the last two
a calibration sample is taken whenever the previous one is older than 0.5 s.
Traced legs additionally wrap the calls into each layer with the span
recorder.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.train.prunetrain as _prunetrain_mod
import repro.train.trainer as _trainer_mod
from repro.data import DataLoader
from repro.distributed import DynamicBatchAdjuster
from repro.experiments.configs import (QUICK, SMOKE, make_dataset,
                                       make_model)
from repro.experiments.runner import Runs
from repro.io.checkpoint import checkpoint_path
from repro.optim import SGD
from repro.tensor import Tensor
from repro.tensor import compile as tcompile
from repro.tensor import memplan, workspace
from repro.tensor.compile import StepPlan
from repro.train import PruneTrainTrainer, Trainer

from benchctx import Ctx, env, percentile, run_digest, states_equal
from hostcal import CAL_PROBE_S, HostClock, Timed, timed
from layer_probes import put_config_ladder
from spans import SpanRecorder, span_cost_s

DATASET = "cifar10s"

#: Seconds one repeat of each workload's schedule takes on the baseline
#: host; ``--seconds`` buys ``max(1, seconds // nominal)`` repeats.
NOMINAL_S = {"prunetrain_r32": 30.0, "dense_vgg13_wide": 15.0,
             "reconfig_churn_vgg11": 15.0}

#: Tail percentile of the step period reported as ``unit_tail_ms``: fixed
#: per workload so the metric never changes meaning between runs.  Only the
#: ResNet-32 leg has enough steps (~260) to leave ten beyond p95; the wide
#: VGG-13 (28 periods) and the churn run (120) report their upper quartile.
TAIL_Q = {"prunetrain_r32": 95, "dense_vgg13_wide": 75,
          "reconfig_churn_vgg11": 75}


# -- one leg = one Trainer.train() through Runs ------------------------------

class Leg:
    """Everything observed from outside about one training run."""

    def __init__(self, runs: Runs, key: str, steps: "StepClock",
                 kernel_s: float, counters: Dict[str, float],
                 epochs_run: int):
        #: ``Trainer.train()``: raw and calibrated seconds, probe during it
        self.timed: Timed = steps.timed
        #: kernel (system) CPU seconds of the process over the leg
        self.kernel_s = kernel_s
        self.trainer = runs.trainer_for(key)
        self.model = runs.model_for(key)
        self.log = self.trainer.log
        self.state = {k: np.array(v, copy=True)
                      for k, v in self.model.state_dict().items()}
        self.digest = run_digest((r.train_loss for r in self.log.records),
                                 self.state)
        #: raw seconds between consecutive optimizer steps of one epoch
        self.periods = steps.periods
        self.steps = steps.steps
        #: engine counter deltas over the leg (see :func:`engine_counters`)
        self.counters = counters
        self.fallbacks = int(counters["compile.fallbacks"])
        self.samples = epochs_run * int(self.log.notes["train_size"])
        recs = self.log.records[-epochs_run:]
        self.nonfinite_epochs = sum(
            1 for r in recs if not math.isfinite(r.train_loss))
        self.peak_arena = max((r.mem_peak_bytes for r in self.log.records),
                              default=0.0)

    def cal_periods_ms(self) -> List[float]:
        f = 1e3 * CAL_PROBE_S / self.timed.probe_s
        return [p * f for p in self.periods]


class StepClock:
    """What the hooks of one leg saw: the wall of ``Trainer.train()`` and
    the seconds from one ``SGD.step`` return (or the end of the calibration
    sample that followed it) to the next, never across an epoch boundary."""

    def __init__(self):
        self.timed: Optional[Timed] = None
        self.periods: List[float] = []
        self.steps = 0
        self._last: Optional[float] = None

    def step_done(self, now: float) -> None:
        self.steps += 1
        if self._last is not None:
            self.periods.append(now - self._last)
        self._last = now

    def restart(self, now: Optional[float]) -> None:
        self._last = now


@contextmanager
def leg_hooks(clock: HostClock, steps: StepClock,
              recorder: Optional[SpanRecorder]):
    """The hooks every measured leg runs with (see module docstring)."""
    train, step, evaluate = Trainer.train, SGD.step, Trainer.evaluate

    def probe_if_due() -> bool:
        if not clock.due():
            return False
        if recorder is None:
            clock.tick()
        else:
            with recorder.span("host.probe"):
                clock.tick()
        return True

    def train_hook(self, *args, **kwargs):
        result, steps.timed = timed(
            clock, lambda: train(self, *args, **kwargs))
        return result

    def step_hook(self):
        step(self)
        steps.step_done(time.perf_counter())
        if probe_if_due():
            steps.restart(time.perf_counter())

    def evaluate_hook(self):
        result = evaluate(self)
        probe_if_due()
        steps.restart(None)         # no step period across an epoch boundary
        return result

    Trainer.train, SGD.step, Trainer.evaluate = \
        train_hook, step_hook, evaluate_hook
    try:
        yield
    finally:
        Trainer.train, SGD.step, Trainer.evaluate = train, step, evaluate


def engine_counters() -> Dict[str, float]:
    """The program's own public counters, read from outside."""
    pool = workspace.POOL.stats
    return {"compile.fallbacks": tcompile.STATS.fallbacks,
            "memplan.plans": memplan.STATS.plans,
            "memplan.solve_s": memplan.STATS.solve_seconds,
            "workspace.hits": pool.hits, "workspace.misses": pool.misses,
            "workspace.bytes_allocated": pool.bytes_allocated,
            "workspace.invalidations": pool.invalidations,
            "workspace.evictions": pool.evictions}


def put_engine_counters(ctx: Ctx, c: Dict[str, float]) -> None:
    """tensor.compile / memplan / workspace metrics from counter deltas."""
    ctx.put("compile.fallbacks", c["compile.fallbacks"], "count")
    ctx.put("memplan.plans", c["memplan.plans"], "count")
    ctx.put("memplan.solve_s", c["memplan.solve_s"], "s")
    lookups = c["workspace.hits"] + c["workspace.misses"]
    ctx.put("workspace.hit_ratio", c["workspace.hits"] / max(lookups, 1),
            "ratio")
    for key in ("bytes_allocated", "invalidations", "evictions"):
        ctx.put(f"workspace.{key}", c[f"workspace.{key}"], "count")


def run_leg(ctx: Ctx, train: Callable[[], tuple], epochs_run: int,
            recorder: Optional[SpanRecorder] = None) -> Leg:
    """Run ``train()`` (returns ``(runs, key)``) as one measured leg."""
    steps = StepClock()
    before = engine_counters()
    if recorder is not None:
        install_train_spans(recorder)
    try:
        with leg_hooks(ctx.clock, steps, recorder):
            k0 = resource.getrusage(resource.RUSAGE_SELF).ru_stime
            runs, key = train()
            kernel_s = resource.getrusage(resource.RUSAGE_SELF).ru_stime - k0
    finally:
        if recorder is not None:
            recorder.uninstall()
    after = engine_counters()
    leg = Leg(runs, key, steps, kernel_s,
              {k: after[k] - before[k] for k in after}, epochs_run)
    # A failed step: a capture that fell back to eager, or a non-finite loss
    # (only the epoch mean is public, so the whole epoch counts).
    bad = leg.fallbacks + round(
        leg.nonfinite_epochs * leg.steps / max(epochs_run, 1))
    ctx.count(leg.steps, min(bad, leg.steps))
    ctx.gate("losses_finite", leg.nonfinite_epochs == 0)
    return leg


def fresh_runs(ctx: Ctx, scale, label: str, **kw) -> Runs:
    """A new ``Runs`` with its own scratch dirs: no disk cache, no resume
    from an earlier leg, nothing under ``.cache/runs`` or ``results/``."""
    root = ctx.fresh_dir(label)
    return Runs(scale, cache_dir=os.path.join(root, "cache"),
                use_disk_cache=False,
                checkpoint_dir=os.path.join(root, "ckpt"), **kw)


# -- metrics shared by the three workloads -----------------------------------

def put_end_to_end(ctx: Ctx, name: str, primary: List[Leg],
                   reference: List[Leg]) -> None:
    wall = statistics.median(l.timed.cal_s for l in primary)
    ctx.put("wall_cal_s", wall, "s")
    if reference:       # a per-layer run may leave the reference legs out
        ref = statistics.median(l.timed.cal_s for l in reference)
        ctx.put("ref_wall_cal_s", ref, "s")
        ctx.put("wall_ratio_vs_ref", wall / ref, "ratio")
        ctx.put("ref_wall_s", statistics.median(
            l.timed.raw_s for l in reference), "s")
    periods = [p for l in primary for p in l.cal_periods_ms()]
    ctx.put("unit_p50_ms", percentile(periods, 50), "ms")
    ctx.put("unit_tail_ms", percentile(periods, TAIL_Q[name]), "ms")
    ctx.put("unit_tail_pct", TAIL_Q[name], "count")
    ctx.put("unit_samples", len(periods), "n")
    # The issue's per-workload names, raw seconds, for people and later issues
    last = primary[-1]
    ctx.put("train_wall_s", statistics.median(l.timed.raw_s for l in primary),
            "s")
    ctx.put("train_kernel_s", statistics.median(l.kernel_s for l in primary),
            "s")
    ctx.put("train_samples_per_s", statistics.median(
        l.samples / l.timed.raw_s for l in primary), "1/s")
    ctx.put("train_flops_total", last.log.total_train_flops, "count")
    ctx.put("final_inference_flops", last.log.final_inference_flops, "count")
    ctx.put("final_val_acc", last.log.final_val_acc, "fraction")
    ctx.put("peak_arena_bytes", max(l.peak_arena for l in primary), "count")
    ctx.put("legs", len(primary), "count")
    ctx.put("host.probe_ms", 1e3 * statistics.median(
        l.timed.probe_s for l in primary + reference), "ms")


def same_digest(legs: List[Leg]) -> bool:
    return len({l.digest for l in legs}) <= 1


def eager_equals_default(ctx: Ctx, train: Callable[[Runs], str], scale,
                         label: str) -> None:
    """Gate: the eager engine and the default (compiled) configuration agree
    bitwise on per-epoch losses and on every parameter and buffer."""
    out = []
    for mode, flag in (("eager", "0"), ("default", "1")):
        runs = fresh_runs(ctx, scale, f"{label}-{mode}")
        with env("REPRO_COMPILE_STEP", flag):
            key = train(runs)
        log = runs.trainer_for(key).log
        out.append(([r.train_loss for r in log.records],
                    runs.model_for(key).state_dict()))
        ctx.gate("losses_finite",
                 all(math.isfinite(x) for x in out[-1][0]))
    ctx.gate("eager_equals_default",
             out[0][0] == out[1][0] and states_equal(out[0][1], out[1][1]))


SETUP_REPEATS = 7


def put_setup(ctx: Ctx, build: Callable[[], object],
              once: Callable[[], object]) -> None:
    """``setup_s``: median calibrated seconds of ``build()``, the set-up that
    can be repeated (inputs and models).  ``once()`` is what cannot: the
    bitwise gates and warm-ups, which also fill BLAS, pool and page cache
    before the first measured leg; its raw time is printed as
    ``setup_once_s``."""
    times = [timed(ctx.clock, build)[1] for _ in range(SETUP_REPEATS)]
    ctx.put("setup_s", statistics.median(t.cal_s for t in times), "s")
    ctx.put("setup_raw_s", statistics.median(t.raw_s for t in times), "s")
    t0 = time.perf_counter()
    once()
    ctx.put("setup_once_s", time.perf_counter() - t0, "s")


def build_inputs(model_name: str, scale) -> None:
    """What ``Runs`` builds before it trains: both dataset splits + model."""
    make_dataset(DATASET, scale, seed=scale.seed)
    make_model(model_name, DATASET, scale, seed=scale.seed)


# -- workload 1: PruneTrain vs dense, ResNet-32 at QUICK ---------------------

def _r32_scale(ctx: Ctx):
    base = replace(SMOKE, epochs=2, reconfig_interval=1) if ctx.smoke \
        else QUICK
    return replace(base, seed=ctx.subseed("prunetrain_r32"))


def _r32_dense(runs: Runs) -> str:
    return runs.dense("resnet32", DATASET)[0]


def _r32_prune(runs: Runs) -> str:
    return runs.prunetrain("resnet32", DATASET, dynamic_batch=True,
                           zero_sparse=False)[0]


def prunetrain_r32(ctx: Ctx) -> None:
    scale = _r32_scale(ctx)
    every = 1 if ctx.smoke else 3

    put_setup(ctx, lambda: build_inputs("resnet32", scale),
              lambda: eager_equals_default(
                  ctx, _r32_prune, replace(scale, epochs=1), "parity"))

    def leg(fn, label, recorder=None) -> Leg:
        def train():
            runs = fresh_runs(ctx, scale, label, checkpoint_every=every)
            return runs, fn(runs)
        return run_leg(ctx, train, scale.epochs, recorder)

    if ctx.traced:
        # the per-layer run needs one untraced PruneTrain leg to compare with
        dense, prune = [], [leg(_r32_prune, "P0")]
    else:
        pairs = max(1, int(ctx.seconds // NOMINAL_S["prunetrain_r32"]))
        dense, prune = [], []
        for i in range(pairs):                  # D P D P ...
            dense.append(leg(_r32_dense, f"D{i}"))
            prune.append(leg(_r32_prune, f"P{i}"))
    ctx.gate("same_seed_same_digest", same_digest(dense)
             and same_digest(prune))
    ctx.digests.update(prunetrain=prune[-1].digest)
    put_end_to_end(ctx, "prunetrain_r32", prune, dense)
    if dense:
        ctx.digests.update(dense=dense[-1].digest)
        ctx.put("dense_wall_s", ctx.metrics["ref_wall_s"][0], "s")
        ctx.put("wall_ratio_vs_dense", ctx.metrics["wall_ratio_vs_ref"][0],
                "ratio")
        d, p = dense[-1].log, prune[-1].log
        modeled = p.total_epoch_time("1080ti") / d.total_epoch_time("1080ti")
        ctx.put("costmodel.time_ratio_modeled", modeled, "ratio")
        ctx.put("costmodel.time_ratio_error",
                modeled - ctx.metrics["wall_ratio_vs_ref"][0], "ratio")
        ctx.put("costmodel.flops_ratio",
                p.total_train_flops / d.total_train_flops, "ratio")

    if ctx.traced:
        rec = SpanRecorder()
        traced = leg(_r32_prune, "P-traced", rec)
        ctx.gate("traced_equals_untraced", traced.digest == prune[-1].digest)
        put_train_layers(ctx, rec, traced, prune[-1])
        ctx.traces["prunetrain_r32"] = rec.chrome_trace()
        put_config_ladder(ctx, scale, scale.seed)


# -- workload 2: dense wide VGG-13 (kernel-bound) ------------------------------

def _vgg13_scale(ctx: Ctx):
    if ctx.smoke:
        base = replace(SMOKE, epochs=2)
    else:
        base = replace(QUICK, n_train=256, n_val=128, hw=16, width_mult=0.5,
                       epochs=2)
    return replace(base, seed=ctx.subseed("dense_vgg13_wide"))


def _vgg13_dense(runs: Runs) -> str:
    return runs.dense("vgg13", DATASET)[0]


def dense_vgg13_wide(ctx: Ctx) -> None:
    scale = _vgg13_scale(ctx)

    def warm_up():
        # One step of each engine at the measured shapes, no gate: the
        # reference leg below *is* the eager run of the whole schedule, so
        # the eager-vs-default gate covers every epoch.  Besides BLAS and
        # pool this makes the process touch the memory both kinds of leg
        # need (an 85 MB arena for the plan): on this VM the first touch of
        # a page the host has not backed yet costs 4-9 ms/MB against 0.2
        # afterwards, which was 1-4 s of a 6 s leg, at random.
        one_step = replace(scale, n_train=scale.batch_size, epochs=1)
        for flag in ("0", "1"):
            with env("REPRO_COMPILE_STEP", flag):
                _vgg13_dense(fresh_runs(ctx, one_step, f"warm{flag}"))

    put_setup(ctx, lambda: build_inputs("vgg13", scale), warm_up)

    def leg(flag, label, recorder=None) -> Leg:
        def train():
            runs = fresh_runs(ctx, scale, label)
            with env("REPRO_COMPILE_STEP", flag):
                return runs, _vgg13_dense(runs)
        return run_leg(ctx, train, scale.epochs, recorder)

    repeats = 1 if ctx.traced else max(
        1, int(ctx.seconds // NOMINAL_S["dense_vgg13_wide"]))
    eager: List[Leg] = []
    default: List[Leg] = []
    for i in range(repeats):                    # E C E C ...
        eager.append(leg("0", f"E{i}"))
        default.append(leg("1", f"C{i}"))
    ctx.gate("eager_equals_default", same_digest(eager + default))
    ctx.gate("same_seed_same_digest", same_digest(default))
    ctx.digests.update(eager=eager[-1].digest, default=default[-1].digest)
    put_end_to_end(ctx, "dense_vgg13_wide", default, eager)

    if ctx.traced:
        rec = SpanRecorder()
        traced = leg("1", "C-traced", rec)
        ctx.gate("traced_equals_untraced",
                 traced.digest == default[-1].digest)
        put_train_layers(ctx, rec, traced, default[-1])
        ctx.traces["dense_vgg13_wide"] = rec.chrome_trace()


# -- workload 3: reconfiguration churn + resume, VGG-11 ----------------------

def _churn_scale(ctx: Ctx):
    if ctx.smoke:
        base = replace(SMOKE, epochs=4, reconfig_interval=1)
    else:
        # Width 0.25, not QUICK's 0.375: every epoch plans a new arena, and
        # above 32 MB glibc gives each one a fresh mapping whose first touch
        # costs 4-9 ms/MB on this VM when the host has not backed the pages
        # yet, 0.2 when it has.  At 0.375 (45 MB arenas; 60-75 MB once the
        # batch grew) 1-3 s, with dynamic batch 5-12 s, of a 12-18 s leg were
        # kernel time and ten seeds spread by 0.15 (full leg) and 0.30
        # (resume leg); at 0.25 (20 MB arenas) by 0.12 and 0.13.
        base = replace(QUICK, n_train=192, width_mult=0.25, epochs=12,
                       reconfig_interval=1)
    return replace(base, seed=ctx.subseed("reconfig_churn_vgg11"))


#: Lasso penalty ratio of the churn workload.  At the default 0.25 with a
#: reconfiguration every epoch the network collapses within a few epochs and
#: how fast depends on the seed (training FLOPs 3.2e10-5.6e10 over five
#: seeds); at 0.1 the FLOPs agree to +-5% but the surviving shapes, and with
#: them the step time, still differ by +-25%.  At 0.05 every epoch still
#: prunes a few channels, recaptures, re-plans and checkpoints, and the leg
#: takes the same time to +-6% whatever the seed, which is what identical
#: work (ratio 0.03 prunes nothing) scatters by on this host.  (Measured at
#: QUICK width, before the workload moved to width 0.25.)
CHURN_RATIO = 0.05


def _churn_prune(runs: Runs) -> str:
    # No dynamic batch here (``prunetrain_r32`` has it): whether the batch
    # grew to 56 or to 96 depended on the seed and split ten seeds into two
    # groups of peak RSS (450-510 / 535-575 MB) and of full/resume ratio.
    # Every epoch still changes the shapes, so every epoch still recaptures.
    return runs.prunetrain("vgg11", DATASET, ratio=CHURN_RATIO,
                           dynamic_batch=False, zero_sparse=False)[0]


def _records_equal(a, b) -> bool:
    """EpochRecords equal in everything but the measured wall time."""
    da, db = dict(vars(a)), dict(vars(b))
    da.pop("wall_time"), db.pop("wall_time")
    return da == db


def reconfig_churn_vgg11(ctx: Ctx) -> None:
    scale = _churn_scale(ctx)
    half = scale.epochs // 2

    # two epochs: one surgery + recapture inside the compared window
    put_setup(ctx, lambda: build_inputs("vgg11", scale),
              lambda: eager_equals_default(
                  ctx, _churn_prune, replace(scale, epochs=2), "parity"))

    def full(label, recorder=None) -> Leg:
        def train():
            runs = fresh_runs(ctx, scale, label, checkpoint_every=1,
                              checkpoint_keep=0)
            return runs, _churn_prune(runs)
        return run_leg(ctx, train, scale.epochs, recorder)

    def resume(source: Leg, label, recorder=None) -> Leg:
        """A fresh Runs whose checkpoint dir holds only leg 1's mid-run
        checkpoint: its auto-resume restores it and trains to the end."""
        src = checkpoint_path(source.trainer.cfg.checkpoint_dir, half - 1)

        def train():
            runs = fresh_runs(ctx, scale, label, checkpoint_every=1,
                              checkpoint_keep=0)
            key = os.path.basename(source.trainer.cfg.checkpoint_dir)
            dst = os.path.join(runs.checkpoint_dir, key)
            os.makedirs(dst)
            shutil.copy(src, dst)
            return runs, _churn_prune(runs)
        return run_leg(ctx, train, scale.epochs - half, recorder)

    repeats = 1 if ctx.traced else max(
        1, int(ctx.seconds // NOMINAL_S["reconfig_churn_vgg11"]))
    leg1: List[Leg] = []
    leg2: List[Leg] = []
    for i in range(repeats):
        leg1.append(full(f"full{i}"))
        leg2.append(resume(leg1[-1], f"resume{i}"))
    a, b = leg1[-1], leg2[-1]
    ctx.gate("resume_reproduces_run",
             len(b.log.records) == scale.epochs
             and all(_records_equal(x, y) for x, y in
                     zip(a.log.records[half:], b.log.records[half:]))
             and states_equal(a.state, b.state))
    ctx.gate("same_seed_same_digest", same_digest(leg1) and same_digest(leg2))
    ctx.digests.update(full=a.digest, resumed=b.digest)
    put_end_to_end(ctx, "reconfig_churn_vgg11", leg1, leg2)
    ctx.put("resume_wall_s", ctx.metrics["ref_wall_s"][0], "s")

    if ctx.traced:
        rec, rec2 = SpanRecorder(), SpanRecorder()   # one per leg
        traced = full("full-traced", rec)
        resumed = resume(traced, "resume-traced", rec2)
        ctx.gate("traced_equals_untraced", traced.digest == a.digest
                 and resumed.digest == b.digest)
        put_train_layers(ctx, rec, traced, a)
        # io.checkpoint read side: the resume leg, over its own wall
        restore = rec2.totals()["checkpoint.restore"].total_s
        ctx.put("checkpoint.restore_s", restore, "s")
        ctx.put("checkpoint.restore_share", restore / resumed.timed.raw_s,
                "ratio")
        ctx.put("trace.resume_wall_s", resumed.timed.raw_s, "s")
        ctx.traces["reconfig_churn_vgg11"] = rec.chrome_trace()
        ctx.traces["reconfig_churn_vgg11-resume"] = rec2.chrome_trace()


# -- tracing: spans around the calls into each layer --------------------------

def install_train_spans(rec: SpanRecorder) -> None:
    rec.wrap(Trainer, "train", "trainer.train")
    rec.wrap_iter(DataLoader, "__iter__", "data.next")
    rec.wrap(_trainer_mod, "capture_training_step", "compile.capture")
    rec.wrap(_trainer_mod, "capture_forward", "compile.capture")
    rec.wrap(StepPlan, "run", "compile.replay")
    rec.wrap(StepPlan, "run_forward", "compile.replay")
    rec.wrap(StepPlan, "mem_metrics", "memplan.metrics")
    rec.wrap(Tensor, "backward", "autograd.backward")
    rec.wrap(PruneTrainTrainer, "post_backward", "lasso.step")
    rec.wrap(SGD, "zero_grad", "optim.zero_grad")
    rec.wrap(SGD, "step", "optim.step", after=rec.next_group)
    rec.wrap(PruneTrainTrainer, "on_epoch_end", "trainer.on_epoch_end")
    rec.wrap(_prunetrain_mod, "prune_and_reconfigure", "reconfigure")
    rec.wrap(DynamicBatchAdjuster, "propose", "minibatch.propose")
    rec.wrap(Trainer, "evaluate", "trainer.evaluate")
    rec.wrap(_trainer_mod, "save_checkpoint", "checkpoint.save")
    rec.wrap(_trainer_mod, "restore_checkpoint", "checkpoint.restore")


def put_train_layers(ctx: Ctx, rec: SpanRecorder, traced: Leg,
                     untraced: Leg) -> None:
    """Per-layer metrics of one traced leg; ``untraced`` is the same leg
    (same seed, same steps) measured just before without the recorder."""
    tot = rec.totals()

    def total(name):
        return tot[name].total_s if name in tot else 0.0

    def self_s(name):
        return tot[name].self_s if name in tot else 0.0

    def count(name):
        return tot[name].count if name in tot else 0

    wall = total("trainer.train") - total("host.probe")

    def share(seconds):
        return seconds / wall

    # Tracing costs microseconds per span and two whole legs differ by
    # percent.  Measured: the legs run the same steps, so compare them step
    # by step in calibrated time and take the median, which bursts of host
    # noise do not move (a few percent of noise remain).  Computed: span
    # count times the cost of one span.
    spans = sum(t.count for t in tot.values())
    ctx.put("trace_overhead_frac", statistics.median(
        t / u for t, u in zip(traced.cal_periods_ms(),
                              untraced.cal_periods_ms())) - 1.0, "ratio")
    ctx.put("trace.span_cost_frac", spans * span_cost_s() / wall, "ratio")
    ctx.put("trace.spans", spans, "count")
    ctx.put("trace.wall_s", wall, "s")
    ctx.put("host.kernel_share", traced.kernel_s / wall, "ratio")

    # data
    ctx.put("data.batches", count("data.next"), "count")
    ctx.put("data.batch_ms", 1e3 * total("data.next")
            / max(count("data.next"), 1), "ms")
    ctx.put("data.share", share(total("data.next")), "ratio")

    # train.trainer: step period = gap between consecutive optimizer.step
    # returns inside one epoch (the leg's own step clock: probes excluded)
    periods = [p * 1e3 for p in traced.periods]
    ctx.put("trainer.steps", count("optim.step"), "count")
    ctx.put("trainer.step_p50_ms", percentile(periods, 50), "ms")
    ctx.put("trainer.step_p95_ms", percentile(periods, 95), "ms")
    eval_s = total("trainer.evaluate")
    # cost-model accounting of _make_record: the trainer's own time between
    # the evaluation (and the probe hooked behind it) and the next call out
    record = rec.gaps_after("trainer.train",
                            ("trainer.evaluate", "host.probe"))
    other = self_s("trainer.train") - record
    ctx.put("trainer.eval_s", eval_s, "s")
    ctx.put("trainer.eval_share", share(eval_s), "ratio")
    ctx.put("trainer.record_s", record, "s")
    ctx.put("trainer.record_share", share(record), "ratio")
    ctx.put("trainer.other_s", other, "s")
    ctx.put("trainer.other_share", share(other), "ratio")
    ctx.put("trainer.children_cover_frac", 1.0 - other / wall, "ratio")
    ctx.gate("spans_cover_90pct", ctx.smoke or other / wall <= 0.10)

    # tensor.compile
    cap, rep = total("compile.capture"), total("compile.replay")
    ctx.put("compile.captures", count("compile.capture"), "count")
    ctx.put("compile.capture_s", cap, "s")
    ctx.put("compile.capture_share", share(cap), "ratio")
    ctx.put("compile.replays", count("compile.replay"), "count")
    ctx.put("compile.replay_s", rep, "s")
    ctx.put("compile.replay_share", share(rep), "ratio")
    ctx.put("compile.replay_p50_ms", 1e3 * percentile(
        tot["compile.replay"].durations, 50), "ms")
    ctx.put("autograd.backward_s", total("autograd.backward"), "s")
    ctx.put("autograd.backward_share", share(total("autograd.backward")),
            "ratio")

    put_engine_counters(ctx, traced.counters)
    ctx.put("memplan.solve_share", share(traced.counters["memplan.solve_s"]),
            "ratio")
    ctx.put("memplan.metrics_s", total("memplan.metrics"), "s")
    ctx.put("memplan.metrics_share", share(total("memplan.metrics")),
            "ratio")
    ctx.put("memplan.arena_bytes_max",
            max(r.arena_bytes for r in traced.log.records), "count")
    ctx.put("memplan.savings", traced.log.records[-1].mem_plan_savings,
            "ratio")

    # optimizer / lasso / surgery / batch growth / checkpoints
    ctx.put("optim.step_ms", 1e3 * total("optim.step")
            / max(count("optim.step"), 1), "ms")
    ctx.put("optim.step_s", total("optim.step"), "s")
    ctx.put("optim.zero_grad_s", total("optim.zero_grad"), "s")
    ctx.put("optim.share",
            share(total("optim.step") + total("optim.zero_grad")), "ratio")
    ctx.put("lasso.step_ms", 1e3 * total("lasso.step")
            / max(count("lasso.step"), 1), "ms")
    ctx.put("lasso.s", total("lasso.step"), "s")
    ctx.put("lasso.share", share(total("lasso.step")), "ratio")
    reports = getattr(traced.trainer, "reports", [])
    ctx.put("reconfigure.calls", count("reconfigure"), "count")
    ctx.put("reconfigure.s", total("reconfigure"), "s")
    ctx.put("reconfigure.share", share(total("reconfigure")), "ratio")
    ctx.put("reconfigure.channels_removed",
            sum(r.channels_pruned for r in reports), "count")
    ctx.put("reconfigure.layers_removed",
            traced.log.records[-1].removed_layers, "count")
    sizes = [r.batch_size for r in traced.log.records]
    ctx.put("minibatch.growths",
            sum(1 for a, b in zip(sizes, sizes[1:]) if b > a), "count")
    ctx.put("minibatch.final_batch", sizes[-1], "count")
    ckpt_dir = traced.trainer.cfg.checkpoint_dir
    files = [os.path.join(ckpt_dir, f) for f in os.listdir(ckpt_dir)] \
        if ckpt_dir and os.path.isdir(ckpt_dir) else []
    ctx.put("checkpoint.saves", count("checkpoint.save"), "count")
    ctx.put("checkpoint.save_s", total("checkpoint.save"), "s")
    ctx.put("checkpoint.save_share", share(total("checkpoint.save")),
            "ratio")
    ctx.put("checkpoint.bytes", sum(os.path.getsize(f) for f in files),
            "count")
    ctx.put("checkpoint.restore_s", total("checkpoint.restore"), "s")
    ctx.put("checkpoint.restore_share", share(total("checkpoint.restore")),
            "ratio")

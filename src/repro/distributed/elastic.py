"""Elastic multi-process synchronous data-parallel training engine.

This is the scale-out path the paper's Sec. 2.2 ("Distributed Training")
argues PruneTrain accelerates: K worker *processes* (stdlib
``multiprocessing``, fork start method) each hold a model replica, compute
gradients over a shard of the global mini-batch, and exchange them through
POSIX shared memory using the executable ring-allreduce schedule from
:mod:`repro.distributed.allreduce` — the same schedule the in-process
simulation runs, now actually crossing process boundaries.

Overlapped zero-copy gradient exchange
--------------------------------------
Workers replay compiled step plans (:mod:`repro.tensor.compile`) whose
gradient sink thunks write **directly into the shared-memory gradient
segment** (``workspace.bind_grad_sinks``): backward's final ``out=``
reduction lands each parameter's gradient at its flat-payload offset with
no packing copy.  Gradients are grouped into module-aligned, size-targeted
buckets (:func:`~repro.distributed.allreduce.plan_gradient_buckets`)
ordered the way backward produces them; the plan schedules a comm-launch
thunk (``StepPlan.add_comm_thunk``) after the last backward thunk of each
bucket, so the worker notifies the coordinator — a ``("bucket", step,
attempt, index)`` pipe message — while later backward thunks are still
executing.  The coordinator reduces a bucket with
:func:`~repro.distributed.allreduce.ring_allreduce_range` the moment every
participant has posted it, overlapping communication with the stragglers'
remaining compute; buckets still pending when the last worker finishes are
reduced as a serial tail.  Because the bucketed ring replays the monolithic
ring's per-role association chains exactly, the reduced bits are those of
the simulation's single ring — overlap is a pure scheduling change.

This is the one exchange the engine has; only the bucket size is a
parameter (``ElasticEngine(bucket_bytes=...)``).  A step with no plan to
replay — the capture step itself, or a capture failure such as the seed
conv lowering — runs eagerly, packs its gradients into the segment and
announces every bucket after the pack: same bits
(``tests/distributed/test_comm_overlap``).

Bit-exactness contract
----------------------
A fault-free elastic run is **bit-identical** to the in-process simulation
(:func:`repro.distributed.worker.data_parallel_step`) with the same worker
count.  Three properties make that hold:

- *Gradients*: each worker's forward/backward is a pure function of
  (parameters, shard) — in training mode batch norm normalizes with batch
  statistics, never the running stats — so replica gradients match the
  simulation's sequential per-shard backward bit for bit (compiled replay
  is itself bit-exact vs eager), and the identical ring schedule reduces
  them to identical bits bucket by bucket.
- *BN running statistics*: the simulation updates the shared model's
  running stats once per shard, sequentially.  Each worker ships its batch
  statistics (via :func:`repro.tensor.ops.norm.set_bn_stats_sink` — fired
  by the eager kernel and the compiled BN thunk alike) to the coordinator,
  which replays the same in-place updates on its authoritative model in
  shard order.
- *Optimizer/regularizer state*: the coordinator owns the model, the
  optimizer, and the group-lasso state; workers are stateless gradient
  engines resynchronized from a parameter broadcast every step.

Reconfiguration resync
----------------------
``prune_and_reconfigure`` (and any checkpoint restore) bumps
``workspace.PLAN_GENERATION``.  The engine watches that counter: on the
next step it serializes the coordinator model with
:func:`repro.io.checkpoint.dumps_state` — exactly a format-v2 checkpoint —
and every worker replays it onto its replica with
:func:`repro.io.checkpoint.loads_state`, so a resync is bit-equivalent to
a checkpoint round-trip.  The restore bumps the *worker's* plan generation
too, purging its compiled plans; the worker then recomputes the payload
layout, rebinds the shared-memory gradient sinks at the new offsets, and
recaptures on the next step.  Structure replay is monotone (channels only
leave, paths only deactivate), so a replica at the previous configuration
is always a valid restore target, and both sides derive identical bucket
plans from identical model structure.

Fault model
-----------
Workers heartbeat into shared memory while idle and at step boundaries; a
worker whose process died, whose pipe closed, or whose heartbeat is stale
(or garbage) for longer than ``heartbeat_timeout`` is evicted.  A step is
**atomic**: if any participant fails mid-step — even after some of its
buckets were already reduced in place — the partial results are discarded,
the failed workers are evicted, and the whole step re-executes on the
survivors, whose next attempt fully overwrites every payload element
(zero-copy sinks are pure ``out=`` overwrites; the eager path packs the
whole payload), so a half-reduced segment can never leak into a result:
from the failure step onward the run is bit-identical to a clean run with
the surviving worker count.  Bucket notifications arrive over the same
FIFO pipe as results, after the segment is fully written — the coordinator
never reads a bucket a worker is still writing.  Training degrades
gracefully from K to K-1 ... down to 1; only the loss of every worker
aborts the run.  :class:`FaultPlan` scripts failures (kill / hang /
heartbeat corruption at a given step, or a kill wedged *between* bucket
launches mid-backward) deterministically, which makes every failure path
testable.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..io.checkpoint import dumps_state, loads_state
from ..nn.layers import BatchNorm2d
from ..nn.module import Module
from ..profiler import PROFILER
from ..tensor import Tensor
from ..tensor import functional as F
from ..tensor import workspace as _ws
from ..tensor.compile import PlanCache, capture_training_step
from ..tensor.ops import norm as _norm_ops
from .allreduce import (COMM_STATS, GradBucket, module_param_groups,
                        plan_gradient_buckets, ring_allreduce_range)


# -- fault injection ---------------------------------------------------------

@dataclass(frozen=True)
class FaultAction:
    """One scripted failure: fires on the first command whose global step
    index is >= ``step`` (a resync preceding step ``s`` carries index ``s``,
    so faults can target reconfiguration barriers too).  A
    ``kill_after_bucket`` action instead fires from *inside* the step, right
    after the worker announces bucket ``bucket`` — i.e. between bucket
    launches, with part of the payload exchanged and part still in flight."""

    kind: str            # "kill" | "hang" | "corrupt_heartbeat"
                         # | "kill_after_bucket"
    worker: int          # rank the fault applies to
    step: int            # global step index at/after which it fires
    duration: float = float("inf")   # hang only: seconds to stall
    bucket: int = -1     # kill_after_bucket only: bucket index to die after


class FaultPlan:
    """A reproducible failure script for an elastic run.

    Example::

        plan = (FaultPlan().kill(1, at_step=3)
                           .hang(0, at_step=7, seconds=60))
    """

    def __init__(self) -> None:
        self.actions: List[FaultAction] = []

    def kill(self, worker: int, at_step: int) -> "FaultPlan":
        """Terminate ``worker``'s process when it sees step ``at_step``."""
        self.actions.append(FaultAction("kill", worker, at_step))
        return self

    def hang(self, worker: int, at_step: int,
             seconds: float = float("inf")) -> "FaultPlan":
        """Stall ``worker`` for ``seconds`` when it sees step ``at_step``."""
        self.actions.append(FaultAction("hang", worker, at_step, seconds))
        return self

    def corrupt_heartbeat(self, worker: int, at_step: int) -> "FaultPlan":
        """Poison ``worker``'s heartbeat slot (NaN, never updated again)."""
        self.actions.append(FaultAction("corrupt_heartbeat", worker, at_step))
        return self

    def kill_after_bucket(self, worker: int, at_step: int,
                          bucket: int) -> "FaultPlan":
        """Terminate ``worker`` right after it announces ``bucket`` during
        step ``at_step`` (or the first later step that reaches it) — a death
        *between* bucket launches, mid-backward."""
        self.actions.append(
            FaultAction("kill_after_bucket", worker, at_step, bucket=bucket))
        return self

    def for_worker(self, rank: int) -> List[FaultAction]:
        return sorted((a for a in self.actions if a.worker == rank),
                      key=lambda a: a.step)


@dataclass(frozen=True)
class FailureEvent:
    """One detected worker failure (deterministic for scripted faults)."""

    rank: int
    step: int            # global step index being executed when detected
    reason: str          # "died" | "heartbeat" | "pipe"
    phase: str           # "step" | "resync"


@dataclass
class ElasticStepResult:
    """One elastic training step's outputs (mirrors ``StepResult`` plus
    elasticity telemetry)."""

    loss: float
    accuracy: float
    comm_bytes_per_worker: float
    stall_seconds: float = 0.0       # wall time lost waiting on stragglers
    active_workers: int = 0          # workers alive after this step
    failures: int = 0                # failures detected during this step
    buckets_overlapped: int = 0      # buckets reduced under worker compute


@dataclass
class _Handle:
    """Coordinator-side bookkeeping for one worker process."""

    rank: int
    proc: mp.process.BaseProcess
    conn: object                     # coordinator end of the duplex pipe
    grad_mm: Optional[mmap.mmap]
    grad_view: Optional[np.ndarray]  # float32 view over the full capacity
    alive: bool = True


#: default gradient-bucket payload target (module-aligned; the last bucket
#: takes the remainder)
_BUCKET_BYTES = 65536


# -- worker process ----------------------------------------------------------

def _worker_main(rank: int, conn, replica: Module, grad_mm, param_mm, hb_mm,
                 capacity: int, nworkers: int, faults: List[FaultAction],
                 bucket_bytes: int, poll: float) -> None:
    """Worker loop: wait for commands, compute shard gradients, report.

    Runs in a forked child: ``replica`` is this process's private copy of
    the coordinator model at fork time; the three mmaps are shared pages.
    """
    hb = np.frombuffer(hb_mm, dtype=np.float64, count=nworkers)
    gview = np.frombuffer(grad_mm, dtype=np.float32, count=capacity)
    pview = np.frombuffer(param_mm, dtype=np.float32, count=capacity)
    pending_faults = [a for a in faults if a.kind != "kill_after_bucket"]
    bucket_faults = [a for a in faults if a.kind == "kill_after_bucket"]
    corrupt = False
    # The host's cores are already oversubscribed K ways by the worker
    # processes — a per-worker replay thread pool would only fight them.
    _ws.config.parallel_replay = False

    def beat() -> None:
        if not corrupt:
            hb[rank] = time.monotonic()

    # Ship per-shard BN batch statistics with each result: the sink keys a
    # training BN forward by the layer's running_mean array identity, which
    # this map resolves to the layer's dotted name (names match the
    # coordinator's — identical architecture, identical traversal).  The
    # compiled BN thunk fires the same sink at the same point in the step.
    bn_names: Dict[int, str] = {}
    stats_log: List[Tuple[str, np.ndarray, np.ndarray]] = []

    def rebuild_bn_map() -> None:
        bn_names.clear()
        for name, m in replica.named_modules():
            if isinstance(m, BatchNorm2d):
                bn_names[id(m.running_mean)] = name

    _norm_ops.set_bn_stats_sink(
        lambda rm, mu, var: stats_log.append((bn_names[id(rm)], mu, var)))
    rebuild_bn_map()

    # Flat payload layout + bucket plan, derived from the replica (identical
    # to the coordinator's — same structure, same traversal).  Each
    # parameter's gradient sink is a view into the shared gradient segment
    # at its payload offset, so compiled backward writes gradients straight
    # into the allreduce memory.
    layout: Dict[str, object] = {}

    def refresh_layout() -> None:
        params = replica.parameters()
        sizes = [p.data.size for p in params]
        offsets = list(np.cumsum([0] + sizes[:-1]))
        layout["params"] = params
        layout["sizes"] = sizes
        layout["offsets"] = offsets
        layout["buckets"] = plan_gradient_buckets(
            sizes, offsets, module_param_groups(replica),
            bucket_bytes) if nworkers > 1 else []
        _ws.bind_grad_sinks({
            id(p): gview[off:off + sz].reshape(p.data.shape)
            for p, off, sz in zip(params, offsets, sizes)})

    refresh_layout()

    plans = PlanCache(max_entries=4)
    cur = {"step": 0, "attempt": 0}

    def send_bucket(index: int) -> None:
        conn.send(("bucket", cur["step"], cur["attempt"], index))
        beat()
        if bucket_faults and bucket_faults[0].step <= cur["step"] \
                and bucket_faults[0].bucket == index:
            os._exit(17)

    def compiled_step(xb, yb):
        """Run the step through a compiled plan (capturing on first sight
        of this shard shape).  Returns ``(loss, logits, launched, bound)``
        where ``launched`` are bucket indices already announced from inside
        the replay and ``bound`` the leaf ids whose gradients are already
        in shared memory — or ``None`` if this shape is uncompilable."""
        key = (xb.shape, yb.shape)
        plan = plans.lookup(key)
        if plan is not None:
            loss, logits = plan.run(xb, yb)
            return float(loss), logits, plan.comm_buckets(), \
                plan.sink_bound_leaves()
        if plans.sealed(key):
            return None
        plan, lt, lg, reason = capture_training_step(replica, xb, yb)
        plans.store(key, plan, reason)
        lt.backward()
        if plan is not None:
            for b in layout["buckets"]:    # none at K = 1
                lids = [id(layout["params"][i]) for i in b.param_indices]
                plan.add_comm_thunk(b.index, lids,
                                    lambda i=b.index: send_bucket(i))
        # the capture's forward/loss WAS this step's eager computation —
        # gradients are in p.grad, nothing announced or in shared memory yet
        return lt.item(), lg.data, frozenset(), frozenset()

    try:
        while True:
            while not conn.poll(poll):
                beat()
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            beat()
            kind = msg[0]
            if kind == "stop":
                break
            step_idx = msg[1]
            # scripted faults fire on any step/resync command at/after their
            # step index
            while pending_faults and pending_faults[0].step <= step_idx:
                action = pending_faults.pop(0)
                if action.kind == "kill":
                    os._exit(17)
                elif action.kind == "hang":
                    time.sleep(min(action.duration, 3600.0))
                elif action.kind == "corrupt_heartbeat":
                    corrupt = True
                    hb[rank] = float("nan")

            if kind == "resync":
                loads_state(msg[2], replica)   # bumps the plan generation:
                rebuild_bn_map()               # stale plans purge on lookup
                refresh_layout()
                beat()
                conn.send(("resync_ack", step_idx))
            elif kind == "step":
                attempt, xb, yb = msg[2], msg[3], msg[4]
                cur["step"], cur["attempt"] = step_idx, attempt
                # pull the parameter broadcast into the replica (in place:
                # surgery preserved parameter objects, shapes match)
                off = 0
                for p in layout["params"]:
                    sz = p.data.size
                    p.data[...] = pview[off:off + sz].reshape(p.data.shape)
                    off += sz
                stats_log.clear()
                replica.train()
                replica.zero_grad()
                res = compiled_step(xb, yb)
                if res is None:
                    logits_t = replica(Tensor(xb))
                    loss_t = F.cross_entropy(logits_t, yb)
                    loss_t.backward()
                    loss_val, logits = loss_t.item(), logits_t.data
                    launched, bound = set(), frozenset()
                else:
                    loss_val, logits, launched, bound = res
                # pack the gradients that did not land in shared memory via
                # a bound sink (all of them, on the eager/capture paths)
                for p, off, sz in zip(layout["params"], layout["offsets"],
                                      layout["sizes"]):
                    if id(p) not in bound:
                        if p.grad is not None:
                            gview[off:off + sz] = p.grad.reshape(-1)
                        else:
                            gview[off:off + sz] = 0.0
                for b in layout["buckets"]:
                    if b.index not in launched:
                        send_bucket(b.index)
                correct = int((logits.argmax(1) == yb).sum())
                beat()
                conn.send(("done", step_idx, attempt, loss_val,
                           int(len(yb)), correct, list(stats_log)))
    except Exception:  # pragma: no cover - worker bugs surface as eviction
        traceback.print_exc(file=sys.stderr)
        os._exit(1)
    finally:
        _norm_ops.set_bn_stats_sink(None)
        _ws.clear_grad_sinks()
        conn.close()


# -- coordinator -------------------------------------------------------------

class ElasticEngine:
    """Coordinator of the elastic multi-process data-parallel run.

    The caller (normally :class:`repro.train.Trainer` with ``workers > 1``)
    drives it one global batch at a time::

        engine = ElasticEngine(model, workers=4)
        result = engine.step(x, y)     # leaves averaged grads in p.grad
        optimizer.step()               # coordinator-side update
        ...
        engine.shutdown()

    The engine never steps the optimizer itself — gradients land in the
    coordinator parameters' ``.grad`` exactly as
    :func:`~repro.distributed.worker.data_parallel_step` leaves them, so
    regularizers and the optimizer run unchanged on the coordinator.

    ``bucket_bytes`` is the payload target of one gradient bucket (64 KiB
    by default; models smaller than that exchange as a single bucket).
    """

    def __init__(self, model: Module, workers: int,
                 heartbeat_timeout: float = 30.0,
                 fault_plan: Optional[FaultPlan] = None,
                 poll_interval: float = 0.002,
                 bucket_bytes: int = _BUCKET_BYTES):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "ElasticEngine needs the fork start method (POSIX); use "
                "TrainerConfig(dist_engine='sim') on this platform")
        self.model = model
        self.workers = int(workers)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.fault_plan = fault_plan
        self.bucket_bytes = int(bucket_bytes)
        if self.bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")
        self._poll = float(poll_interval)
        self._ctx = mp.get_context("fork")
        self._handles: List[_Handle] = []
        self._started = False
        self._step_idx = 0
        self._generation: Optional[int] = None
        self._param_mm: Optional[mmap.mmap] = None
        self._hb_mm: Optional[mmap.mmap] = None
        self._param_view: Optional[np.ndarray] = None
        self._hb: Optional[np.ndarray] = None
        self.failures: List[FailureEvent] = []
        self.total_stall_seconds = 0.0
        self.total_comm_bytes = 0.0

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "ElasticEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def active_ranks(self) -> List[int]:
        return [h.rank for h in self._handles if h.alive]

    @property
    def active_workers(self) -> int:
        return len(self.active_ranks) if self._started else self.workers

    def start(self) -> None:
        """Fork the worker pool around the model's *current* state."""
        if self._started:
            return
        for p in self.model.parameters():
            if p.data.dtype != np.float32:
                raise TypeError(
                    f"elastic engine expects float32 parameters, got "
                    f"{p.data.dtype}")
        self._refresh_layout()
        # Pruning only shrinks the payload, so capacity fixed at the current
        # size is an upper bound for the whole run (mmaps cannot grow after
        # the fork — anonymous shared pages are inherited, not named).
        self._capacity = max(1, self._payload)
        nbytes = self._capacity * 4
        self._param_mm = mmap.mmap(-1, nbytes)
        self._param_view = np.frombuffer(self._param_mm, dtype=np.float32,
                                         count=self._capacity)
        self._hb_mm = mmap.mmap(-1, self.workers * 8)
        self._hb = np.frombuffer(self._hb_mm, dtype=np.float64,
                                 count=self.workers)
        self._hb[:] = time.monotonic()
        for rank in range(self.workers):
            grad_mm = mmap.mmap(-1, nbytes)
            coord_conn, work_conn = self._ctx.Pipe(duplex=True)
            faults = self.fault_plan.for_worker(rank) if self.fault_plan \
                else []
            proc = self._ctx.Process(
                target=_worker_main,
                args=(rank, work_conn, self.model, grad_mm, self._param_mm,
                      self._hb_mm, self._capacity, self.workers, faults,
                      self.bucket_bytes, max(self._poll, 0.02)),
                daemon=True, name=f"elastic-worker-{rank}")
            proc.start()
            work_conn.close()   # child keeps its copy; EOF works both ways
            self._handles.append(_Handle(
                rank, proc, coord_conn, grad_mm,
                np.frombuffer(grad_mm, dtype=np.float32,
                              count=self._capacity)))
        self._started = True
        self._generation = _ws.PLAN_GENERATION

    def shutdown(self) -> None:
        """Stop and reap all workers, releasing every shared-memory segment
        (idempotent — safe to call twice, or after evictions already closed
        some segments)."""
        for h in self._handles:
            if h.alive:
                try:
                    h.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for h in self._handles:
            h.proc.join(timeout=2.0)
            if h.proc.is_alive():  # pragma: no cover - stuck worker
                h.proc.terminate()
                h.proc.join(timeout=2.0)
            try:
                h.conn.close()
            except OSError:  # pragma: no cover
                pass
            h.alive = False
            self._close_grad_segment(h)
        self._handles = []
        self._started = False
        # Drop the numpy views before closing: a live view keeps the mmap's
        # buffer exported and close() would raise BufferError.  A view some
        # caller still holds leaves the pages alive until it dies — the
        # close is then retried-by-GC, never raised to the caller.
        self._param_view = None
        self._hb = None
        for attr in ("_param_mm", "_hb_mm"):
            mm = getattr(self, attr, None)
            if mm is not None:
                try:
                    mm.close()
                except (BufferError, OSError, ValueError):
                    pass
                setattr(self, attr, None)

    @staticmethod
    def _close_grad_segment(h: _Handle) -> None:
        """Release one worker's gradient segment (idempotent; tolerates a
        still-exported buffer from an in-flight attempt's view list)."""
        h.grad_view = None
        if h.grad_mm is not None:
            try:
                h.grad_mm.close()
            except (BufferError, OSError, ValueError):
                pass
            h.grad_mm = None

    # -- payload layout ----------------------------------------------------
    def _refresh_layout(self) -> None:
        """Recompute the flat parameter/gradient payload layout, the bucket
        plan, and the BN name map (valid until the next reconfiguration)."""
        self._params = self.model.parameters()
        self._sizes = [p.data.size for p in self._params]
        self._offsets = list(np.cumsum([0] + self._sizes[:-1]))
        self._payload = int(sum(self._sizes))
        self._buckets: List[GradBucket] = plan_gradient_buckets(
            self._sizes, self._offsets, module_param_groups(self.model),
            self.bucket_bytes) if self.workers > 1 else []
        self._bn = {name: m for name, m in self.model.named_modules()
                    if isinstance(m, BatchNorm2d)}

    # -- failure detection -------------------------------------------------
    def _evict(self, rank: int, reason: str, phase: str) -> None:
        h = self._handles[rank]
        if not h.alive:   # pragma: no cover - double eviction is a no-op
            return
        h.alive = False
        self.failures.append(FailureEvent(rank, self._step_idx, reason,
                                          phase))
        try:
            h.proc.terminate()
        except OSError:  # pragma: no cover
            pass
        try:
            h.conn.close()
        except OSError:  # pragma: no cover
            pass
        # The worker may have died mid-write; its segment is never read
        # again (the attempt is voided), so release it now.  A view pinned
        # by the in-flight attempt defers the close harmlessly.
        self._close_grad_segment(h)

    def _await(self, ranks: List[int], match, phase: str, on_other=None
               ) -> Tuple[Dict[int, tuple], List[int], float]:
        """Collect one matching message per rank, with failure detection.

        Returns ``(results, failed_ranks, stall_seconds)``.  Failure checks
        run *before* each rank's pipe is drained, so a worker with a
        corrupted heartbeat is evicted deterministically even if its result
        raced in.  Non-matching messages go to ``on_other(rank, msg,
        pending)`` when given (the overlap path's bucket notifications) and
        are dropped otherwise (stale attempts).  Between sweeps the
        coordinator blocks in :func:`multiprocessing.connection.wait`
        rather than sleep-polling.  ``stall`` is the wall time between the
        first completion and the end of the wait — idle coordinator/
        fast-worker time.
        """
        pending = set(ranks)
        results: Dict[int, tuple] = {}
        failed: List[int] = []
        t_first: Optional[float] = None
        while pending:
            now = time.monotonic()
            for rank in sorted(pending):
                h = self._handles[rank]
                age = now - self._hb[rank]
                if not h.proc.is_alive():
                    reason = "died"
                elif not (age <= self.heartbeat_timeout):   # stale or NaN
                    reason = "heartbeat"
                else:
                    reason = None
                if reason is not None:
                    self._evict(rank, reason, phase)
                    failed.append(rank)
                    pending.discard(rank)
                    continue
                try:
                    while h.conn.poll(0):
                        msg = h.conn.recv()
                        if match(msg):
                            results[rank] = msg
                            pending.discard(rank)
                            if t_first is None:
                                t_first = time.monotonic()
                            break
                        if on_other is not None:
                            on_other(rank, msg, len(pending))
                except (EOFError, OSError):
                    # EOF usually reaches the blocking wait before the dead
                    # process is reapable; classify by the process itself so
                    # a kill reads "died" (deterministically), and "pipe" is
                    # reserved for a closed pipe on a live worker
                    h.proc.join(timeout=0.2)
                    reason = "pipe" if h.proc.is_alive() else "died"
                    self._evict(rank, reason, phase)
                    failed.append(rank)
                    pending.discard(rank)
            if pending:
                conns = [self._handles[r].conn for r in pending]
                t0 = time.perf_counter()
                try:
                    mp_connection.wait(conns,
                                       timeout=max(self._poll, 0.05))
                except OSError:  # pragma: no cover - raced a close
                    pass
                COMM_STATS.wait_seconds += time.perf_counter() - t0
        stall = (time.monotonic() - t_first) if t_first is not None else 0.0
        return results, failed, stall

    # -- resync ------------------------------------------------------------
    def _resync(self) -> None:
        """Rebuild every replica from the coordinator's serialized state.

        Triggered by a ``workspace.PLAN_GENERATION`` bump — the same signal
        that retires compiled step plans fires whenever pruning surgery or
        a checkpoint restore changed the model under the engine.
        """
        self._refresh_layout()
        if self._payload > self._capacity:  # pragma: no cover - shrink-only
            raise RuntimeError("model payload grew beyond engine capacity")
        blob = dumps_state(self.model)
        ranks = self.active_ranks
        for rank in ranks:
            self._handles[rank].conn.send(("resync", self._step_idx, blob))
        want = self._step_idx
        _, failed, stall = self._await(
            ranks, lambda m: m[0] == "resync_ack" and m[1] == want, "resync")
        self.total_stall_seconds += stall
        if not self.active_ranks:
            raise RuntimeError("all elastic workers failed during resync")
        self._generation = _ws.PLAN_GENERATION

    # -- the step ----------------------------------------------------------
    def step(self, x: np.ndarray, y: np.ndarray) -> ElasticStepResult:
        """One synchronous data-parallel step over the global batch.

        Leaves the averaged gradients in the coordinator parameters'
        ``.grad``, applies every shard's BN running-stat updates to the
        coordinator model (in shard order), and returns the aggregated
        step result.  Retries with the survivors if participants fail.
        """
        n = len(x)
        if n == 0:
            raise ValueError("elastic step got an empty batch")
        if not self._started:
            self.start()
        if self._generation != _ws.PLAN_GENERATION:
            self._resync()
        failures_before = len(self.failures)
        stall_total = 0.0

        # parameter broadcast (valid for every retry of this step)
        pv = self._param_view
        for p, off, sz in zip(self._params, self._offsets, self._sizes):
            pv[off:off + sz] = p.data.reshape(-1)

        attempt = 0
        while True:
            active = self.active_ranks
            if not active:
                raise RuntimeError("all elastic workers failed")
            participants = active[:min(len(active), n)]
            k = len(participants)
            bounds = np.linspace(0, n, k + 1).astype(int)
            want = self._step_idx
            views = [self._handles[rank].grad_view[:self._payload]
                     for rank in participants]
            # per-attempt exchange state: which ranks have announced each
            # bucket, which buckets are already reduced, reduce accounting
            posted: Dict[int, Set[int]] = {}
            reduced: Set[int] = set()
            # "moved" stays an integer total until the single final divide,
            # so the per-worker figure is bit-identical to the monolithic
            # trace's no matter how many buckets the payload was cut into
            acct = {"moved": 0, "reduce": 0.0, "overlapped": 0}
            bucket_of = {b.index: b for b in self._buckets}

            def on_msg(rank, msg, npending, _want=want, _att=attempt,
                       _views=views, _posted=posted, _reduced=reduced,
                       _acct=acct, _bucket_of=bucket_of, _k=k):
                if msg[0] != "bucket" or msg[1] != _want or msg[2] != _att:
                    return
                bi = msg[3]
                ranks_in = _posted.setdefault(bi, set())
                ranks_in.add(rank)
                COMM_STATS.bucket_launches += 1
                if len(ranks_in) == _k and bi not in _reduced:
                    # every participant has fully written this segment
                    # (FIFO pipe: the announcement follows the writes) —
                    # reduce it now, under the stragglers' compute
                    b = _bucket_of[bi]
                    t0 = time.perf_counter()
                    moved = ring_allreduce_range(
                        _views, self._payload, b.lo, b.hi, average=True)
                    dt = time.perf_counter() - t0
                    _reduced.add(bi)
                    _acct["moved"] += moved
                    _acct["reduce"] += dt
                    _acct["overlapped"] += 1
                    COMM_STATS.buckets_reduced += 1
                    COMM_STATS.bytes_moved += moved // _k
                    COMM_STATS.reduce_seconds += dt
                    COMM_STATS.overlapped_seconds += dt

            for i, rank in enumerate(participants):
                lo, hi = bounds[i], bounds[i + 1]
                self._handles[rank].conn.send(
                    ("step", want, attempt, x[lo:hi], y[lo:hi]))
            results, failed, stall = self._await(
                participants,
                lambda m: m[0] == "done" and m[1] == want
                and m[2] == attempt, "step",
                on_other=on_msg if k > 1 else None)
            stall_total += stall
            if not failed:
                break
            # a failed participant voids the attempt — including any
            # buckets already reduced in place: survivors re-execute the
            # whole step and fully overwrite their payloads, so the result
            # is exactly a clean smaller-K step
            attempt += 1

        # aggregate exactly as the in-process simulation does — including the
        # scalar *types*: the shard size stays np.int64 so the accumulated
        # loss is np.float64, matching the sim's promotion behavior in
        # downstream consumers (NEP 50 treats a Python float and a
        # same-valued np.float64 differently against float32 arrays)
        total_loss = 0.0
        total_correct = 0
        for i, rank in enumerate(participants):
            _, _, _, loss_w, _, correct_w, _ = results[rank]
            total_loss += loss_w * (bounds[i + 1] - bounds[i])
            total_correct += correct_w

        # finish the exchange across the workers' shared-memory buffers
        comm_bytes = 0.0
        if k > 1:
            t0 = time.perf_counter()
            moved_total = acct["moved"]
            for b in self._buckets:    # serial tail: still-pending
                if b.index in reduced:
                    continue
                bt0 = time.perf_counter()
                moved = ring_allreduce_range(
                    views, self._payload, b.lo, b.hi, average=True)
                dt = time.perf_counter() - bt0
                moved_total += moved
                COMM_STATS.buckets_reduced += 1
                COMM_STATS.bytes_moved += moved // k
                COMM_STATS.reduce_seconds += dt
                COMM_STATS.tail_seconds += dt
            comm_bytes = moved_total / k
            reduce_dt = acct["reduce"] + (time.perf_counter() - t0)
            if PROFILER.enabled:
                PROFILER.add("dist_allreduce", reduce_dt, int(comm_bytes))
        base = views[0]
        for p, off, sz in zip(self._params, self._offsets, self._sizes):
            p.grad = base[off:off + sz].reshape(p.data.shape).copy()

        # replay per-shard BN running-stat updates in shard order
        for rank in participants:
            for name, mu, var in results[rank][6]:
                bn = self._bn[name]
                m = bn.momentum
                bn.running_mean *= 1.0 - m
                bn.running_mean += m * mu
                bn.running_var *= 1.0 - m
                bn.running_var += m * var

        if PROFILER.enabled and stall_total:
            PROFILER.add("dist_stall", stall_total, 0)
        COMM_STATS.stall_seconds += stall_total
        self._step_idx += 1
        self.total_stall_seconds += stall_total
        self.total_comm_bytes += comm_bytes
        return ElasticStepResult(
            loss=total_loss / n, accuracy=total_correct / n,
            comm_bytes_per_worker=comm_bytes, stall_seconds=stall_total,
            active_workers=len(self.active_ranks),
            failures=len(self.failures) - failures_before,
            buckets_overlapped=acct["overlapped"])

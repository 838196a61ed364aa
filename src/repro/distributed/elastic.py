"""Elastic multi-process synchronous data-parallel training engine.

The scale-out path of the paper's Sec. 2.2 ("Distributed Training"): K
worker *processes* (stdlib ``multiprocessing``, fork start method) each hold
a model replica and compute the gradients of one shard of the global batch.
The step protocol — shard bounds, each shard's
:func:`~repro.tensor.compile.train_step` (every worker replays its own
compiled plans), the flat gradient payload, the exchange and the result —
is the simulation's (:func:`repro.distributed.worker.data_parallel_step`),
stated once in ``docs/ARCHITECTURE.md`` §9 and §12; only where shards run
differs.  Here
the payloads live in POSIX shared memory: each worker packs its gradients
into its segment after backward and reports over a pipe, and once every
participant has reported the coordinator averages the segments in place
with one :func:`~repro.distributed.allreduce.exchange`.  A fault-free run
is bit-identical to the simulation at the same worker count.

The coordinator owns the model, the optimizer and the regularizer state;
workers are stateless gradient engines.  Each worker ships its per-shard
BN batch statistics home (:func:`repro.tensor.ops.norm.set_bn_stats_sink`)
and the coordinator replays the running-stat updates in shard order.  A
move of the model's plan generation (pruning surgery, or a checkpoint
restore, which replays the recorded surgery) makes the next step resync
every replica through
:func:`repro.io.checkpoint.dumps_state` / ``loads_state``.

Fault model: a worker whose process died, whose pipe closed or whose
heartbeat is stale (or garbage) past ``heartbeat_timeout`` is evicted.  A
step is atomic — any participant failure voids the attempt before anything
is reduced, and the survivors re-execute it, fully overwriting their
payloads — so from the failure on the run equals a clean run with the
surviving worker count.  :class:`FaultPlan` scripts failures
deterministically.
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..io.checkpoint import dumps_state, loads_state
from ..nn.layers import BatchNorm2d
from ..nn.module import Module
from ..profiler import PROFILER
from ..tensor.blas import (blas_threads, limit_blas_threads,
                           per_worker_threads)
from ..tensor.compile import PlanCache, train_step
from ..tensor.ops import norm as _norm_ops
from .allreduce import COMM_STATS, GradPayload, exchange
from .worker import StepResult, shard_bounds


# -- fault injection ---------------------------------------------------------

@dataclass(frozen=True)
class FaultAction:
    """One scripted failure: fires on the first command whose global step
    index is >= ``step`` (a resync preceding step ``s`` carries index ``s``,
    so faults can target reconfiguration barriers too)."""

    kind: str            # "kill" | "hang" | "corrupt_heartbeat"
    worker: int          # rank the fault applies to
    step: int            # global step index at/after which it fires
    duration: float = float("inf")   # hang only: seconds to stall


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
class ElasticStepResult(StepResult):
    """One elastic training step's outputs: the :class:`StepResult` plus
    elasticity telemetry."""

    stall_seconds: float = 0.0       # wall time lost waiting on stragglers
    active_workers: int = 0          # workers alive after this step
    failures: int = 0                # failures detected during this step


@dataclass
class _Handle:
    """Coordinator-side bookkeeping for one worker process."""

    rank: int
    proc: mp.process.BaseProcess
    conn: object                     # coordinator end of the duplex pipe
    grad_mm: Optional[mmap.mmap]
    grad_view: Optional[np.ndarray]  # float32 view over the full capacity
    alive: bool = True


#: seconds an idle worker waits for a command between heartbeats, and the
#: longest the coordinator blocks between failure checks
_IDLE_POLL = 0.02
_WAIT_SLICE = 0.05


# -- worker process ----------------------------------------------------------

def _worker_main(rank: int, conn, replica: Module, grad_mm, param_mm, hb_mm,
                 capacity: int, nworkers: int, faults: List[FaultAction]
                 ) -> None:
    """Worker loop: wait for commands, compute shard gradients, report.

    Runs in a forked child: ``replica`` is this process's private copy of
    the coordinator model at fork time; the three mmaps are shared pages.
    Each step runs BLAS at the width its command names (the simulation's
    ``per_worker_threads``), and its result reports the count.
    """
    hb = np.frombuffer(hb_mm, dtype=np.float64, count=nworkers)
    gview = np.frombuffer(grad_mm, dtype=np.float32, count=capacity)
    pview = np.frombuffer(param_mm, dtype=np.float32, count=capacity)
    pending_faults = list(faults)
    corrupt = False

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

    payload = GradPayload(replica)    # rebuilt on resync
    plans = PlanCache(replica, max_entries=4)

    def run_step(step_idx: int, attempt: int, xb, yb, width: int) -> None:
        # the parameter broadcast, in place (surgery keeps parameter objects)
        payload.unpack_params(pview)
        stats_log.clear()
        replica.train()
        replica.zero_grad()
        with limit_blas_threads(width):
            loss_val, logits, _ = train_step(replica, xb, yb, plans)
            threads = blas_threads()
        payload.pack_grads(gview)
        correct = int((logits.argmax(1) == yb).sum())
        beat()
        conn.send(("done", step_idx, attempt, loss_val, correct,
                   list(stats_log), threads))

    try:
        while True:
            while not conn.poll(_IDLE_POLL):
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
            # scripted faults fire on any step/resync command at/after
            # their step index
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
                loads_state(msg[2], replica)  # replays surgery: the replica's
                rebuild_bn_map()              # stale plans purge on lookup
                payload = GradPayload(replica)
                beat()
                conn.send(("resync_ack", step_idx))
            elif kind == "step":
                run_step(*msg[1:])
    except Exception:  # pragma: no cover - worker bugs surface as eviction
        traceback.print_exc(file=sys.stderr)
        os._exit(1)
    finally:
        _norm_ops.set_bn_stats_sink(None)
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
    """

    def __init__(self, model: Module, workers: int,
                 heartbeat_timeout: float = 30.0,
                 fault_plan: Optional[FaultPlan] = None):
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
        #: rank -> BLAS thread count the worker ran its last step at (None:
        #: its BLAS has no controllable backend)
        self.worker_blas_threads: Dict[int, Optional[int]] = {}
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
        self._capacity = max(1, self._payload.total)
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
                      self._hb_mm, self._capacity, self.workers, faults),
                daemon=True, name=f"elastic-worker-{rank}")
            proc.start()
            work_conn.close()   # child keeps its copy; EOF works both ways
            self._handles.append(_Handle(
                rank, proc, coord_conn, grad_mm,
                np.frombuffer(grad_mm, dtype=np.float32,
                              count=self._capacity)))
        self._started = True
        self._generation = self.model.plan_generation

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
        """Rebuild the payload layout and the BN name map (valid until the
        next reconfiguration)."""
        self._payload = GradPayload(self.model)
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
        # again (the attempt is voided), so release it now.  A view held
        # by the in-flight attempt defers the close harmlessly.
        self._close_grad_segment(h)

    def _await(self, ranks: List[int], match, phase: str
               ) -> Tuple[Dict[int, tuple], List[int], float]:
        """Collect one matching message per rank, with failure detection.

        Returns ``(results, failed_ranks, stall_seconds)``.  Failure checks
        run *before* each rank's pipe is drained, so a worker with a
        corrupted heartbeat is evicted deterministically even if its result
        raced in.  Non-matching messages (stale attempts) are dropped.
        Between sweeps the coordinator blocks in
        :func:`multiprocessing.connection.wait` rather than sleep-polling.
        ``stall`` is the wall time between the first completion and the end
        of the wait — idle coordinator/fast-worker time.
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
                    mp_connection.wait(conns, timeout=_WAIT_SLICE)
                except OSError:  # pragma: no cover - raced a close
                    pass
                COMM_STATS.wait_seconds += time.perf_counter() - t0
        stall = (time.monotonic() - t_first) if t_first is not None else 0.0
        return results, failed, stall

    # -- resync ------------------------------------------------------------
    def _resync(self) -> None:
        """Rebuild every replica from the coordinator's serialized state.

        Triggered by a move of the model's plan generation — the same
        signal that retires its compiled step plans, raised by the pruning
        surgery that a reconfiguration or a checkpoint restore runs on the
        model under the engine.
        """
        self._refresh_layout()
        if self._payload.total > self._capacity:  # pragma: no cover - shrink-only
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
        self._generation = self.model.plan_generation

    # -- the step ----------------------------------------------------------
    def step(self, x: np.ndarray, y: np.ndarray) -> ElasticStepResult:
        """One synchronous data-parallel step over the global batch.

        Leaves the averaged gradients in the coordinator parameters'
        ``.grad``, applies every shard's BN running-stat updates to the
        coordinator model (in shard order), and returns the aggregated
        step result.  Retries with the survivors if participants fail.
        Each participant, and the coordinator while it waits for them, runs
        BLAS at ``per_worker_threads`` of the participant count, as the
        simulation's shards do.
        """
        shard_bounds(len(x), self.workers)   # an empty batch fails unforked
        if not self._started:
            self.start()
        if self._generation != self.model.plan_generation:
            self._resync()
        failures_before = len(self.failures)
        stall_total = 0.0
        payload = self._payload
        payload.pack_params(self._param_view)   # valid for every retry

        attempt = 0
        while True:
            active = self.active_ranks
            if not active:
                raise RuntimeError("all elastic workers failed")
            bounds = shard_bounds(len(x), len(active))
            participants = active[:len(bounds) - 1]
            want = self._step_idx
            width = per_worker_threads(len(participants))
            for rank, lo, hi in zip(participants, bounds, bounds[1:]):
                self._handles[rank].conn.send(
                    ("step", want, attempt, x[lo:hi], y[lo:hi], width))
            with limit_blas_threads(width):
                results, failed, stall = self._await(
                    participants, lambda m: m[:3] == ("done", want, attempt),
                    "step")
            stall_total += stall
            if not failed:
                break
            # a failed participant voids the attempt: survivors re-execute
            # the whole step and fully overwrite their payloads, so the
            # result is exactly a clean smaller-K step
            attempt += 1

        views = [self._handles[rank].grad_view[:payload.total]
                 for rank in participants]
        comm_bytes = exchange(views)
        payload.unpack_grads(views[0])
        # replay per-shard BN running-stat updates in shard order
        for rank in participants:
            self.worker_blas_threads[rank] = results[rank][6]
            for name, mu, var in results[rank][5]:
                bn = self._bn[name]
                _norm_ops.update_running_stats(
                    bn.running_mean, bn.running_var, mu, var, bn.momentum)

        if PROFILER.enabled and stall_total:
            PROFILER.add("dist_stall", stall_total, 0)
        COMM_STATS.stall_seconds += stall_total
        self._step_idx += 1
        self.total_stall_seconds += stall_total
        self.total_comm_bytes += comm_bytes
        return ElasticStepResult.aggregate(
            [(results[rank][3], results[rank][4], size)
             for rank, size in zip(participants, np.diff(bounds))],
            comm_bytes, stall_seconds=stall_total,
            active_workers=len(self.active_ranks),
            failures=len(self.failures) - failures_before)

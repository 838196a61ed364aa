"""Level-scheduled parallel replay of compiled step plans.

The compiled training step (:mod:`repro.tensor.compile`) replays a flat
list of zero-argument thunks in serial capture order.  That order is one
valid topological sort of the tape's dataflow graph, but the graph itself
is wider than a chain: ResNet branch/residual paths are independent until
the join, and every convolution's weight-gradient GEMM is independent of
the ``dx`` chain the rest of the backward pass waits on.  NumPy/BLAS
kernels release the GIL, so independent thunks can genuinely overlap on
threads — no processes, no serialization of model state.

This module owns the machinery that is independent of the tape format:

``LevelSchedule``
    A dependency DAG over abstract node indices plus a longest-path level
    partition.  Nodes must be added in a topological order (the serial
    execution order is one, and is what :mod:`compile` uses), which makes
    level computation a single linear pass.  ``serialize_level`` chains a
    level's nodes to shrink its width — the arena growth guard uses it to
    trade parallelism for footprint instead of growing the arena.

``WorkerPool``
    A persistent pool of daemon threads executing one level at a time.
    Dispatch is condition-variable based (never spin-waiting: a Python
    spin loop holds the GIL for the 5 ms switch interval and starves the
    very kernels it waits on).  The calling thread participates in
    draining each level, so ``workers`` counts total executors.  Thunks
    raising propagate the first exception to the caller after the level
    barrier.

While the replay pool is active, each BLAS call must not fan out to its
own thread team (``pool_width x blas_width`` threads thrash): the replay
runs under :func:`repro.tensor.blas.limit_blas_threads` ``(1)``.

Determinism contract
--------------------
Parallel replay must be bit-identical to serial replay.  The schedule
builder pins every floating-point accumulation order with explicit edges
(multiple writers into one gradient slot or one leaf ``.grad`` are chained
in serial backward order), and the pool only ever reorders *independent*
thunks, so every kernel sees bit-identical operands in either mode.  The
worker that happens to run a thunk is irrelevant to its result.

Interaction with ``ElasticEngine``
----------------------------------
Elastic data-parallel workers are forked *processes* that replay compiled
plans with this pool off (the host's cores are already shared K ways).  The
pool's daemon threads are safe to leave running across a fork — no pool
lock is held between steps — and the child never inherits them.  Each
elastic step runs its workers at
:func:`repro.tensor.blas.per_worker_threads` BLAS threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..profiler import Counters, register


# ---------------------------------------------------------------------------
# Scheduling statistics (PROFILER.summary()["_parallel"])
# ---------------------------------------------------------------------------

@dataclass
class ParallelStats(Counters):
    """Aggregate accounting for parallel replay."""

    #: schedules built (one per parallel plan capture)
    schedules: int = 0
    #: parallel replays executed
    replays: int = 0
    #: levels executed across all replays
    levels_run: int = 0
    #: thunks executed across all replays
    thunks_run: int = 0
    #: widest level seen in any built schedule
    max_width: int = 0
    #: wall seconds spent inside parallel replay (sum over levels)
    replay_seconds: float = 0.0
    #: seconds the calling thread spent blocked on level barriers
    barrier_seconds: float = 0.0
    #: levels serialized by the arena growth guard
    levels_serialized: int = 0
    #: whether the BLAS limiter found a backend to pin (None = never tried)
    blas_limited: Optional[bool] = None
    #: per-level timing of the most recent replay: (width, seconds)
    last_levels: List[Tuple[int, float]] = field(default_factory=list)

    def derived(self) -> Dict[str, object]:
        pool = _POOL
        busy = list(pool.busy_seconds) if pool is not None else []
        return {"threads": (pool.width if pool is not None else 0),
                "thread_busy_seconds": busy,
                "last_levels": [{"width": w, "seconds": s}
                                for w, s in self.last_levels]}


STATS = register("_parallel", ParallelStats())


# ---------------------------------------------------------------------------
# Dependency levels
# ---------------------------------------------------------------------------

class LevelSchedule:
    """Longest-path level partition of a DAG given in topological order.

    Nodes are dense integer indices ``0..n-1``; :meth:`add_node` must be
    called in an order where every edge ``src -> dst`` has ``src < dst``
    (the serial execution order satisfies this by construction).  Levels
    group nodes whose dependencies are all in strictly earlier levels, so
    all nodes of one level may execute concurrently.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.deps: List[List[int]] = []
        self.level_of: List[int] = []
        self.levels: List[List[int]] = []
        self._edge_set: set = set()

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    def add_node(self, name: str) -> int:
        self.names.append(name)
        self.deps.append([])
        return len(self.names) - 1

    def add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        if src > dst:
            raise ValueError(
                f"edge {src}->{dst} violates topological node order")
        if (src, dst) not in self._edge_set:
            self._edge_set.add((src, dst))
            self.deps[dst].append(src)

    def compute_levels(self) -> List[List[int]]:
        """(Re)compute the level partition; safe to call repeatedly."""
        level_of = [0] * self.n_nodes
        for i in range(self.n_nodes):
            deps = self.deps[i]
            if deps:
                level_of[i] = 1 + max(level_of[d] for d in deps)
        n_levels = (max(level_of) + 1) if level_of else 0
        levels: List[List[int]] = [[] for _ in range(n_levels)]
        for i, lv in enumerate(level_of):
            levels[lv].append(i)
        self.level_of = level_of
        self.levels = levels
        return levels

    def widest_level(self) -> int:
        """Index of the widest level (-1 if all levels have width <= 1)."""
        best, width = -1, 1
        for li, nodes in enumerate(self.levels):
            if len(nodes) > width:
                best, width = li, len(nodes)
        return best

    def serialize_level(self, level: int) -> None:
        """Chain the nodes of ``level`` (serial order) and relevel.

        Used by the arena growth guard: co-scheduled thunks may never
        share arena bytes, so a pathologically wide level can inflate the
        arena — chaining its nodes restores the serial footprint for that
        stretch at the cost of its parallelism.
        """
        nodes = self.levels[level]
        for a, b in zip(nodes, nodes[1:]):
            self.add_edge(a, b)
        self.compute_levels()

    def validate(self) -> None:
        """Assert every edge crosses strictly increasing levels."""
        for dst, deps in enumerate(self.deps):
            for src in deps:
                if not self.level_of[src] < self.level_of[dst]:
                    raise AssertionError(
                        f"edge {self.names[src]}->{self.names[dst]} "
                        f"does not cross levels")


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """Persistent thread pool executing one level (task list) at a time.

    ``width`` counts total executors: the caller participates in draining,
    so ``width - 1`` daemon threads are spawned.  ``run_level`` blocks
    until every task of the level completed (the barrier), then re-raises
    the first exception any task produced.  A single pool is process-wide
    (see :func:`get_pool`); concurrent callers are serialized by
    ``caller_lock`` — plans replay one step at a time anyway.
    """

    def __init__(self, width: int):
        self.width = max(2, int(width))
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._done = threading.Condition(self._lock)
        self._tasks: Optional[Sequence[Callable[[], None]]] = None
        self._next = 0
        self._pending = 0
        self._gen = 0
        self._shutdown = False
        self._error: Optional[BaseException] = None
        #: wall seconds each executor spent running thunks (slot 0 = caller)
        self.busy_seconds = [0.0] * self.width
        self.caller_lock = threading.Lock()
        self._threads = []
        for slot in range(1, self.width):
            t = threading.Thread(target=self._worker, args=(slot,),
                                 name=f"replay-worker-{slot}", daemon=True)
            t.start()
            self._threads.append(t)

    # -- execution ---------------------------------------------------------
    def run_level(self, tasks: Sequence[Callable[[], None]]) -> None:
        if not tasks:
            return
        if len(tasks) == 1:
            # width-1 levels run inline: no dispatch, no barrier
            t0 = perf_counter()
            tasks[0]()
            self.busy_seconds[0] += perf_counter() - t0
            return
        with self._lock:
            self._tasks = tasks
            self._next = 0
            self._pending = len(tasks)
            self._gen += 1
            self._work.notify(len(tasks) - 1)
        self._drain(0)
        t0 = perf_counter()
        with self._lock:
            while self._pending:
                self._done.wait()
            self._tasks = None
            err, self._error = self._error, None
        STATS.barrier_seconds += perf_counter() - t0
        if err is not None:
            raise err

    def _drain(self, slot: int) -> None:
        while True:
            with self._lock:
                tasks = self._tasks
                if tasks is None or self._next >= len(tasks):
                    return
                i = self._next
                self._next += 1
            t0 = perf_counter()
            try:
                tasks[i]()
            except BaseException as exc:  # noqa: BLE001 - must reach caller
                with self._lock:
                    if self._error is None:
                        self._error = exc
            finally:
                self.busy_seconds[slot] += perf_counter() - t0
                with self._lock:
                    self._pending -= 1
                    if self._pending == 0:
                        self._done.notify_all()

    def _worker(self, slot: int) -> None:
        seen = 0
        while True:
            with self._lock:
                while self._gen == seen and not self._shutdown:
                    self._work.wait()
                if self._shutdown:
                    return
                seen = self._gen
            self._drain(slot)

    def close(self) -> None:
        with self._lock:
            self._shutdown = True
            self._work.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)


_POOL: Optional[WorkerPool] = None
_POOL_LOCK = threading.Lock()


def get_pool(width: int) -> WorkerPool:
    """Process-wide replay pool with at least ``width`` executors.

    The pool only ever grows (plans captured at different worker counts
    may coexist); shrinking would strand threads mid-level.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.width < width:
            old, _POOL = _POOL, WorkerPool(width)
            if old is not None:
                old.close()
        return _POOL


def close_pool() -> None:
    """Tear down the process-wide pool (tests)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.close()
            _POOL = None

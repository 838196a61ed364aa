"""Process-wide workspace buffer pool and engine configuration.

PruneTrain's training loop is shape-stationary *between* reconfigurations:
every iteration runs the same convolutions at the same shapes, so the im2col
padded-input staging, col2im scatter scratch, and gradient buffers requested
on iteration ``i`` are requested again — identically — on iteration ``i+1``.
The :class:`WorkspacePool` exploits this by recycling buffers keyed by
``(shape, dtype)`` instead of allocating fresh arrays in every kernel call,
which converts the engine's hot path from allocator-bound to compute-bound.

At a *reconfiguration* the stationarity assumption breaks on purpose: channel
surgery (``repro.prune.reconfigure``) changes every activation shape in the
model, which is exactly the paper's "dense reconfiguration" moment (Sec. 4.2).
The surgery therefore calls :func:`invalidate` so the pool drops all cached
buffers; the next iteration re-populates it at the new (smaller) shapes.

Ownership contract
------------------
``acquire`` hands out a buffer and records it as *lent*; ``release`` returns
it to the free list.  Kernels that produce results consumed synchronously
(gradients fed straight into ``Tensor._accumulate``) release their buffers in
the autograd closure right after the accumulate; buffers that must survive
from forward to backward (the padded conv input) are released by the backward
closure itself.  ``release`` is a no-op for arrays the pool does not own, so
callers never need to track provenance.  Under ``no_grad`` the functional
layer releases forward staging immediately.

The module also hosts the :class:`EngineConfig` switchboard: the
process-wide ``config`` every kernel and the plan builder read is the *one*
place an engine switch is set — parsed from ``REPRO_*`` once at import, then
pinned for a block with :func:`engine` (``baseline_engine()`` is its
all-off preset, the seed engine's exact execution path, which is how
``benchmarks/perf`` measures honest before/after numbers in one process).
Every field is something a compiled plan is specialised on, so
``plan_signature()`` is the fields themselves.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Tuple

import numpy as np

from ..profiler import Counters, register


def _env_flag(name: str, default: bool) -> bool:
    val = os.environ.get(name)
    if val is None:
        return default
    return val.strip().lower() not in ("0", "false", "no", "off")


@dataclass
class EngineConfig:
    """Feature switches for the optimized engine.

    ``pooling``, ``fused_bnrelu`` and ``mem_plan`` default on and
    ``conv_impl`` to ``"einsum"``; ``parallel_replay`` and
    ``sparse_compute`` default off.  ``baseline_engine()`` (or
    ``REPRO_WORKSPACE=0 REPRO_FUSED=0 REPRO_CONV_IMPL=im2col`` before
    import) runs the seed-equivalent path.
    """

    #: serve kernel scratch from the workspace pool instead of fresh allocs
    pooling: bool = True
    #: fuse BatchNorm->ReLU into one kernel at BN call sites that allow it
    fused_bnrelu: bool = True
    #: convolution lowering: "einsum" (the three-form gather-once kernel set
    #: ``ops.conv.ConvKernels``, which eager steps drive per call and
    #: compiled plans bind once) or "im2col" (seed column-matrix + GEMM;
    #: eager only — capture fails closed under it)
    conv_impl: str = "einsum"
    #: static memory planning for compiled step plans
    #: (:mod:`repro.tensor.memplan`): assign all plan-owned transient
    #: buffers into one liveness-shared arena instead of private arrays.
    #: Bit-exact either way; off recovers the PR-3 per-buffer layout.
    mem_plan: bool = True
    #: replay compiled *training* plans on a level-scheduled worker thread
    #: pool (:mod:`repro.tensor.parallel`) instead of the serial thunk loop.
    #: Bit-exact vs serial replay by construction (pinned accumulation
    #: order); off keeps the PR-3/PR-5 single-threaded replay.
    parallel_replay: bool = False
    #: total executor threads for parallel replay (the calling thread
    #: counts as one; ``replay_workers - 1`` daemon workers are spawned).
    #: Values < 2 disable parallel scheduling even if ``parallel_replay``.
    replay_workers: int = 4
    #: sparsity-aware compute paths (:mod:`repro.tensor.sparse`): skip
    #: published dead channels in the conv GEMM lowering and run
    #: live-row-compacted backward GEMMs, gated per shape by the
    #: cost-model calibration (parity probe + measured gain).  Dense stays
    #: the default and the bit-exact reference; sparse engages only for
    #: shapes the gate accepts.
    sparse_compute: bool = False
    #: minimum measured dense/sparse step-time ratio the gate demands
    #: before selecting a sparse path for a shape (1.05 = 5% faster)
    sparse_min_gain: float = 1.05

    def __post_init__(self) -> None:
        if self.conv_impl not in ("einsum", "im2col"):
            raise ValueError(
                f"conv_impl must be \"einsum\" or \"im2col\", not "
                f"{self.conv_impl!r} (REPRO_CONV_IMPL sets it at import)")

    def plan_signature(self) -> tuple:
        """The switches compiled plans are specialised on: a
        :class:`~repro.tensor.compile.StepPlan` records this at capture and
        replays only while it still matches."""
        return tuple(getattr(self, f.name) for f in fields(self))


config = EngineConfig(
    pooling=_env_flag("REPRO_WORKSPACE", True),
    fused_bnrelu=_env_flag("REPRO_FUSED", True),
    conv_impl=os.environ.get("REPRO_CONV_IMPL", "einsum"),
    mem_plan=_env_flag("REPRO_MEM_PLAN", True),
    parallel_replay=_env_flag("REPRO_PARALLEL_REPLAY", False),
    sparse_compute=_env_flag("REPRO_SPARSE_COMPUTE", False),
    sparse_min_gain=float(os.environ.get("REPRO_SPARSE_MIN_GAIN", "1.05")),
)


@contextmanager
def engine(**switches):
    """Run a block with the named :class:`EngineConfig` fields pinned on the
    process-wide ``config``; the previous values come back on exit, normal
    or not.  An unknown name is a ``TypeError`` and a bad value the
    ``ValueError`` of ``EngineConfig`` itself, both before anything is set.
    Live plans notice the change through ``plan_signature()``."""
    replace(config, **switches)
    saved = {name: getattr(config, name) for name in switches}
    try:
        for name, value in switches.items():
            setattr(config, name, value)
        yield config
    finally:
        for name, value in saved.items():
            setattr(config, name, value)


def baseline_engine():
    """Temporarily run with every optimization off (the seed engine path)."""
    return engine(pooling=False, fused_bnrelu=False, conv_impl="im2col",
                  mem_plan=False, parallel_replay=False, sparse_compute=False)


@dataclass
class PoolStats(Counters):
    """Allocation accounting (``PROFILER.summary()["_workspace"]``)."""

    hits: int = 0
    misses: int = 0
    bytes_reused: int = 0
    bytes_allocated: int = 0
    invalidations: int = 0
    #: buffers silently dropped because a key's free list was already at
    #: ``max_per_key`` — nonzero means the pool is undersized for the
    #: workload (or a shape churns faster than it is reused)
    evictions: int = 0
    bytes_evicted: int = 0


class WorkspacePool:
    """Shape/dtype-keyed free-list buffer pool.

    The pool belongs to the eager engine: its kernels' per-call scratch and
    gradients, :class:`PooledAlloc` for the eager conv and the sparse gate's
    probe.  Compiled replay never calls it — a plan owns its buffers.  It
    stays thread-safe because eager work still runs on more than one
    thread: the inference server's dispatch thread runs eager forwards
    (fallback rows, captures) while the caller's thread trains, evaluates or
    serves.  A single mutex guards the free lists, the lent map, and the
    stats counters; the critical sections are dict/list operations only
    (allocation and zero-fill happen outside the lock where possible).
    """

    def __init__(self, max_per_key: int = 8):
        self.max_per_key = max_per_key
        self._free: Dict[Tuple[tuple, object], List[np.ndarray]] = {}
        self._lent: Dict[int, np.ndarray] = {}
        self._lock = threading.Lock()
        self.stats = PoolStats()

    # -- core API ----------------------------------------------------------
    def acquire(self, shape: tuple, dtype=np.float32,
                zero: bool = False) -> np.ndarray:
        """Get a buffer of ``shape``/``dtype`` (contents arbitrary unless
        ``zero``).  With pooling disabled this is a plain allocation."""
        dtype = np.dtype(dtype)
        if not config.pooling:
            return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
        key = (tuple(shape), dtype)
        with self._lock:
            free = self._free.get(key)
            buf = free.pop() if free else None
            if buf is not None:
                self.stats.hits += 1
                self.stats.bytes_reused += buf.nbytes
                self._lent[id(buf)] = buf
        if buf is not None:
            if zero:
                buf.fill(0)
            return buf
        buf = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
        with self._lock:
            self.stats.misses += 1
            self.stats.bytes_allocated += buf.nbytes
            self._lent[id(buf)] = buf
        return buf

    def release(self, arr: np.ndarray) -> None:
        """Return a buffer (or a view into one) to the pool.

        No-op for arrays the pool never lent — callers may release
        unconditionally.
        """
        if arr is None or not config.pooling:
            return
        base = arr if arr.base is None else arr.base
        with self._lock:
            buf = self._lent.pop(id(base), None)
            if buf is None:
                return
            key = (buf.shape, buf.dtype)
            free = self._free.setdefault(key, [])
            if len(free) < self.max_per_key:
                free.append(buf)
            else:
                self.stats.evictions += 1
                self.stats.bytes_evicted += buf.nbytes

    def clear(self) -> None:
        """Drop every cached and lent buffer (pruning reconfiguration)."""
        with self._lock:
            self._free.clear()
            self._lent.clear()
            self.stats.invalidations += 1

    def owns(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` (or its base) is currently lent out by this pool."""
        if arr is None:
            return False
        base = arr if arr.base is None else arr.base
        return id(base) in self._lent

    # -- introspection -----------------------------------------------------
    @property
    def lent_count(self) -> int:
        return len(self._lent)

    @property
    def cached_bytes(self) -> int:
        return sum(b.nbytes for bufs in self._free.values() for b in bufs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkspacePool(keys={len(self._free)}, "
                f"cached={self.cached_bytes / 1e6:.1f}MB, "
                f"lent={self.lent_count}, hits={self.stats.hits}, "
                f"misses={self.stats.misses})")


#: The process-wide pool every kernel draws from.
POOL = WorkspacePool()
register("_workspace", POOL.stats)

#: Monotonic counter bumped whenever the shape-stationarity assumption is
#: broken (pruning reconfiguration, checkpoint restore).  Compiled step
#: plans (:mod:`repro.tensor.compile`) record the value at capture time and
#: refuse to replay once it moves — the same moments that empty the buffer
#: pool also invalidate every captured kernel schedule.
PLAN_GENERATION = 0

#: Guards PLAN_GENERATION bumps.  Replay worker threads never bump the
#: generation themselves, but plan-cache maintenance may race a bump from
#: the driver (e.g. a test thread invalidating while another looks up), so
#: the read-modify-write must be atomic.  Plain reads of the counter are a
#: single bytecode and need no lock.
_generation_lock = threading.Lock()


def plan_generation() -> int:
    """Atomic read of the current plan generation."""
    return PLAN_GENERATION


def invalidate_plans() -> None:
    """Invalidate every captured step plan without touching the pool.

    Called on its own for state mutations that keep activation shapes but
    swap the underlying arrays (``Module.load_state_dict`` reassigns
    ``param.data``, so array references captured by a plan go stale), and
    as part of :func:`invalidate` for full reconfigurations.  Plan-owned
    arenas (:mod:`repro.tensor.memplan`) die with their plans.
    """
    global PLAN_GENERATION
    with _generation_lock:
        PLAN_GENERATION += 1


def acquire(shape: tuple, dtype=np.float32, zero: bool = False) -> np.ndarray:
    """Module-level alias for ``POOL.acquire``."""
    return POOL.acquire(shape, dtype, zero)


def release(arr) -> None:
    """Module-level alias for ``POOL.release`` (safe on foreign arrays)."""
    POOL.release(arr)


class PooledAlloc:
    """``alloc(shape, tag, phase)`` over the workspace pool, for drivers that
    hold a kernel set for one call (eager) or one probe (the sparse gate):
    ``"out"`` is a fresh array its consumer owns, every other phase is lent
    by the pool and remembered under its phase until :meth:`release` names
    that phase — or names none, which returns everything (eager never names
    ``"dx"``: the gradient is donated and its consumer releases it)."""

    def __init__(self, dtype) -> None:
        self.dtype = dtype
        self.lent: dict = {}

    def __call__(self, shape: tuple, tag: str = "", phase: str = ""
                 ) -> np.ndarray:
        if phase == "out":
            return np.empty(shape, self.dtype)
        buf = acquire(shape, self.dtype)
        self.lent.setdefault(phase, []).append(buf)
        return buf

    def release(self, *phases: str) -> None:
        for phase in phases or tuple(self.lent):
            for buf in self.lent.pop(phase, ()):
                release(buf)


def invalidate() -> None:
    """Drop all pooled buffers; called on pruning reconfiguration, when the
    model's activation shapes change wholesale.  Also invalidates every
    captured step plan (same stationarity assumption, same breaking point)."""
    POOL.clear()
    invalidate_plans()

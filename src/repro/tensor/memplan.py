"""Static memory planning for compiled step plans (liveness + arena).

PruneTrain's speedup story is a *memory* story as much as a FLOP story: the
paper grows the mini-batch to refill the device capacity that pruning frees
(Sec. 4.3, Fig. 9), so the peak training footprint is a first-class
performance quantity.  The compiled :class:`~repro.tensor.compile.StepPlan`
gives us the exact dataflow of one training step — every buffer, every
def/use — which makes the footprint *plannable* instead of merely observed.

This module provides the planner.  The plan builder's *stage* pass
describes each plan-owned buffer as a :class:`Slab` with a **liveness
interval** on the step's execution timeline (forward thunks ``0..F-1``, then
backward thunks ``F..F+B-1``): first definition to last use, honoring
gradient donation (a donated buffer lives until the producing op's backward
consumes it).  Its *pack* pass is :meth:`MemPlanner.solve`, which assigns
every slab an offset in a single pre-allocated byte arena by greedy
best-fit — slabs whose intervals do not overlap share memory, and
shape-preserving ops (ReLU, the residual add+ReLU join) may *alias* their
output directly onto their input's slab — and :meth:`MemPlanner.materialize`,
which carves the arena into ndarray views.  Its *bind* pass hands those to
the kernels; replay thunks use them exactly like the fresh arrays the eager
step allocates, so results stay bit-identical while the plan's resident
footprint drops from *sum-of-all-buffers* to the liveness peak (plus
fragmentation).  Every compiled plan is laid out this way: a
:class:`PlanError` fails the capture closed (reason ``"memory plan:
<msg>"``) and the step runs eagerly.

The planner's report (``arena_bytes``, ``peak_bytes``, ``savings``) fills
the memory fields of the trainer's ``EpochRecord`` and ``PROFILER.summary()
["_memplan"]``; it is a report only: dynamic mini-batch growth is sized by
the analytical Sec. 4.3 model.

Lifecycle: arenas are owned by their plan.  A plan retires when its
model is reconfigured (``Module.invalidate_plans``) or a leaf it bound
holds a new array, and the ``PlanCache`` that drops it releases its arena
at once; the weakref registry here lets :func:`live_arena_bytes` report
how many arena bytes are currently resident without keeping any arena
alive.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..profiler import Counters, register

__all__ = ["Slab", "MemPlanner", "MemPlanStats", "STATS",
           "live_arena_bytes", "live_arena_count"]

#: Offset alignment for every slab (bytes).  64 keeps any float64 view
#: aligned and matches a cache line.
ALIGN = 64


class PlanError(Exception):
    """Raised when a buffer request cannot be planned or served."""


def _align(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def _savings(arena: int, naive: int) -> float:
    return 1.0 - arena / naive if naive else 0.0


@dataclass
class Slab:
    """One plan-owned buffer request with its liveness interval.

    ``start``/``end`` are inclusive positions on the step timeline.
    """

    shape: tuple
    dtype: np.dtype
    start: int
    end: int
    tag: str = ""
    #: root slab this one aliases (shares memory with), or None
    alias_of: Optional["Slab"] = None
    offset: int = -1
    arr: Optional[np.ndarray] = None
    #: byte size, computed once (the shape never changes)
    nbytes: int = field(init=False)

    def __post_init__(self):
        self.nbytes = int(math.prod(self.shape)) * self.dtype.itemsize

    def root(self) -> "Slab":
        s = self
        while s.alias_of is not None:
            s = s.alias_of
        return s


@dataclass
class MemPlanStats(Counters):
    """Process-wide planning accounting (``PROFILER.summary()
    ["_memplan"]``)."""

    plans: int = 0
    solve_seconds: float = 0.0
    #: last-solved plan's numbers
    arena_bytes: int = 0
    naive_bytes: int = 0
    peak_bytes: int = 0
    alias_buffers: int = 0

    def derived(self) -> Dict[str, object]:
        return {"live_arenas": live_arena_count(),
                "live_arena_bytes": live_arena_bytes()}


STATS = register("_memplan", MemPlanStats())


class _ArenaHandle:
    """Weakref-able owner of one arena allocation (plain ndarrays cannot
    be weakly referenced)."""

    __slots__ = ("buf", "__weakref__")

    def __init__(self, buf: np.ndarray):
        self.buf = buf


_LIVE_ARENAS: List["weakref.ref[_ArenaHandle]"] = []


def _live_handles() -> List[_ArenaHandle]:
    alive = []
    dead = False
    for ref in _LIVE_ARENAS:
        h = ref()
        if h is None:
            dead = True
        else:
            alive.append(h)
    if dead:
        _LIVE_ARENAS[:] = [weakref.ref(h) for h in alive]
    return alive


def live_arena_bytes() -> int:
    """Total bytes of all arenas still referenced by a live plan."""
    return sum(h.buf.nbytes for h in _live_handles())


def live_arena_count() -> int:
    return len(_live_handles())


class MemPlanner:
    """Liveness-driven arena allocator for one step plan.

    Life of a planner (driven by the plan builder's three passes)::

        mem = MemPlanner()
        # stage — every row's build-time stage runs in *plan* mode: each
        # alloc() records a Slab and returns a throwaway array of the
        # right shape; no thunk is built
        ... builder.stage() ...
        # pack
        mem.solve()          # greedy best-fit offset assignment
        mem.materialize()    # one arena; slabs become views into it
        # bind — the stages run again in *serve* mode: alloc() replays the
        # recorded request sequence and hands out the arena views, which
        # the plan's thunks close over
        ... builder.bind() ...
        mem.finish()         # asserts bind took every request; books STATS

    The two runs of the stages must make identical requests (each stage is
    a pure function of the captured tape); any divergence raises
    :class:`PlanError` and the capture fails closed: the step runs eagerly.
    """

    def __init__(self):
        self.slabs: List[Slab] = []
        self._by_slot: Dict[int, Slab] = {}
        self.serving = False
        self._cursor = 0
        self.arena: Optional[np.ndarray] = None
        self._handle: Optional[_ArenaHandle] = None
        self.released = False
        self.arena_bytes = 0
        self.peak_bytes = 0
        self.alias_buffers = 0
        self.solve_seconds = 0.0
        #: the footprint report, frozen by :meth:`materialize`
        self._metrics: Optional[Dict[str, float]] = None

    # -- request / serve ---------------------------------------------------
    def alloc(self, shape: tuple, dtype, start: int, end: int, *,
              tag: str = "",
              out_slot: Optional[int] = None,
              alias_slot: Optional[int] = None) -> np.ndarray:
        """Request (stage) or fetch (bind) one plan-owned buffer.

        ``out_slot`` registers the buffer as the value of a plan slot so a
        later shape-preserving consumer can alias onto it via
        ``alias_slot``.  Aliasing is honored only when the target slab
        exists with identical shape/dtype.
        """
        dtype = np.dtype(dtype)
        if self.serving:
            if self._cursor >= len(self.slabs):
                raise PlanError("serve pass requested more buffers than "
                                "the planning pass recorded")
            slab = self.slabs[self._cursor]
            self._cursor += 1
            if slab.shape != tuple(shape) or slab.dtype != dtype:
                raise PlanError(
                    f"serve pass diverged from planning pass: "
                    f"{slab.shape}/{slab.dtype} vs {tuple(shape)}/{dtype}")
            return slab.arr
        slab = Slab(tuple(shape), dtype, start, end, tag=tag)
        if alias_slot is not None:
            target = self._by_slot.get(alias_slot)
            if (target is not None and target.shape == slab.shape
                    and target.dtype == slab.dtype):
                slab.alias_of = target.root()
        self.slabs.append(slab)
        if out_slot is not None:
            self._by_slot[out_slot] = slab
        # Throwaway array for the (discarded) staged buffers: a stage only
        # needs the right shape/dtype to precompute its views.
        return np.empty(shape, dtype)

    # -- layout ------------------------------------------------------------
    def solve(self) -> int:
        """Assign arena offsets (greedy best-fit); returns arena bytes.

        Aliased slabs collapse onto their root, which inherits the union
        of the group's intervals.  Roots are placed largest-first; each
        goes into the tightest gap among already-placed slabs whose
        intervals overlap its own (best fit), or extends the arena.

        Sizes are read from ``Slab.nbytes``, computed once per request, and
        placed slabs are kept as plain ``(offset, aligned end, start, end)``
        tuples: the best-fit walk is quadratic in the slab count.
        """
        t0 = time.perf_counter()
        self.alias_buffers = 0
        roots: List[Slab] = []
        for s in self.slabs:
            if s.alias_of is not None:
                r = s.root()
                r.start = min(r.start, s.start)
                r.end = max(r.end, s.end)
                self.alias_buffers += 1
            else:
                roots.append(s)
        order = sorted(roots, key=lambda s: (-s.nbytes, s.start))
        placed: List[Tuple[int, int, int, int]] = []
        arena_end = 0
        for s in order:
            if s.nbytes == 0:
                s.offset = 0
                continue
            need = _align(s.nbytes)
            start, end = s.start, s.end
            best = None      # (gap_slack, offset)
            cursor = 0
            for off, top, _, _ in sorted(p for p in placed
                                         if p[2] <= end and start <= p[3]):
                if off > cursor:
                    gap = off - cursor
                    if gap >= need and (best is None or gap - need < best[0]):
                        best = (gap - need, cursor)
                cursor = max(cursor, top)
            s.offset = best[1] if best is not None else cursor
            placed.append((s.offset, s.offset + need, start, end))
            arena_end = max(arena_end, s.offset + need)
        self.arena_bytes = arena_end
        self.peak_bytes = self._liveness_peak(roots)
        self.solve_seconds += time.perf_counter() - t0
        return arena_end

    def _liveness_peak(self, roots: List[Slab]) -> int:
        """Max over time of simultaneously-live bytes (fragmentation-free
        lower bound on any arena layout)."""
        events: Dict[int, int] = {}
        for s in roots:
            if s.nbytes == 0:
                continue
            events[s.start] = events.get(s.start, 0) + s.nbytes
            events[s.end + 1] = events.get(s.end + 1, 0) - s.nbytes
        peak = cur = 0
        for t in sorted(events):
            cur += events[t]
            peak = max(peak, cur)
        return peak

    @property
    def naive_bytes(self) -> int:
        """One private array per buffer, as eager allocates: every slab."""
        return sum(s.nbytes for s in self.slabs)

    def materialize(self) -> None:
        """Allocate the arena and turn every slab into a view into it."""
        if self.arena is not None:
            raise PlanError("arena already materialized")
        # np.empty aligns to 16 bytes only: over-allocate and start the
        # arena at the first ALIGN-aligned byte, so every slab is aligned.
        size = max(self.arena_bytes, 1)
        raw = np.empty(size + ALIGN, dtype=np.uint8)
        skip = -raw.ctypes.data % ALIGN
        self.arena = raw[skip:skip + size]
        self._handle = _ArenaHandle(self.arena)
        _LIVE_ARENAS.append(weakref.ref(self._handle))
        for s in self.slabs:
            root = s.root()
            if s.nbytes == 0:
                s.arr = np.empty(s.shape, s.dtype)
                continue
            view = self.arena[root.offset:root.offset + s.nbytes]
            s.arr = view.view(s.dtype).reshape(s.shape)
        self.serving = True
        self._cursor = 0
        # The layout is final, so the report is computed once here:
        # naive_bytes walks every slab, too much for a per-step query.
        naive = self.naive_bytes
        self._metrics = {
            "arena_bytes": float(self.arena_bytes),
            "naive_bytes": float(naive),
            "peak_bytes": float(self.peak_bytes),
            "alias_buffers": float(self.alias_buffers),
            "savings": _savings(self.arena_bytes, naive)}

    def finish(self) -> None:
        """Assert the serve pass consumed exactly the recorded requests,
        then book the plan in :data:`STATS` — only a plan that is kept
        counts, never one whose capture fails closed."""
        if self.serving and self._cursor != len(self.slabs):
            raise PlanError(
                f"serve pass consumed {self._cursor} of "
                f"{len(self.slabs)} planned buffers")
        STATS.plans += 1
        STATS.solve_seconds += self.solve_seconds
        STATS.arena_bytes = self.arena_bytes
        STATS.naive_bytes = self.naive_bytes
        STATS.peak_bytes = self.peak_bytes
        STATS.alias_buffers = self.alias_buffers

    def release(self) -> None:
        """Drop the arena, its handle, and every slab view.

        Deterministic eviction support for the serving tier: releasing the
        handle removes this arena from the ``weakref`` live registry on the
        spot (no GC dependence — the handle has no reference cycles), and
        dropping the slab views lets the arena bytes go as soon as the
        plan's thunks (which close over those views) are cleared.  The
        planner is unusable afterwards; callers discard the plan with it.
        """
        for s in self.slabs:
            s.arr = None
        self._by_slot.clear()
        self.arena = None
        self._handle = None
        self.released = True

    # -- reporting ---------------------------------------------------------
    @property
    def savings(self) -> float:
        """Fraction of the naive resident footprint the arena eliminates."""
        return _savings(self.arena_bytes, self.naive_bytes)

    def metrics(self) -> Dict[str, float]:
        """The materialized plan's footprint report (a fresh dict)."""
        if self._metrics is None:
            raise PlanError("metrics() requires a materialized plan")
        return dict(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemPlanner(slabs={len(self.slabs)}, "
                f"arena={self.arena_bytes / 1e6:.2f}MB, "
                f"naive={self.naive_bytes / 1e6:.2f}MB, "
                f"aliased={self.alias_buffers})")

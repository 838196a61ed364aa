"""The plan generation, and the inert names the frozen benchmark still reads.

:data:`PLAN_GENERATION` is what keeps a compiled plan valid: PruneTrain's
training loop is shape-stationary *between* reconfigurations, so a captured
plan replays until channel surgery (``repro.prune.reconfigure``) changes
every activation shape — the paper's "dense reconfiguration" moment
(Sec. 4.2) — or a checkpoint restore swaps the weight arrays; both call
:func:`invalidate`.

The engine has no switches.  Every conv runs
:class:`repro.tensor.ops.conv.ConvKernels` and every batch-norm the
affine-folded kernels of :mod:`repro.tensor.ops.norm`; every compiled plan
lays its buffers out in one liveness-planned arena
(:mod:`repro.tensor.memplan`).  The independent reference the kernels are
checked against is the float64 oracle under ``tests/``, not a second
runtime path.

Eager kernels allocate fresh arrays, as NumPy does: a shape-keyed buffer
cache would hold memory at shapes a reconfiguration has just retired, and
that memory is what dynamic mini-batch growth (Sec. 4.3) spends.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from types import SimpleNamespace

#: Kept for ``benchmarks/e2e`` until ROADMAP 1(a): its ladder pins these on
#: ``config`` around its rungs.  Plain attributes that nothing in ``src/``
#: reads, so writing them changes no plan and no bit.
config = SimpleNamespace(mem_plan=True, parallel_replay=False,
                         sparse_compute=False)


def baseline_engine():
    """A no-op context manager, kept until ROADMAP 1(a) for
    ``benchmarks/e2e``, whose ladder times its ``seed`` rung under it."""
    return nullcontext()


#: Kept for ``benchmarks/e2e``, which reads these counters of the deleted
#: buffer pool, until ROADMAP item 1 removes the reads: all zero, never
#: updated, and not part of ``PROFILER.summary()``.
POOL = SimpleNamespace(stats=SimpleNamespace(
    hits=0, misses=0, bytes_allocated=0, invalidations=0, evictions=0))


def release(arr) -> None:
    """No-op kept for ``benchmarks/e2e``, which calls it on a conv's ``dx``,
    until ROADMAP item 1 removes the call.  Nothing in ``src/`` calls it."""


#: Monotonic counter bumped whenever the shape-stationarity assumption is
#: broken (pruning reconfiguration, checkpoint restore, swapped weight
#: arrays).  Compiled step plans (:mod:`repro.tensor.compile`) record the
#: value at capture time and refuse to replay once it moves.
PLAN_GENERATION = 0

#: Guards PLAN_GENERATION bumps.  The serving tier's dispatch thread looks
#: plans up while another thread may invalidate (a model load, a test
#: thread), so the read-modify-write must be atomic.  Plain reads of the
#: counter are a single bytecode and need no lock.
_generation_lock = threading.Lock()


def plan_generation() -> int:
    """Atomic read of the current plan generation."""
    return PLAN_GENERATION


def invalidate() -> None:
    """Invalidate every captured step plan.

    Called on pruning reconfiguration, when the model's activation shapes
    change wholesale, and on state mutations that keep the shapes but swap
    the underlying arrays (``Module.load_state_dict`` reassigns
    ``param.data``, so array references captured by a plan go stale).
    Plan-owned arenas (:mod:`repro.tensor.memplan`) die with their plans.
    """
    global PLAN_GENERATION
    with _generation_lock:
        PLAN_GENERATION += 1

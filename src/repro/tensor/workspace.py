"""Inert names the frozen benchmark still reads, and where plan validity
lives instead.

A compiled plan's validity is scoped to its model: each
:class:`~repro.nn.module.Module` carries its own ``plan_generation``, which
:meth:`~repro.nn.module.Module.invalidate_plans` bumps (channel surgery,
the batch-norm fold), and each plan checks that every leaf it bound still
holds the same array (see :mod:`repro.tensor.compile`).  Nothing here is
process-wide.

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


def invalidate() -> None:
    """No-op kept for ``benchmarks/e2e``, which calls it after its ladder,
    until ROADMAP item 1 removes the call.  Plans retire per model
    (``Module.invalidate_plans``); nothing in ``src/`` calls this."""

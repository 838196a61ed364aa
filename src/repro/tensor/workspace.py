"""Engine configuration and the plan generation.

The :class:`EngineConfig` switchboard: the process-wide ``config`` the plan
builder reads is the *one* place an engine switch is set — parsed from
``REPRO_MEM_PLAN`` once at import, then pinned for a block with
:func:`engine`.  Every field is something a compiled plan is specialised
on, so ``plan_signature()`` is the fields themselves.  There is one engine:
every conv runs :class:`repro.tensor.ops.conv.ConvKernels` and every
batch-norm the affine-folded kernels of :mod:`repro.tensor.ops.norm`; the
independent reference they are checked against is the float64 oracle under
``tests/``, not a second runtime path.

:data:`PLAN_GENERATION` is the other half of a plan's validity: PruneTrain's
training loop is shape-stationary *between* reconfigurations, so a captured
plan replays until channel surgery (``repro.prune.reconfigure``) changes
every activation shape — the paper's "dense reconfiguration" moment
(Sec. 4.2) — or a checkpoint restore swaps the weight arrays; both call
:func:`invalidate`.

Eager kernels allocate fresh arrays, as NumPy does: a shape-keyed buffer
cache would hold memory at shapes a reconfiguration has just retired, and
that memory is what dynamic mini-batch growth (Sec. 4.3) spends.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace


def _env_flag(name: str, default: bool) -> bool:
    val = os.environ.get(name)
    if val is None:
        return default
    return val.strip().lower() not in ("0", "false", "no", "off")


@dataclass
class EngineConfig:
    """Feature switches for the engine: ``mem_plan`` defaults on."""

    #: static memory planning for compiled step plans
    #: (:mod:`repro.tensor.memplan`): assign all plan-owned transient
    #: buffers into one liveness-shared arena instead of private arrays.
    #: Bit-exact either way; off recovers the PR-3 per-buffer layout.
    mem_plan: bool = True

    def plan_signature(self) -> tuple:
        """The switches compiled plans are specialised on: a
        :class:`~repro.tensor.compile.StepPlan` records this at capture and
        replays only while it still matches."""
        return tuple(getattr(self, f.name) for f in fields(self))


config = EngineConfig(mem_plan=_env_flag("REPRO_MEM_PLAN", True))
# Kept for benchmarks/e2e until ROADMAP 1(a): the benchmark pins these on
# ``config`` around its ladder rungs.  Plain attributes, read by nothing:
# not fields, so not in plan_signature(), and engine() refuses them.
config.parallel_replay = False
config.sparse_compute = False


@contextmanager
def engine(**switches):
    """Run a block with the named :class:`EngineConfig` fields pinned on the
    process-wide ``config``; the previous values come back on exit, normal
    or not.  An unknown name is a ``TypeError``, raised before anything is
    set.  Live plans notice the change through ``plan_signature()``."""
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
    """``engine(mem_plan=False)``, kept until ROADMAP 1(a) for
    ``benchmarks/e2e``, whose ladder times its ``seed`` rung under it.  Inert
    there: that rung steps eagerly, and eager steps do not read
    ``mem_plan``."""
    return engine(mem_plan=False)


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

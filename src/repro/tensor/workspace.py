"""Engine configuration and the plan generation.

The :class:`EngineConfig` switchboard: the process-wide ``config`` every
kernel and the plan builder read is the *one* place an engine switch is set
— parsed from ``REPRO_*`` once at import, then pinned for a block with
:func:`engine` (``baseline_engine()`` is its all-off preset, the seed
engine's exact execution path, which is how ``benchmarks/perf`` measures
honest before/after numbers in one process).  Every field is something a
compiled plan is specialised on, so ``plan_signature()`` is the fields
themselves.

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
    """Feature switches for the optimized engine.

    ``fused_bnrelu`` and ``mem_plan`` default on and ``conv_impl`` to
    ``"einsum"``; ``parallel_replay`` and ``sparse_compute`` default off.
    ``baseline_engine()`` (or ``REPRO_FUSED=0 REPRO_CONV_IMPL=im2col``
    before import) runs the seed-equivalent path.
    """

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
    return engine(fused_bnrelu=False, conv_impl="im2col",
                  mem_plan=False, parallel_replay=False, sparse_compute=False)


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

#: Guards PLAN_GENERATION bumps.  Replay worker threads never bump the
#: generation themselves, but plan-cache maintenance may race a bump from
#: the driver (e.g. a test thread invalidating while another looks up), so
#: the read-modify-write must be atomic.  Plain reads of the counter are a
#: single bytecode and need no lock.
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

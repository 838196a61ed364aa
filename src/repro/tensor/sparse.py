"""Sparsity-aware compute paths: dead-channel skipping for compiled conv GEMMs.

PruneTrain creates structured sparsity *during* training: between
reconfigurations, channels below the group-lasso threshold are already
effectively dead (with ``zero_sparse`` they are exactly zero) but still cost
full GEMM columns until surgery removes them.  This module is the bridge
between the pruning side, which knows the dead sets, and the compute side,
which can skip them:

- **Registry** — :func:`publish` installs per-conv-weight dead channel sets
  (exported with hysteresis by :class:`repro.prune.tracker.DeadSetExporter`).
  Entries are keyed by the weight array's identity and validated on lookup,
  so stale sets can never leak across surgery.  A publish that changes the
  sets bumps ``PLAN_GENERATION`` (plans respecialize); an identical publish
  is free — the hysteresis contract that keeps oscillating channels from
  thrashing plans.

- **Gate** — :func:`conv_gate_for` decides, per conv GEMM signature, whether
  the sparse pipelines may engage.  The decision is a *measured* one: the
  dense and sparse pipelines run back to back on real capture data
  (:class:`repro.costmodel.time.SparseGemmCostModel`), and sparse is chosen
  only if the probe was **bit-identical** and the measured gain clears
  ``config.sparse_min_gain``.  The parity probe matters because BLAS kernels
  may pair multiply-accumulators differently when the reduction dimension
  shrinks: dropping exactly-zero *columns* from a GEMM reduction is
  bit-identical for most shapes but not all, while dropping output *rows*
  always is (rows are independent).  Parity at a shape signature is
  value-independent (kernel choice depends on shapes/strides), so one probe
  per signature per reconfiguration interval suffices.  Calibrations are
  cached per signature — the memory planner's sizer/assembler double build
  sees identical decisions — and invalidated on every publish, so the gate
  is re-checked each reconfiguration interval.  All decisions are recorded.

- **Run-coalesced selection** — :func:`index_runs` turns sorted channel
  indices into ``(dst, src, len)`` slice runs so channel gather/scatter is a
  handful of contiguous copies, not fancy indexing.

Sparse compute is a *plan specialisation* only.  The dense and live-channel
kernels are stated once, in :class:`repro.tensor.ops.conv.ConvKernels`, which
owns every kernel; the plan builder's conv builder
(``repro.tensor.compile._PlanBuilder._build_conv2d``) only wraps the live
ones in the per-step guards below, and the gate's probe times and
parity-checks that same kernel set.  Eager steps (the capture step,
``profile=True``, a capture failure) run the plain dense kernels, which
every sparse path must equal bitwise anyway.

Dense remains the default and the bit-exact reference: every sparse thunk
carries per-step guards (weights on dead groups still exactly zero; for
``dw``, the published dead rows of ``dy`` and dead channels of ``x`` exactly
zero, so the GEMM compacts to the published live sets — the shape the probe
ran) and falls back to the dense kernels — on the same worst-case-dense
buffers — the moment a guard fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..profiler import Counters, register
from . import workspace as ws
from .ops.conv import ConvKernels, conv_form, fresh_alloc

__all__ = [
    "DeadSet", "ConvGate", "StepState", "SparseStats", "STATS",
    "index_runs", "publish", "clear", "dead_set_for", "conv_gate_for",
    "weights_dead", "runs_any_ch",
]


# -- run-coalesced channel selection -----------------------------------------

def index_runs(idx: np.ndarray) -> List[Tuple[int, int, int]]:
    """Turn sorted channel indices into ``(dst, src, length)`` slice runs.

    Consecutive source indices coalesce into one run, so gather/scatter over
    a mostly-contiguous live set is a few big ``memcpy``-like slice copies.
    """
    runs: List[Tuple[int, int, int]] = []
    i, m = 0, len(idx)
    while i < m:
        j = i
        while j + 1 < m and idx[j + 1] == idx[j] + 1:
            j += 1
        runs.append((i, int(idx[i]), j - i + 1))
        i = j + 1
    return runs


def runs_any_ch(arr: np.ndarray, runs: List[Tuple[int, int, int]],
                axis: int = 1) -> bool:
    """True if any element in the listed channel runs is non-zero.

    Early-outs on the first dirty run — the common case when a guard fails
    is cheap, and the all-zero case is one bandwidth pass over the dead
    fraction only.
    """
    if axis == 0:
        for _, s0, ln in runs:
            if arr[s0:s0 + ln].any():
                return True
    else:
        for _, s0, ln in runs:
            if arr[:, s0:s0 + ln].any():
                return True
    return False


# -- dead sets ---------------------------------------------------------------

@dataclass
class DeadSet:
    """Dead/live channel index sets for one conv weight, with slice runs."""

    c: int
    k: int
    in_dead: np.ndarray
    out_dead: np.ndarray
    in_live: np.ndarray
    out_live: np.ndarray
    in_live_runs: List[Tuple[int, int, int]] = field(default_factory=list)
    in_dead_runs: List[Tuple[int, int, int]] = field(default_factory=list)
    out_live_runs: List[Tuple[int, int, int]] = field(default_factory=list)
    out_dead_runs: List[Tuple[int, int, int]] = field(default_factory=list)

    @classmethod
    def from_masks(cls, in_dead: np.ndarray, out_dead: np.ndarray
                   ) -> "DeadSet":
        in_dead = np.asarray(in_dead, dtype=bool)
        out_dead = np.asarray(out_dead, dtype=bool)
        ds = cls(c=in_dead.size, k=out_dead.size,
                 in_dead=np.flatnonzero(in_dead),
                 out_dead=np.flatnonzero(out_dead),
                 in_live=np.flatnonzero(~in_dead),
                 out_live=np.flatnonzero(~out_dead))
        ds.in_live_runs = index_runs(ds.in_live)
        ds.in_dead_runs = index_runs(ds.in_dead)
        ds.out_live_runs = index_runs(ds.out_live)
        ds.out_dead_runs = index_runs(ds.out_dead)
        return ds

    @property
    def in_frac(self) -> float:
        return self.in_dead.size / self.c if self.c else 0.0

    @property
    def out_frac(self) -> float:
        return self.out_dead.size / self.k if self.k else 0.0


def weights_dead(w4: np.ndarray, ds: DeadSet) -> bool:
    """Per-step revival guard: every dead group still exactly zero."""
    return not (runs_any_ch(w4, ds.out_dead_runs, axis=0)
                or runs_any_ch(w4, ds.in_dead_runs, axis=1))


class StepState:
    """Mutable per-plan sparse state shared between a conv's thunks.

    ``enabled`` is the sticky revival flag: the forward thunk checks the
    weight guard each step and, on the first failure (a dead channel came
    back mid-interval), drops the whole conv to the dense kernels until the
    next publish respecializes the plan.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


# -- statistics (PROFILER.summary()["_sparse"]) ------------------------------

@dataclass
class SparseStats(Counters):
    publishes: int = 0
    publish_invalidations: int = 0
    gate_accepts: int = 0
    gate_rejects: int = 0
    fwd_sparse_steps: int = 0
    fwd_dense_fallbacks: int = 0
    dw_sparse_steps: int = 0
    dw_dense_steps: int = 0
    dx_sparse_steps: int = 0
    #: GEMM reduction columns skipped, accumulated over steps
    skipped_cols: int = 0

    def derived(self) -> dict:
        from ..costmodel.time import SPARSE_GEMM
        return {"decisions": list(SPARSE_GEMM.decisions)}


STATS = register("_sparse", SparseStats())


# -- registry ----------------------------------------------------------------

class _Entry:
    __slots__ = ("tensor", "ds")

    def __init__(self, tensor, ds: DeadSet) -> None:
        self.tensor = tensor
        self.ds = ds


_REGISTRY: Dict[int, _Entry] = {}
_published_fp: Optional[tuple] = None


def publish(entries, *, invalidate: bool = True) -> bool:
    """Install the current dead-channel sets.

    ``entries`` is an iterable of ``(weight_tensor, in_dead, out_dead)``
    with boolean masks over the weight's current channel dims.  Returns
    True iff the sets changed vs the previous publish — only then is
    ``PLAN_GENERATION`` bumped (plans respecialize); republishing an
    identical set is free, which is what lets the hysteresis exporter scan
    every interval without churning plans.  Every publish invalidates the
    gate's calibrations so sparse-vs-dense is re-probed on the new sets.
    """
    global _published_fp
    new: Dict[int, _Entry] = {}
    fp = []
    for t, in_dead, out_dead in entries:
        in_dead = np.asarray(in_dead, dtype=bool)
        out_dead = np.asarray(out_dead, dtype=bool)
        if not (in_dead.any() or out_dead.any()):
            continue
        fp.append((id(t), in_dead.tobytes(), out_dead.tobytes()))
        new[id(t.data)] = _Entry(t, DeadSet.from_masks(in_dead, out_dead))
    fingerprint = tuple(fp)
    prev = _published_fp if _published_fp is not None else ()
    changed = fingerprint != prev
    _REGISTRY.clear()
    _REGISTRY.update(new)
    _published_fp = fingerprint
    _gate_memo.clear()
    from ..costmodel.time import SPARSE_GEMM
    SPARSE_GEMM.invalidate()
    STATS.publishes += 1
    if changed and invalidate:
        STATS.publish_invalidations += 1
        ws.invalidate()
    return changed


def clear() -> None:
    """Drop all published dead sets (plans fall back to dense on rebuild)."""
    global _published_fp
    if _REGISTRY:
        _REGISTRY.clear()
        ws.invalidate()
    _published_fp = None
    _gate_memo.clear()


def dead_set_for(w: np.ndarray) -> Optional[DeadSet]:
    """Published dead set for this exact weight array, or None."""
    e = _REGISTRY.get(id(w))
    if e is None or e.tensor.data is not w:
        return None
    ds = e.ds
    if w.ndim != 4 or w.shape[0] != ds.k or w.shape[1] != ds.c:
        return None
    return ds


# -- the gate ----------------------------------------------------------------

@dataclass
class ConvGate:
    """Per-conv gate verdict: which sparse pipelines may engage."""

    ds: DeadSet
    sig: tuple
    use_fwd: bool
    use_dw: bool
    use_dx: bool


_gate_memo: Dict[tuple, Tuple[bool, bool, bool]] = {}


def conv_gate_for(w: np.ndarray, x: np.ndarray, stride: int,
                  padding: int) -> Optional[ConvGate]:
    """Gate decision for one conv at a concrete input shape.

    Returns None when no sparse path should engage (a 1x1, unrolled or span
    conv — only the window-gather form has live-channel kernels — no
    published dead set, or the calibration probe rejected every pipeline) —
    the caller then builds/runs the plain dense kernels.  Decisions are
    memoized per (signature, dead-set content) until the next publish,
    making the gate deterministic across the planner's double build and
    across plan rebuilds within one reconfiguration interval.
    """
    if not ws.config.sparse_compute:
        return None
    ds = dead_set_for(w)
    k, c, r, s = w.shape
    n, _, h, wd = x.shape
    if ds is None or conv_form(h, wd, r, s, stride, padding, k) != "gather":
        return None
    kl, cl = ds.out_live.size, ds.in_live.size
    if kl == 0 or cl == 0 or (kl == k and cl == c):
        return None
    sig = (n, c, h, wd, k, r, s, stride, padding, cl, kl,
           len(ds.in_live_runs), len(ds.out_live_runs))
    memo_key = (sig, ds.in_dead.tobytes(), ds.out_dead.tobytes())
    hit = _gate_memo.get(memo_key)
    if hit is not None:
        use_fwd, use_dw, use_dx = hit
        return ConvGate(ds, sig, use_fwd, use_dw, use_dx) if use_fwd \
            else None
    use_fwd, use_dw, use_dx = _calibrate_conv(sig, x, w, ds, stride, padding)
    _gate_memo[memo_key] = (use_fwd, use_dw, use_dx)
    if use_fwd:
        STATS.gate_accepts += 1
        return ConvGate(ds, sig, use_fwd, use_dw, use_dx)
    STATS.gate_rejects += 1
    return None


def _calibrate_conv(sig: tuple, x: np.ndarray, w: np.ndarray, ds: DeadSet,
                    stride: int, padding: int) -> Tuple[bool, bool, bool]:
    """Measure dense vs live-channel kernels on real data; probe bit-parity.

    The probe builds the very kernel set the plan builder binds
    (:class:`repro.tensor.ops.conv.ConvKernels`, planned layout, fresh
    buffers) and times those kernels plus the per-step guard scans the plan
    wraps around the live ones — the gate measures the code that runs.
    """
    from ..costmodel.time import SPARSE_GEMM, predicted_sparse_gain

    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    kl, cl = ds.out_live.size, ds.in_live.size
    min_gain = ws.config.sparse_min_gain
    alloc = fresh_alloc(x.dtype)

    def decide(path: str, dense_fn, live_fn, parity_fn, work: float,
               cols: float, cols_kept: float, live_out: float) -> bool:
        # Cost-model prediction from the GEMM's multiply-adds (``work``),
        # the gathered column elements (``cols``, of which the live kernel
        # keeps ``cols_kept``) and the compact output it scatters back.
        pred = predicted_sparse_gain(
            2.0 * work, 4.0 * cols, 2.0 * work * (kl / k) * (cl / c),
            4.0 * cols * cols_kept + 4.0 * live_out)
        return SPARSE_GEMM.decide(
            SPARSE_GEMM.calibrate(sig, path, dense_fn, live_fn, parity_fn,
                                  pred), min_gain)

    ks = ConvKernels(x.shape, w, stride, padding, x.dtype, alloc,
                     dead=ds, remat=True)
    y4 = ks.y4
    p = y4.shape[2] * y4.shape[3]
    crs_p = c * r * s * p
    ref = alloc(y4.shape)

    def fwd_live() -> None:
        weights_dead(w, ds)                   # the per-step guard scan
        ks.fwd_live(x)

    def fwd_parity() -> bool:
        ks.fwd(x)
        np.copyto(ref, y4)
        ks.fwd_live(x)
        return np.array_equal(ref, y4)

    if not decide("fwd", lambda: ks.fwd(x), fwd_live, fwd_parity,
                  n * k * crs_p, n * crs_p, cl / c, n * kl * p):
        return False, False, False

    # -- dw: dy with dead rows zero (what training produces) -----------
    ks.backward(alloc)
    ks.fwd(x)                                 # realistic magnitudes
    dy = y4
    g3 = dy.reshape(n, k, p)
    for _, s0, ln in ds.out_dead_runs:
        g3[:, s0:s0 + ln] = 0

    def dw_live() -> None:
        runs_any_ch(g3, ds.out_dead_runs)     # the dy-zero row check
        runs_any_ch(x, ds.in_dead_runs)       # the x-zero column check
        ks.dw_live(x, g3, ds.out_live_runs)

    def dw_parity() -> bool:
        # The plan compacts to the published live rows and channels —
        # this GEMM shape — and only while the dead rows of dy and the
        # dead in-channels of x are zero, which the per-step checks
        # enforce at run time, so the probe compares on such operands.
        xz = x.copy()
        for _, s0, ln in ds.in_dead_runs:
            xz[:, s0:s0 + ln] = 0
        return np.array_equal(ks.dw(xz, g3),
                              ks.dw_live(xz, g3, ds.out_live_runs))

    use_dw = decide("dw", lambda: ks.dw(x, g3), dw_live,
                    dw_parity, n * k * crs_p, n * crs_p, cl / c,
                    n * kl * p)

    # -- dx (transposed-conv form only): the one kernel whose compaction
    # shrinks a GEMM *reduction* dimension (K*R*S), where BLAS
    # accumulator pairing can change low bits — the parity probe is
    # load-bearing here, not a formality.
    use_dx = False
    if ks.dx_live is not None:
        dx_ref = alloc(x.shape)

        def dx_parity() -> bool:
            np.copyto(dx_ref, ks.dx(dy))
            return np.array_equal(dx_ref, ks.dx_live(dy))

        krs_hw = k * r * s * h * wd
        use_dx = decide("dx", lambda: ks.dx(dy), lambda: ks.dx_live(dy),
                        dx_parity, n * c * krs_hw, n * krs_hw, kl / k,
                        n * cl * h * wd)
    return True, use_dw, use_dx


"""Compiled training step: capture the autograd tape once, replay a flat plan.

PruneTrain's loop is shape-stationary between reconfigurations, so the
define-by-run graph the engine rebuilds every iteration — ``Tensor._make``
closures, parent tuples, a full topological sort per ``backward()`` — is
identical step after step.  This module captures ONE eager step and turns it
into a :class:`StepPlan`: a flat list of prebuilt kernel thunks (the CPU
analogue of CUDA-graph capture) that replays with zero graph construction,
zero closure allocation, and no per-step topo sort.

Bit-exactness contract
----------------------
Replay must produce *bit-identical* results to the eager step, so every
resume/equivalence guarantee in the repo survives with compilation on.  The
plan therefore does not re-derive anything: it calls the **same kernels**
(``repro.tensor.ops``) with the same arguments in the same order the eager
engine would, and its gradient routing reproduces the eager accumulation
semantics exactly —

- the forward thunks run in recorded (= eager execution) order;
- the backward thunks run in the order ``Tensor.backward`` would visit them
  (reverse of the identical iterative DFS, captured at finalize time);
- parameter gradients go through :func:`repro.tensor.functional._give_grad`
  (the eager path itself), interior gradients mirror
  ``Tensor._accumulate_donated`` / ``Tensor._accumulate`` — donate or
  copy-on-first-touch, ``+=`` on later touches, pool release on consumption.

Capture mechanics
-----------------
``Tape`` installs itself as ``repro.tensor.tensor._TAPE``; each functional
op then appends an execution record (``functional.apply_op`` for a row of
``ops.table.OPS``, ``functional.conv2d`` for the conv — nothing else makes
graph nodes).
``Tensor.__init__`` reports every tensor created during capture, so an input
produced by an *unhooked* op is recognized at finalize time and the capture
fails closed — the trainer falls back to eager with a logged reason rather
than baking a stale constant into the plan.

Invalidation
------------
Plans record ``workspace.PLAN_GENERATION`` at capture.  The counter is
bumped by ``workspace.invalidate()`` (pruning reconfiguration — the same
moment the buffer pool drops its cached shapes) and by
``Module.load_state_dict`` (checkpoint restore reassigns ``param.data``, so
array references captured by a plan go stale).  Dynamic mini-batch growth
needs no hook: the input shape is part of the plan-cache key
(:func:`train_step`), so a new batch size simply captures a new plan.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..profiler import Counters, register
from . import blas as _blas
from . import memplan as _mp
from . import parallel as _par
from . import sparse as _sparse
from . import workspace as ws
from .ops import conv as _conv
from .ops import table as _table
from . import tensor as _tensor_mod
from .functional import _give_grad, cross_entropy
from .tensor import Tensor, backward_order, no_grad

__all__ = ["Tape", "StepPlan", "PlanCache", "PlanStats", "STATS",
           "train_step", "forward_step",
           "BatchPadder", "capture_training_step", "capture_forward"]


@dataclass
class PlanStats(Counters):
    """Process-wide capture/replay accounting (``PROFILER.summary()
    ["_plans"]``)."""

    captures: int = 0
    capture_seconds: float = 0.0
    replays: int = 0
    replay_seconds: float = 0.0
    fallbacks: int = 0
    last_fallback_reason: str = ""

    def count_capture(self, plan, reason: Optional[str], t0: float) -> None:
        """Book one capture attempt started at ``time.perf_counter() == t0``:
        a plan counts as a capture, ``plan is None`` as a fallback."""
        if plan is not None:
            self.captures += 1
            self.capture_seconds += time.perf_counter() - t0
        else:
            self.fallbacks += 1
            self.last_fallback_reason = reason or "capture failed"


STATS = register("_plans", PlanStats())


class _CaptureError(Exception):
    """Raised by the plan builder when a recorded graph cannot be compiled."""


class _Lifetimes:
    """Def/use intervals for plan-owned buffers on the step timeline.

    Timeline positions: every thunk occupies *two* ticks, so the forward
    thunk of record ``i`` spans ``[2i, 2i+1]`` (recorded = eager
    execution order) and backward thunk ``j`` spans
    ``[2(F+j), 2(F+j)+1]``.  The second tick lets a backward thunk split
    its scratch into an early phase (the weight-gradient GEMM and its
    rematerialized columns) and a late phase (the dx staging): the two
    biggest buffers in a conv backward never coexist, so they share one
    arena region.  Every buffer request in the builder maps to an
    inclusive ``[first_def, last_use]`` interval the memory planner
    (:mod:`repro.tensor.memplan`) can pack against.  Intervals are
    conservative: a value is kept live through its producer's own
    backward even when that backward never reads it.
    """

    def __init__(self, tape: "Tape", bwd_nodes: List[Tensor], kind: str,
                 loss: Optional[Tensor], logits: Tensor):
        self.tape = tape
        self.kind = kind
        self.fwd_t: Dict[int, int] = {id(rec): 2 * i
                                      for i, rec in enumerate(tape.records)}
        n_fwd = len(tape.records)
        self.bwd_t: Dict[int, int] = {}
        for j, node in enumerate(bwd_nodes):
            rec = tape.rec_of[id(node)]
            self.bwd_t[id(rec)] = 2 * (n_fwd + j)
        #: one past the last timeline position
        self.horizon = 2 * (n_fwd + len(bwd_nodes))
        #: value slot -> records that read it as a forward input
        self.consumers: Dict[int, List[_Record]] = {}
        for rec in tape.records:
            for t in rec.inputs:
                if t is None:
                    continue
                slot = tape.slot_of.get(id(t))
                if slot is not None:
                    self.consumers.setdefault(slot, []).append(rec)
        #: slots whose value escapes the plan each replay (run() returns
        #: these arrays to the trainer, which reads them after the step)
        self._escaping = {tape.slot_of[id(logits)]}
        if loss is not None:
            self._escaping.add(tape.slot_of[id(loss)])

    def _end_of(self, rec: _Record) -> int:
        """Conservative last timeline position attributable to ``rec``
        (the closing tick of its backward thunk)."""
        bt = self.bwd_t.get(id(rec))
        if bt is not None:
            return bt + 1
        if self.kind == "train":
            # A recorded op with no backward thunk in a train plan is
            # rare (a frozen subgraph); keep its buffers live to the end.
            return self.horizon
        return self.fwd_t[id(rec)] + 1

    def bwd_window(self, rec: _Record) -> Tuple[int, int]:
        """The two ticks of ``rec``'s backward thunk (or a shared
        past-the-end slot for an op whose backward never runs)."""
        bt = self.bwd_t.get(id(rec))
        if bt is None:
            return self.horizon, self.horizon
        return bt, bt + 1

    def value_end(self, rec: _Record) -> int:
        """Last use of ``rec``'s output value: every consumer's forward
        and backward, plus the producer's own backward (which may read
        its output, e.g. the ReLU mask recomputation)."""
        slot = self.tape.slot_of[id(rec.out)]
        if slot in self._escaping:
            return self.horizon
        end = self._end_of(rec)
        for c in self.consumers.get(slot, ()):
            end = max(end, self.fwd_t[id(c)] + 1, self._end_of(c))
        return end

    def value_ticks(self, rec: _Record) -> List[int]:
        """Every timeline position that touches ``rec``'s output value —
        the same set :meth:`value_end` maxes over.  Level-scheduled replay
        needs the full set: the serially-last toucher is not necessarily
        the deepest-scheduled one, so the remapped slab must span all of
        their levels (see :meth:`memplan.MemPlanner.remap`)."""
        slot = self.tape.slot_of[id(rec.out)]
        ticks = [self.fwd_t[id(rec)], self._end_of(rec)]
        if slot in self._escaping:
            ticks.append(self.horizon)
        for c in self.consumers.get(slot, ()):
            ticks.append(self.fwd_t[id(c)] + 1)
            ticks.append(self._end_of(c))
        return ticks

    def grad_end(self, x: Tensor) -> Optional[int]:
        """Last use of a gradient buffer donated toward ``x``: the
        backward thunk of x's producer consumes (and releases) it.
        ``None`` means the buffer escapes the plan entirely — a leaf
        gradient kept by ``F._give_grad`` for the optimizer — and must
        stay a private allocation."""
        slot = self.tape.slot_of.get(id(x))
        if slot is None:
            return None
        if slot in self.tape._input_slots:
            return self.horizon
        rec = self.tape.rec_of.get(id(x))
        if rec is None:
            return self.horizon
        return self._end_of(rec)

    def alias_ok(self, x: Tensor, rec: _Record) -> bool:
        """May ``rec`` write its output in place over input ``x``?

        Safe iff ``rec`` is x's *only* consumer and x's producer's
        backward never reads its own output, so the overwritten value is
        provably dead after ``rec``'s forward.  Convolution and the
        affine-folded BN (without fused ReLU) qualify; ReLU-family
        producers re-derive their backward mask from their output and do
        not.  The requesting ops themselves (ReLU, residual add+ReLU)
        read only their output at backward time, never ``x``.
        """
        slot = self.tape.slot_of.get(id(x))
        if slot is None or slot in self.tape._input_slots:
            return False
        if slot in self._escaping:
            return False
        if len(self.consumers.get(slot, ())) != 1:
            return False
        prod = self.tape.rec_of.get(id(x))
        if prod is None:
            return False
        if prod.kind == "conv2d":
            return True
        if prod.kind == "batch_norm":
            _rm, _rv, _mom, _eps, training, relu_flag = prod.attrs
            coef_path = training and (relu_flag or ws.config.fused_bnrelu)
            return coef_path and not relu_flag
        return False


class _Record:
    """One captured op invocation (static arguments only — no step state)."""

    __slots__ = ("kind", "inputs", "out", "attrs")

    def __init__(self, kind: str, inputs: tuple, out: Tensor, attrs):
        self.kind = kind
        self.inputs = inputs
        self.out = out
        self.attrs = attrs


def _split_backward(rec: _Record) -> bool:
    """Whether ``rec``'s backward thunk is split into dw/dx/fin parts for
    level scheduling.  Only the conv qualifies: its weight-gradient GEMM
    (plus column regather) is independent of the ``dx`` chain the rest of
    the backward waits on, so splitting takes it off the critical path.
    Requires ``need_dx`` — without a dx the whole thunk is already a leaf
    of the gradient dataflow."""
    return rec.kind == "conv2d" and bool(rec.attrs[2])


def _shared_backward(rec: _Record) -> bool:
    """Whether the split conv ``rec`` is of a form whose ``dw`` and ``dx``
    read common staging (``ConvKernels.shared_backward``): the ``dx`` part
    then stages and ``dw`` follows it — still off the critical path."""
    (x, w), (stride, padding) = rec.inputs[:2], rec.attrs[:2]
    form = _conv.conv_form(*x.data.shape[2:], *w.data.shape[2:], stride,
                           padding, w.data.shape[0])
    return _conv.FORMS[form].shared_backward


def _drop(arr) -> None:
    """The gradient sink of an absent optional input."""


def _release_fin(grads: list, o: int):
    """Final part of a split backward: retire the output-grad slot.

    Runs after both the ``dw`` and ``dx`` parts (the schedule adds both
    edges), reproducing the tail of the unsplit thunk exactly.
    """
    def bwd_fin() -> None:
        g = grads[o]
        grads[o] = None
        if g is not None:
            ws.release(g)
    return bwd_fin


#: Arena growth tolerance for level-scheduled packing, relative to the
#: serial solve of the same slabs.  Concurrent thunks may never share
#: bytes, so the parallel arena is naturally larger; past this cap the
#: schedule trades parallelism back (serializing the widest level) rather
#: than growing the arena unboundedly.
_ARENA_GROWTH_CAP = 2.0

#: Absolute slack on top of the relative cap: tiny plans (a few hundred
#: KB of slabs) should never trade parallelism over rounding-sized
#: inflation, so the cap is floored at serial + this many bytes.
_ARENA_GROWTH_FLOOR = 1 << 20


class _ParallelSchedule:
    """Dependency levels for one train plan's thunks.

    Nodes: one per forward thunk, a loss-gradient seed node, and one per
    backward thunk — except split convs (:func:`_split_backward`), whose
    backward contributes three nodes (``dw`` weight-grad, ``dx``
    input-grad, ``fin`` release).  Edges pin everything bit-exactness
    depends on:

    - forward dataflow (consumer after producer);
    - every backward part after its op's forward thunk (it reads the
      forward's staged values/ctx);
    - every backward part after the *last writer* of the gradient slot it
      consumes, with multiple writers into one slot **chained in serial
      backward order** — this is the deterministic-reduction guarantee:
      ``+=`` into a gradient buffer happens in the exact eager order, so
      parallel replay is bit-identical to serial replay;
    - writers into one *leaf* ``.grad`` chained the same way (weight
      sharing);
    - ``fin`` after its ``dw``/``dx`` (it releases the gradient buffer
      both read), and ``dw`` after ``dx`` where the ``dx`` part stages what
      both read (:func:`_shared_backward`).

    Levels come from longest-path layering over these edges; all nodes of
    one level are mutually independent and may run concurrently.  The
    schedule also re-times memory-plan slabs onto the level timeline
    (:meth:`map_interval`) so the arena packer can never share bytes
    between co-scheduled thunks.
    """

    def __init__(self, tape: "Tape", bwd_nodes: List[Tensor],
                 lt: _Lifetimes, loss: Tensor):
        g = _par.LevelSchedule()
        self.graph = g
        records = tape.records
        n_fwd = len(records)
        fwd_idx = {id(rec): i for i, rec in enumerate(records)}
        slot_producer: Dict[int, int] = {}
        self.fwd_node: List[int] = []
        for i, rec in enumerate(records):
            self.fwd_node.append(g.add_node(f"f{i}:{rec.kind}"))
            slot_producer[tape.slot_of[id(rec.out)]] = i
        for i, rec in enumerate(records):
            for t in rec.inputs:
                if t is None:
                    continue
                slot = tape.slot_of.get(id(t))
                if slot is not None and slot in slot_producer:
                    g.add_edge(self.fwd_node[slot_producer[slot]],
                               self.fwd_node[i])
        # The loss-gradient seed (grads[loss] = ones_like(loss)) reads the
        # loss value, so it follows the loss op's forward.
        self.seed_node = g.add_node("seed")
        loss_rec = tape.rec_of[id(loss)]
        g.add_edge(self.fwd_node[fwd_idx[id(loss_rec)]], self.seed_node)

        self.split = {id(tape.rec_of[id(n)]) for n in bwd_nodes
                      if _split_backward(tape.rec_of[id(n)])}
        self.bwd_parts: List[tuple] = []
        writers: Dict[int, List[int]] = {
            tape.slot_of[id(loss)]: [self.seed_node]}
        leaf_writers: Dict[int, List[int]] = {}
        for j, bn in enumerate(bwd_nodes):
            rec = tape.rec_of[id(bn)]
            o_slot = tape.slot_of[id(rec.out)]
            if id(rec) in self.split:
                shared = _shared_backward(rec)
                order = ("dx", "dw", "fin") if shared else ("dw", "dx", "fin")
                nodes = {part: g.add_node(f"b{j}.{part}:{rec.kind}")
                         for part in order}
                parts = tuple(nodes.values())
                dw, dx, fin = nodes["dw"], nodes["dx"], nodes["fin"]
                g.add_edge(dw, fin)
                g.add_edge(dx, fin)
                if shared:
                    g.add_edge(dx, dw)
                slot_writer, leaf_writer = dx, dw
            else:
                nd = g.add_node(f"b{j}:{rec.kind}")
                parts = (nd,)
                slot_writer = leaf_writer = nd
            self.bwd_parts.append(parts)
            f_node = self.fwd_node[fwd_idx[id(rec)]]
            wlist = writers.get(o_slot)
            for p in parts:
                g.add_edge(f_node, p)
                if wlist:
                    g.add_edge(wlist[-1], p)
            for t in rec.inputs:
                if t is None:
                    continue
                slot = tape.slot_of.get(id(t))
                if slot is not None:
                    lst = writers.setdefault(slot, [])
                    if lst:
                        g.add_edge(lst[-1], slot_writer)
                    lst.append(slot_writer)
                else:
                    lst = leaf_writers.setdefault(id(t), [])
                    if lst:
                        g.add_edge(lst[-1], leaf_writer)
                    lst.append(leaf_writer)
        g.compute_levels()
        #: serial thunk index -> its schedule nodes (fwd thunks first,
        #: then backward thunks, matching the _Lifetimes timeline)
        self._thunk_nodes: List[List[int]] = \
            [[n] for n in self.fwd_node] + [list(p) for p in self.bwd_parts]
        self._horizon = lt.horizon
        self._refresh_spans()
        _par.STATS.schedules += 1
        _par.STATS.max_width = max(_par.STATS.max_width,
                                   max(len(l) for l in g.levels))

    # -- level/tick bookkeeping -------------------------------------------
    def _refresh_spans(self) -> None:
        level_of = self.graph.level_of
        self._lmin = [min(level_of[n] for n in nodes)
                      for nodes in self._thunk_nodes]
        self._lmax = [max(level_of[n] for n in nodes)
                      for nodes in self._thunk_nodes]
        self.n_levels = len(self.graph.levels)

    def map_interval(self, ticks) -> Tuple[int, int]:
        """Map a slab's serial touch ticks onto the level timeline.

        Each touched thunk contributes its full level span (a split
        backward spans ``dw``..``fin``); the slab must stay live across
        all of them.  Ticks at/past the horizon (escaping buffers) pin to
        a past-the-end level.
        """
        lo = hi = None
        for t in ticks:
            if t >= self._horizon:
                a, b = 2 * self.n_levels, 2 * self.n_levels + 1
            else:
                n = t // 2
                a, b = 2 * self._lmin[n], 2 * self._lmax[n] + 1
            lo = a if lo is None or a < lo else lo
            hi = b if hi is None or b > hi else hi
        return lo, hi

    def serialize_widest(self) -> bool:
        """Chain the widest level's nodes (arena growth guard); returns
        False when no level has width > 1 (nothing left to trade)."""
        li = self.graph.widest_level()
        if li < 0:
            return False
        self.graph.serialize_level(li)
        self._refresh_spans()
        _par.STATS.levels_serialized += 1
        return True

    def info(self) -> Dict[str, object]:
        g = self.graph
        return {"nodes": g.n_nodes,
                "levels": len(g.levels),
                "widths": [len(l) for l in g.levels],
                "level_names": [[g.names[n] for n in l] for l in g.levels]}


class Tape:
    """Records one eager step's op sequence for compilation into a plan.

    Use as a context manager around the step's forward (+ loss) code; the
    ops record themselves via the ``_TAPE`` hook.  Recording never changes
    the computation — the captured step's own results are the eager
    results, and the plan only takes effect on *subsequent* steps.
    """

    def __init__(self) -> None:
        self.records: List[_Record] = []
        #: id(out tensor) -> value slot; also keyed for marked inputs
        self.slot_of: Dict[int, int] = {}
        self.rec_of: Dict[int, _Record] = {}
        #: ids of every Tensor constructed during capture (fresh tensors
        #: that are *not* recorded op outputs mark unsupported computation)
        self._fresh: set = set()
        #: keepalive so the id-keyed maps can never see a recycled id
        self._keepalive: List[Tensor] = []
        self._input_slots: List[int] = []
        self._n_slots = 0
        self.failed_reason: Optional[str] = None
        self._active = False

    # -- capture lifecycle -------------------------------------------------
    def __enter__(self) -> "Tape":
        if _tensor_mod._TAPE is not None:
            raise RuntimeError("a capture tape is already active")
        _tensor_mod._TAPE = self
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        _tensor_mod._TAPE = None
        self._active = False

    def input(self, arr: np.ndarray) -> Tensor:
        """Create the step's input tensor and assign it a dynamic slot."""
        t = Tensor(arr)
        slot = self._new_slot(t)
        self._input_slots.append(slot)
        return t

    def saw_fresh(self, t: Tensor) -> None:
        """Hook from ``Tensor.__init__``: track tensors born during capture."""
        self._fresh.add(id(t))
        self._keepalive.append(t)

    def fail(self, reason: str) -> None:
        if self.failed_reason is None:
            self.failed_reason = reason

    def record(self, kind: str, inputs: tuple, out: Tensor, attrs) -> None:
        """Hook from the functional layer: append one op invocation.

        Must never raise into the forward pass — any internal problem marks
        the tape failed and the trainer falls back to eager.
        """
        try:
            if kind == "conv2d":
                # Fold the eager backward's need_dx decision in at capture
                # time (parents' _backward fields are still intact here,
                # and reverse-topological execution means they still are
                # when the eager closure would evaluate the same test).
                x, weight, bias = inputs
                stride, padding, first_layer = attrs
                need_dx = (x.requires_grad or x._backward is not None) \
                    and not first_layer
                attrs = (stride, padding, need_dx)
            rec = _Record(kind, inputs, out, attrs)
            self.records.append(rec)
            slot = self._new_slot(out)
            self.rec_of[id(out)] = rec
        except Exception as e:  # pragma: no cover - defensive
            self.fail(f"record error: {e!r}")

    def _new_slot(self, t: Tensor) -> int:
        slot = self._n_slots
        self._n_slots += 1
        self.slot_of[id(t)] = slot
        self._keepalive.append(t)
        return slot

    # -- finalization ------------------------------------------------------
    def finalize_training(self, loss: Tensor, logits: Tensor,
                          targets: np.ndarray
                          ) -> Tuple[Optional["StepPlan"], Optional[str]]:
        """Compile a full train-step plan (forward + loss + backward).

        Must run *after* the forward and loss are computed but *before*
        ``loss.backward()`` — backward destroys the closures and parent
        links this method walks to replicate the eager execution order.
        Returns ``(plan, None)`` or ``(None, reason)``.
        """
        if self._active:
            return None, "tape still active (exit the capture context first)"
        if self.failed_reason is not None:
            return None, self.failed_reason
        if id(loss) not in self.slot_of or id(logits) not in self.slot_of:
            return None, "loss/logits were not produced by recorded ops"
        loss_rec = self.rec_of.get(id(loss))
        if loss_rec is None or loss_rec.kind != "cross_entropy":
            return None, "training plans require a cross_entropy loss"
        if loss_rec.attrs is not targets:
            return None, "loss does not consume the step's targets"
        for rec in self.records:
            if rec.kind == "cross_entropy" and rec is not loss_rec:
                return None, "multiple cross_entropy ops in one step"

        bwd_nodes = [n for n in backward_order(loss)
                     if n._backward is not None]
        for n in bwd_nodes:
            if id(n) not in self.slot_of:
                return None, "graph contains an op without a capture hook"
        try:
            return self._build(kind="train", bwd_nodes=bwd_nodes,
                               loss=loss, logits=logits), None
        except _CaptureError as e:
            return None, str(e)

    def finalize_forward(self, logits: Tensor, *, row_stable: bool = False
                         ) -> Tuple[Optional["StepPlan"], Optional[str]]:
        """Compile a forward-only (inference) plan ending at ``logits``.

        ``row_stable=True`` lowers batch-sensitive ops (the final Linear's
        GEMM) per sample, so every row of the replayed logits is bit-equal
        to a batch-1 eager forward of that sample alone — the serving
        tier's padding/tail contract.  Slightly slower per batch; training
        and evaluation captures keep the standard batched lowering.
        """
        if self._active:
            return None, "tape still active (exit the capture context first)"
        if self.failed_reason is not None:
            return None, self.failed_reason
        if id(logits) not in self.slot_of:
            return None, "logits were not produced by recorded ops"
        try:
            return self._build(kind="forward", bwd_nodes=[],
                               loss=None, logits=logits,
                               row_stable=row_stable), None
        except _CaptureError as e:
            return None, str(e)

    def _build(self, kind: str, bwd_nodes: List[Tensor],
               loss: Optional[Tensor], logits: Tensor,
               row_stable: bool = False) -> "StepPlan":
        if len(self._input_slots) != 1:
            raise _CaptureError("exactly one marked input is required")
        lt = _Lifetimes(self, bwd_nodes, kind, loss, logits)
        sched = None
        if (kind == "train" and ws.config.parallel_replay
                and ws.config.replay_workers >= 2):
            sched = _ParallelSchedule(self, bwd_nodes, lt, loss)
        if ws.config.mem_plan:
            try:
                return self._build_planned(kind, bwd_nodes, loss, logits,
                                           lt, sched, row_stable)
            except _mp.PlanError as e:
                _mp.STATS.fallbacks += 1
                _mp.STATS.last_fallback_reason = str(e)
        return self._assemble(kind, bwd_nodes, loss, logits, lt, mem=None,
                              sched=sched, row_stable=row_stable)

    def _build_planned(self, kind: str, bwd_nodes: List[Tensor],
                       loss: Optional[Tensor], logits: Tensor,
                       lt: _Lifetimes, sched,
                       row_stable: bool = False) -> "StepPlan":
        """Two-pass build: size the arena, then assemble thunks over it.

        Pass 1 runs the builder in *plan* mode — every plan-owned buffer
        request records a :class:`memplan.Slab` with its liveness
        interval and yields a throwaway array; the thunks it builds are
        discarded.  After solving the layout and materializing the
        arena, pass 2 replays the identical request sequence in *serve*
        mode, so the kept thunks close over arena views instead of
        private arrays.  Any divergence raises ``PlanError`` and
        :meth:`_build` falls back to unplanned buffers.

        With a parallel schedule the packing becomes concurrency-aware:
        slabs are re-timed onto the level timeline (same-level thunks get
        overlapping intervals, so they never share bytes) and the solve
        iterates against the arena growth guard — when the level-timed
        arena exceeds ``_ARENA_GROWTH_CAP`` times the serial solve, the
        widest level is serialized and the layout re-solved, trading
        parallelism for footprint instead of growing unboundedly.
        """
        mem = _mp.MemPlanner()
        scratch = StepPlan(kind=kind, n_slots=self._n_slots,
                           input_slot=self._input_slots[0])
        sizer = _PlanBuilder(self, scratch, keep_ctx=(kind == "train"),
                             lt=lt, mem=mem, sched=sched,
                             row_stable=row_stable)
        for rec in self.records:
            sizer.build(rec)
        if sched is None:
            mem.solve()
        else:
            serial_arena = mem.solve()
            cap = max(int(serial_arena * _ARENA_GROWTH_CAP),
                      serial_arena + _ARENA_GROWTH_FLOOR)
            while True:
                mem.remap(sched.map_interval)
                if mem.solve() <= cap or not sched.serialize_widest():
                    break
        mem.materialize(ws.PLAN_GENERATION)
        plan = self._assemble(kind, bwd_nodes, loss, logits, lt, mem=mem,
                              sched=sched, row_stable=row_stable)
        mem.finish()
        return plan

    def _assemble(self, kind: str, bwd_nodes: List[Tensor],
                  loss: Optional[Tensor], logits: Tensor,
                  lt: _Lifetimes, mem, sched=None,
                  row_stable: bool = False) -> "StepPlan":
        plan = StepPlan(kind=kind, n_slots=self._n_slots,
                        input_slot=self._input_slots[0])
        plan.row_stable = row_stable
        builder = _PlanBuilder(self, plan, keep_ctx=(kind == "train"),
                               lt=lt, mem=mem, sched=sched,
                               row_stable=row_stable)
        pairs = {id(rec): builder.build(rec) for rec in self.records}
        plan._fwd = [pairs[id(rec)][0] for rec in self.records]
        if sched is None:
            bwd_recs = [self.rec_of[id(n)] for n in bwd_nodes]
            plan._bwd = [pairs[id(rec)][1] for rec in bwd_recs]
            plan._thunk_kinds = ([rec.kind for rec in self.records],
                                 [rec.kind for rec in bwd_recs])
            rec_last = {id(rec): i for i, rec in enumerate(bwd_recs)}
            plan._bwd_of = [rec_last.get(id(rec)) for rec in self.records]
        else:
            self._assemble_levels(plan, pairs, bwd_nodes, sched)
        plan._logits_slot = self.slot_of[id(logits)]
        plan._loss_slot = self.slot_of[id(loss)] if loss is not None else -1
        plan._leaf_shapes = builder.leaf_shapes()
        plan._n_ops = len(self.records)
        plan._mem = mem
        return plan

    def _assemble_levels(self, plan: "StepPlan", pairs, bwd_nodes, sched
                         ) -> None:
        """Bind schedule nodes to thunks and group them into levels.

        ``plan._bwd`` still receives the flat part sequence in serial
        order (``dw``, ``dx``, ``fin`` for split convs).  On an
        *unplanned* build executing it serially is bit-equivalent to the
        unsplit thunks, which tests use to cross-check the split itself.
        On a planned build the arena is packed against *level* liveness,
        which the flat serial order does not respect — every replay of a
        planned parallel plan must go through the levels
        (:meth:`StepPlan._run_levels` / :meth:`StepPlan.replay_timed`).
        """
        node_fn: Dict[int, Callable[[], None]] = {}
        for i, rec in enumerate(self.records):
            node_fn[sched.fwd_node[i]] = pairs[id(rec)][0]
        values, grads = plan._values, plan._grads

        def seed() -> None:
            grads[plan._loss_slot] = np.ones_like(values[plan._loss_slot])

        node_fn[sched.seed_node] = seed
        bwd_flat: List[Callable[[], None]] = []
        for j, n in enumerate(bwd_nodes):
            rec = self.rec_of[id(n)]
            thunks = pairs[id(rec)][1]
            parts = sched.bwd_parts[j]
            if len(parts) == 3:
                if not (isinstance(thunks, tuple) and len(thunks) == 3):
                    raise _CaptureError(
                        f"schedule split {rec.kind} but builder did not")
                for nd, fn in zip(parts, thunks):
                    node_fn[nd] = fn
                bwd_flat.extend(thunks)
            else:
                if isinstance(thunks, tuple):
                    raise _CaptureError(
                        f"builder split {rec.kind} but schedule did not")
                node_fn[parts[0]] = thunks
                bwd_flat.append(thunks)
        plan._bwd = bwd_flat
        plan._levels = [[node_fn[nd] for nd in lvl]
                        for lvl in sched.graph.levels]
        plan._level_names = [[sched.graph.names[nd] for nd in lvl]
                             for lvl in sched.graph.levels]
        plan._workers = ws.config.replay_workers
        plan._schedule = sched


class _PlanBuilder:
    """Compiles tape records into zero-argument forward/backward thunks.

    Thunks close over the plan's preallocated ``values`` / ``grads`` /
    ``ctxs`` lists, so replay is a straight-line sequence of kernel calls
    with list indexing — no dict lookups, no Tensor objects, no closures
    allocated per step.
    """

    def __init__(self, tape: Tape, plan: "StepPlan", keep_ctx: bool,
                 lt: Optional[_Lifetimes] = None, mem=None, sched=None,
                 row_stable: bool = False):
        self.tape = tape
        self.plan = plan
        self.keep_ctx = keep_ctx
        self.row_stable = row_stable
        self.pooling = ws.config.pooling
        self._leaves: Dict[int, Tensor] = {}
        #: liveness intervals and the arena planner (None -> every
        #: plan-owned buffer is a private allocation, the PR-3 layout)
        self.lt = lt
        self.mem = mem
        #: parallel schedule (None -> serial plan; split convs return
        #: (dw, dx, fin) backward part tuples instead of one thunk)
        self.sched = sched

    # -- the per-record allocator ------------------------------------------
    def _allocator(self, rec: _Record, alias: Tuple[int, ...] = ()):
        """``alloc(shape, tag, phase, dtype=None)`` for ``rec``: the one way a
        thunk's buffers are requested, by the conv's kernel set and by table
        rows alike.  ``phase`` names the buffer class, which fixes its
        liveness interval on the step timeline (:class:`_Lifetimes`):

        - ``"out"`` — the output value, from this forward to the last
          forward/backward that reads it; it overwrites the first input in
          ``alias`` whose value the planner proves dead after this forward;
        - ``"fwd"`` — forward staging dead once the forward returns;
        - ``"span"`` — forward staging the op's own backward still reads;
        - ``"a"`` / ``"b"`` / ``"ab"`` — backward scratch of the thunk's
          early tick (the weight-gradient GEMM), late tick (the dx staging),
          or whole window (what the early part writes and the late reads);
        - ``"grad<i>"`` — the gradient donated toward input ``i``, written
          in this backward and consumed by that input's producer's backward
          (``"dx"``: toward input 0, first written at the late tick).

        Point-lived forward staging lets every conv share one region, at
        the price of a per-step border memset (the same cost eager pays in
        its zero-filled pool acquire) and a backward re-gather.  With no
        planner, and for a gradient that escapes the plan (a leaf's, kept by
        the optimizer), a buffer is a private ``np.empty``.  Tags get the op
        kind as a prefix; ``dtype`` defaults to the first input's.
        """
        tape, lt, mem = self.tape, self.lt, self.mem
        x_dtype = rec.inputs[0].data.dtype

        def alloc(shape: tuple, tag: str, phase: str,
                  dtype=None) -> np.ndarray:
            dtype = x_dtype if dtype is None else dtype
            tag = rec.kind + "." + tag
            if phase == "dx" or phase.startswith("grad"):
                x = rec.inputs[0 if phase == "dx" else int(phase[4:])]
                end = lt.grad_end(x) if mem is not None else None
                if end is None:
                    return np.empty(shape, dtype)
                lo, hi = lt.bwd_window(rec)
                return mem.alloc(shape, dtype,
                                 min(hi if phase == "dx" else lo, end), end,
                                 tag=tag)
            if mem is None:
                return np.empty(shape, dtype)
            tick = lt.fwd_t[id(rec)]
            if phase == "out":
                alias_slot = next((tape.slot_of[id(rec.inputs[i])]
                                   for i in alias
                                   if lt.alias_ok(rec.inputs[i], rec)), None)
                return mem.alloc(shape, dtype, tick, lt.value_end(rec),
                                 tag=tag, out_slot=tape.slot_of[id(rec.out)],
                                 alias_slot=alias_slot,
                                 ticks=lt.value_ticks(rec))
            if phase == "fwd":
                return mem.alloc(shape, dtype, tick, tick, tag=tag)
            if phase == "span":
                return mem.alloc(shape, dtype, tick, lt._end_of(rec), tag=tag)
            lo, hi = lt.bwd_window(rec)
            return mem.alloc(shape, dtype, hi if phase == "b" else lo,
                             lo if phase == "a" else hi, tag=tag)
        return alloc

    # -- input/output resolution ------------------------------------------
    def _resolve(self, t: Tensor) -> Tuple[Optional[int], Optional[Tensor]]:
        """Map an input tensor to ``(slot, None)`` or ``(None, leaf)``."""
        slot = self.tape.slot_of.get(id(t))
        if slot is not None:
            return slot, None
        if t._backward is not None or id(t) in self.tape._fresh:
            # Produced during capture by an op with no hook: its value
            # depends on the step input, so baking it in would be wrong.
            raise _CaptureError("op input produced by an unrecorded op")
        self._leaves[id(t)] = t
        return None, t

    def _reader(self, t: Optional[Tensor]
                ) -> Callable[[], Optional[np.ndarray]]:
        """Zero-arg callable yielding the input's *current* value (``None``
        for an absent optional input)."""
        if t is None:
            return lambda: None
        slot, leaf = self._resolve(t)
        if slot is not None:
            values = self.plan._values
            return lambda: values[slot]
        return lambda: leaf.data

    def _leaf(self, t: Optional[Tensor]) -> Optional[Tensor]:
        """Require a parameter-style input to be a graph leaf."""
        if t is None:
            return None
        slot, leaf = self._resolve(t)
        if slot is not None:
            raise _CaptureError("parameter input is not a graph leaf")
        return leaf

    # -- gradient sinks (exact eager accumulation semantics) ---------------
    def _sink_donate(self, t: Tensor) -> Callable[[np.ndarray], None]:
        """Mirror ``functional._give_grad`` for a kernel-produced gradient."""
        slot, leaf = self._resolve(t)
        if slot is None:
            return functools.partial(_give_grad, leaf)
        grads = self.plan._grads
        release = ws.release
        if self.pooling:
            # Interior node: _give_grad always donates (first touch keeps
            # the array itself; later touches += and return it to the pool).
            def sink(arr: np.ndarray) -> None:
                g0 = grads[slot]
                if g0 is None:
                    grads[slot] = arr
                else:
                    g0 += arr
                    release(arr)
        else:
            # Seed-engine semantics: copy on first touch, no ownership
            # transfer (release is a no-op with pooling off).
            def sink(arr: np.ndarray) -> None:
                g0 = grads[slot]
                if g0 is None:
                    grads[slot] = arr.copy()
                else:
                    g0 += arr
        return sink

    def _sink_copy(self, t: Tensor) -> Callable[[np.ndarray], None]:
        """Mirror ``Tensor._accumulate`` for possibly-aliased gradients."""
        slot, leaf = self._resolve(t)
        if slot is None:
            return leaf._accumulate
        grads = self.plan._grads

        def sink(arr: np.ndarray) -> None:
            g0 = grads[slot]
            if g0 is None:
                grads[slot] = arr.copy()
            else:
                g0 += arr
        return sink

    def leaf_shapes(self) -> List[Tuple[Tensor, tuple]]:
        return [(t, t.data.shape) for t in self._leaves.values()]

    # -- thunk builders ----------------------------------------------------
    # A builder maps plan buffers, value/gradient slots and sinks onto
    # kernels stated under ``repro.tensor.ops`` -- the same ones the eager
    # layer runs.  It defines no arithmetic of its own.  There are two: the
    # row driver, for every op of ``ops.table.OPS``, and the conv's.
    def build(self, rec: _Record):
        """``(fwd, bwd)`` thunks of one record: from ``_build_<kind>`` where
        one exists (the conv, the loss), else from the op's table row."""
        builder = getattr(self, "_build_" + rec.kind, None)
        if builder is not None:
            return builder(rec)
        op = _table.OPS.get(rec.kind)
        if op is None:
            raise _CaptureError(f"no plan builder for op {rec.kind!r}")
        return self._from_row(rec, op, [rec.attrs])

    def _from_row(self, rec: _Record, op: "_table.Op", attrs: list):
        """The row driver: thunks derived from a table row.

        The row's build-time stage, if it has one, requests the buffers
        through this record's allocator, and both kernels get what it
        returned (``None`` without a stage).  The forward's output is the
        slot value, what it saves rides in the slot's ctx, and each input's
        gradient goes to a donating or a copying sink as the row says (an
        absent optional input reads ``None`` and drops its gradient).
        ``attrs`` is a one-element box read per step (the loss's targets
        change every step; everything else is static).
        """
        readers = [self._reader(t) for t in rec.inputs]
        bufs = None
        if op.buffers is not None:
            bufs = op.buffers(
                [None if t is None else t.data.shape for t in rec.inputs],
                [None if t is None else t.data.dtype for t in rec.inputs],
                attrs[0], self.keep_ctx, self.row_stable,
                self._allocator(rec, op.alias))
        o = self.tape.slot_of[id(rec.out)]
        values, ctxs, grads = (self.plan._values, self.plan._ctxs,
                               self.plan._grads)
        forward, backward = op.forward, op.backward
        if not self.keep_ctx:
            def fwd() -> None:
                values[o] = forward(*[rd() for rd in readers], attrs[0],
                                    False, bufs)[0]
            return fwd, None

        def fwd() -> None:
            values[o], ctxs[o] = forward(*[rd() for rd in readers],
                                         attrs[0], True, bufs)

        sinks = [_drop if t is None
                 else self._sink_donate(t) if donate else self._sink_copy(t)
                 for t, donate in zip(rec.inputs, op.donate)]

        def bwd() -> None:
            g = grads[o]
            if g is None:
                return
            for sink, dg in zip(sinks, backward(g, ctxs[o], attrs[0], bufs)):
                sink(dg)
            ctxs[o] = None
            ws.release(g)
            grads[o] = None
        return fwd, bwd

    def _build_cross_entropy(self, rec: _Record):
        # The table row, with the step's targets in place of the captured.
        return self._from_row(rec, _table.OPS["cross_entropy"],
                              self.plan._tbox)

    def _conv_backward(self, rec: _Record, dw_part, dx_part, stage):
        """Assemble a conv backward from its ``dw_part(g)`` (weight and bias
        gradients) and ``dx_part(g)`` (input gradient, or ``None``), after
        ``stage(g)`` where the form has staging both read.

        A serial plan gets one thunk running the parts in that order — the
        arena may lay the phase-"b" dx staging over the weight-gradient
        scratch, so dw/db are extracted first — then retiring the
        output-grad slot.  Level scheduling takes the parts separately as
        ``(dw, dx, fin)`` (the weight-grad GEMM is off the dx critical
        chain) or, with a ``stage``, ``(stage + dx, dw, fin)``, the order
        :class:`_ParallelSchedule` gives such a conv; in either order they
        perform the identical kernel calls on identical operands, so the
        split never changes bits.
        """
        o = self.tape.slot_of[id(rec.out)]
        grads = self.plan._grads
        if self.sched is not None and id(rec) in self.sched.split:
            def guarded(*parts):
                def thunk() -> None:
                    g = grads[o]
                    if g is not None:
                        for part in parts:
                            part(g)
                return thunk
            fin = _release_fin(grads, o)
            if stage is None:
                return guarded(dw_part), guarded(dx_part), fin
            return guarded(stage, dx_part), guarded(dw_part), fin

        def bwd() -> None:
            g = grads[o]
            if g is None:
                return
            if stage is not None:
                stage(g)
            dw_part(g)
            if dx_part is not None:
                dx_part(g)
            ws.release(g)
            grads[o] = None
        return bwd

    def _build_conv2d(self, rec: _Record):
        """Conv thunks over :class:`repro.tensor.ops.conv.ConvKernels`.

        This is where the plan beats eager on kernel-bound steps: every
        staging buffer the eager kernel acquires per call (padded input,
        column tensor, output, dx) becomes a plan-owned array allocated once
        at capture, and every ``sliding_window_view`` / weight-reshape /
        transpose is precomputed as a view over those stable buffers.
        Replay performs the identical numpy operations on identical values
        (interiors and GEMM outputs are fully overwritten each step), so
        results stay bit-exact while the per-step view construction and
        pool traffic disappear.  The kernel set states the lowering, RxS and
        1x1 alike; this builder supplies its buffers and wires the kernels
        to the plan's slots and sinks.
        """
        if ws.config.conv_impl != "einsum":
            # The seed im2col GEMM is neither staged nor row-stable.
            raise _CaptureError(
                "compiled plans require the einsum conv lowering")
        x, weight, bias = rec.inputs
        stride, padding, need_dx = rec.attrs
        rd_x = self._reader(x)
        w_t = self._leaf(weight)
        b_t = self._leaf(bias)
        n, c = x.data.shape[:2]
        k, _c2, r, s = weight.data.shape
        dtype = x.data.dtype
        o = self.tape.slot_of[id(rec.out)]
        values = self.plan._values

        # Measured gate: a dead set published for this weight AND a probe
        # that proved the live-channel kernels bit-identical and profitable
        # at this exact signature (repro.tensor.sparse.conv_gate_for; None
        # with sparse_compute off and for every conv whose form is not the
        # window gather).  The decision is memoized per (signature, dead
        # set), so the memory planner's sizer/assembler double build and any
        # plan rebuild within the interval see the same verdict.
        gate = _sparse.conv_gate_for(w_t.data, x.data, stride, padding)

        alloc = self._allocator(rec)
        ks = _conv.ConvKernels(
            x.data.shape, w_t.data, stride, padding, dtype, alloc,
            bias=b_t.data if b_t is not None else None,
            dead=gate.ds if gate is not None else None,
            remat=self.mem is not None, backward=self.keep_ctx,
            row_stable=self.row_stable and not self.keep_ctx)
        if self.keep_ctx:
            ks.backward(alloc, need_dx)
        self.plan._conv_forms.append((x.data.shape, w_t.data.shape, stride,
                                      padding, ks.form))
        y4 = ks.y4
        if gate is None:
            conv = ks.fwd
        else:
            # Per-step guards around the live kernels; any failure runs the
            # dense kernels of the same set, on the same buffers, so the
            # plan stays valid.
            ds, w4 = gate.ds, w_t.data
            state, stats = _sparse.StepState(), _sparse.STATS
            skipped = (c - ds.in_live.size) * r * s

            def conv(xr: np.ndarray) -> None:
                if state.enabled and _sparse.weights_dead(w4, ds):
                    ks.fwd_live(xr)
                    stats.fwd_sparse_steps += 1
                    stats.skipped_cols += skipped
                else:
                    # Sticky: a revived dead channel makes every later
                    # sparse step unsound, so the conv drops to dense for
                    # the rest of this plan's life (the next publish
                    # rebuilds it).
                    state.enabled = False
                    ks.fwd(xr)
                    stats.fwd_dense_fallbacks += 1

        def fwd() -> None:
            conv(rd_x())
            values[o] = y4
        if not self.keep_ctx:
            return fwd, None

        dense_dw, dense_dx = ks.dw, ks.dx
        if gate is None:
            weight_grad = dense_dw
        else:
            def weight_grad(xr: np.ndarray, g3: np.ndarray) -> np.ndarray:
                # Compacts to the published live rows -- the GEMM shape the
                # gate's parity probe ran -- which is exact while the
                # published dead rows of dy (zero BN gamma on a killed
                # channel) and the dead in-channels of x are exactly zero.
                if gate.use_dw and state.enabled and not (
                        _sparse.runs_any_ch(g3, ds.out_dead_runs)
                        or _sparse.runs_any_ch(xr, ds.in_dead_runs)):
                    stats.dw_sparse_steps += 1
                    return ks.dw_live(xr, g3, ds.out_live_runs)
                stats.dw_dense_steps += 1
                return dense_dw(xr, g3)

        def dw_part(g: np.ndarray) -> None:
            _give_grad(w_t, weight_grad(rd_x(), g.reshape(n, k, -1)))
            if b_t is not None:
                _give_grad(b_t, ks.db(g))

        dx_part = None
        if need_dx:
            sink_x = self._sink_donate(x)
            if gate is not None and gate.use_dx and ks.dx_live is not None:
                def dx_part(g: np.ndarray) -> None:
                    if state.enabled:
                        sink_x(ks.dx_live(g))
                        stats.dx_sparse_steps += 1
                    else:
                        sink_x(dense_dx(g))
            else:
                def dx_part(g: np.ndarray) -> None:
                    sink_x(dense_dx(g))
        return fwd, self._conv_backward(rec, dw_part, dx_part, ks.stage_dy)


class StepPlan:
    """A captured step, replayable as a flat list of kernel thunks.

    ``kind == "train"`` plans run forward + loss + backward and leave
    parameter gradients exactly where the eager step would (``param.grad``);
    ``kind == "forward"`` plans run inference only.  A plan is bound to the
    capture-time batch shape, engine configuration, and parameter shapes —
    :meth:`invalid_reason` performs the cheap per-replay stationarity check.
    """

    def __init__(self, kind: str, n_slots: int, input_slot: int):
        self.kind = kind
        self.n_slots = n_slots
        self._input_slot = input_slot
        self._values: List[Optional[np.ndarray]] = [None] * n_slots
        self._grads: List[Optional[np.ndarray]] = [None] * n_slots
        self._ctxs: List[object] = [None] * n_slots
        self._tbox: List[object] = [None]
        self._fwd: List[Callable[[], None]] = []
        self._bwd: List[Callable[[], None]] = []
        self._logits_slot = -1
        self._loss_slot = -1
        self._leaf_shapes: List[Tuple[Tensor, tuple]] = []
        self._n_ops = 0
        #: the arena planner backing this plan's buffers (None when the
        #: plan was built unplanned — mem_plan off or planner fallback)
        self._mem = None
        #: level-scheduled replay (:mod:`repro.tensor.parallel`): thunks
        #: grouped into dependency levels, or None for serial replay.
        #: ``_bwd`` always holds the flat serial order regardless.
        self._levels: Optional[List[List[Callable[[], None]]]] = None
        self._level_names: Optional[List[List[str]]] = None
        #: serial plans: op kind of each ``_fwd`` / ``_bwd`` thunk, in order
        self._thunk_kinds: Tuple[List[str], List[str]] = ([], [])
        #: serial plans: per ``_fwd`` thunk, the index into ``_bwd`` of the
        #: thunk that differentiates it (None: its backward never runs)
        self._bwd_of: List[Optional[int]] = []
        #: ``(x_shape, w_shape, stride, padding, form)`` per conv, op order
        self._conv_forms: List[tuple] = []
        self._workers = 1
        self._schedule = None
        self.generation = ws.PLAN_GENERATION
        self.engine_sig = ws.config.plan_signature()
        #: forward plans captured with the per-sample Linear lowering
        #: (see Tape.finalize_forward) — the serving tier's contract bit
        self.row_stable = False
        #: pinned plans skip the global generation check (see pin())
        self.pinned = False
        #: buffers released via release_buffers(); replay must fail loudly
        self._released = False

    # -- serving lifecycle -------------------------------------------------
    def pin(self) -> "StepPlan":
        """Exempt this plan from global-generation invalidation.

        The serving tier registers many models; every ``load_state_dict``
        bumps the *global* plan generation, which would purge model A's
        plans whenever model B loads.  A pinned plan trusts its owner (the
        serve registry) to guarantee the captured model is frozen — the
        engine-signature and parameter-shape checks still apply, only the
        generation comparison is skipped.  Never pin a training plan.
        """
        self.pinned = True
        return self

    def release_buffers(self) -> None:
        """Deterministically free this plan's buffers (serve eviction).

        Drops the thunk lists (whose closures hold the arena views) and
        releases the memplan arena handle, so ``live_arena_count()`` and
        the arena bytes fall immediately — no GC pass needed.  The plan is
        dead afterwards: any replay raises ``RuntimeError``.
        """
        self._released = True
        self._fwd = []
        self._bwd = []
        self._levels = None
        self._level_names = None
        self._values = [None] * self.n_slots
        self._grads = [None] * self.n_slots
        self._ctxs = [None] * self.n_slots
        self._leaf_shapes = []
        if self._mem is not None:
            self._mem.release()
            self._mem = None

    # -- validation --------------------------------------------------------
    def invalid_reason(self) -> Optional[str]:
        """Cheap stationarity check; ``None`` means the plan may replay."""
        if self._released:
            return "plan buffers released (plan was evicted)"
        if not self.pinned and self.generation != ws.PLAN_GENERATION:
            return "model reconfigured since capture"
        if ws.config.plan_signature() != self.engine_sig:
            return "engine configuration changed since capture"
        for t, shape in self._leaf_shapes:
            if t.data.shape != shape:
                return "parameter shape changed since capture"
        return None

    # -- memory reporting --------------------------------------------------
    def mem_metrics(self) -> Optional[Dict[str, float]]:
        """The arena planner's exact footprint numbers, or ``None`` for
        an unplanned build."""
        return self._mem.metrics() if self._mem is not None else None

    def conv_forms(self) -> List[tuple]:
        """``(x_shape, w_shape, stride, padding, form)`` of every conv in op
        order — which lowering each layer got (``ConvKernels.form``)."""
        return list(self._conv_forms)

    # -- replay ------------------------------------------------------------
    def run(self, x: np.ndarray, targets: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
        """Replay one training step; returns ``(loss, logits)`` arrays.

        The caller is responsible for ``optimizer.zero_grad()`` before and
        ``optimizer.step()`` after, exactly as around an eager step.
        """
        if self._released:
            raise RuntimeError("cannot replay a released plan")
        t0 = time.perf_counter()
        values = self._values
        grads = self._grads
        values[self._input_slot] = x
        self._tbox[0] = targets
        if self._levels is not None:
            self._run_levels()
            loss = values[self._loss_slot]
            logits = values[self._logits_slot]
        else:
            for f in self._fwd:
                f()
            loss = values[self._loss_slot]
            logits = values[self._logits_slot]
            grads[self._loss_slot] = np.ones_like(loss)
            for b in self._bwd:
                b()
        self._drop_step_refs()
        STATS.replays += 1
        STATS.replay_seconds += time.perf_counter() - t0
        return loss, logits

    def _drop_step_refs(self) -> None:
        """Drop activation references eagerly (peak-memory parity with the
        eager engine, whose graph teardown frees them in backward())."""
        values, grads, ctxs = self._values, self._grads, self._ctxs
        for i in range(self.n_slots):
            values[i] = None
            grads[i] = None
            ctxs[i] = None
        self._tbox[0] = None

    def _run_levels(self) -> None:
        """Level-scheduled replay on the worker pool.

        Each level's thunks are mutually independent (the schedule proves
        it); levels execute in order with a barrier between them.  BLAS is
        clamped to one thread per call while the pool is active so the
        replay threads don't oversubscribe cores that BLAS already uses.
        """
        pool = _par.get_pool(self._workers)
        stats = _par.STATS
        t0 = time.perf_counter()
        level_times: List[float] = []
        with pool.caller_lock, _blas.limit_blas_threads(1) as limited:
            stats.blas_limited = limited
            for level in self._levels:
                lt0 = time.perf_counter()
                pool.run_level(level)
                level_times.append(time.perf_counter() - lt0)
        stats.replays += 1
        stats.levels_run += len(self._levels)
        stats.thunks_run += sum(len(lvl) for lvl in self._levels)
        stats.replay_seconds += time.perf_counter() - t0
        stats.last_levels = [(len(self._levels[i]), dt)
                             for i, dt in enumerate(level_times)]

    def replay_timed(self, x: np.ndarray, targets: np.ndarray):
        """Replay one training step on the calling thread, timing every
        thunk.  Returns ``(loss, logits, seconds)``; the replay computes
        exactly what :meth:`run` computes.

        Serial plan: ``seconds`` is a flat list of ``(op kind, "fwd" |
        "bwd", seconds)`` in execution order — the per-thunk attribution of
        a step (which conv backward, which pool, dominates it).

        Parallel plan: executes level by level (nodes of one level in
        order) — level order is a valid topological order, and, unlike the
        flat serial order, respects the level-timed arena layout the plan
        was packed against.  ``seconds[i][j]`` is the wall time of level
        ``i``'s ``j``-th thunk — the per-level input for the benchmark's
        critical-path schedule model.
        """
        if self._released:
            raise RuntimeError("cannot replay a released plan")
        if self.kind != "train":
            raise RuntimeError("replay_timed requires a training plan")
        values = self._values
        grads = self._grads
        values[self._input_slot] = x
        self._tbox[0] = targets
        clock = time.perf_counter
        if self._levels is not None:
            seconds: list = []
            for level in self._levels:
                times = []
                for fn in level:
                    t = clock()
                    fn()
                    times.append(clock() - t)
                seconds.append(times)
        else:
            fwd_kinds, bwd_kinds = self._thunk_kinds
            seconds = []
            for kind, f in zip(fwd_kinds, self._fwd):
                t = clock()
                f()
                seconds.append((kind, "fwd", clock() - t))
            grads[self._loss_slot] = np.ones_like(values[self._loss_slot])
            for kind, b in zip(bwd_kinds, self._bwd):
                t = clock()
                b()
                seconds.append((kind, "bwd", clock() - t))
        loss = values[self._loss_slot]
        logits = values[self._logits_slot]
        self._drop_step_refs()
        return loss, logits, seconds

    def conv_profile(self, x: np.ndarray, targets: np.ndarray):
        """:meth:`conv_forms` joined with one :meth:`replay_timed` step of a
        serial training plan.  Returns ``(loss, logits, rows)`` with one
        ``(x_shape, w_shape, stride, padding, form, fwd_s, bwd_s)`` per conv
        in op order — where a step's conv time goes, by shape and form
        (``bwd_s`` is 0.0 for a conv whose backward never runs)."""
        if self._levels is not None:
            raise RuntimeError("conv_profile requires a serial plan")
        loss, logits, seconds = self.replay_timed(x, targets)
        fwd_s, bwd_s = seconds[:len(self._fwd)], seconds[len(self._fwd):]
        convs = [i for i, kind in enumerate(self._thunk_kinds[0])
                 if kind == "conv2d"]
        rows = [(*form, fwd_s[i][2],
                 0.0 if self._bwd_of[i] is None else bwd_s[self._bwd_of[i]][2])
                for form, i in zip(self._conv_forms, convs)]
        return loss, logits, rows

    def run_forward(self, x: np.ndarray) -> np.ndarray:
        """Replay a forward-only plan; returns the logits array."""
        if self._released:
            raise RuntimeError("cannot replay a released plan")
        t0 = time.perf_counter()
        values = self._values
        values[self._input_slot] = x
        for f in self._fwd:
            f()
        logits = values[self._logits_slot]
        for i in range(self.n_slots):
            values[i] = None
        STATS.replays += 1
        STATS.replay_seconds += time.perf_counter() - t0
        return logits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StepPlan(kind={self.kind!r}, ops={self._n_ops}, "
                f"slots={self.n_slots}, generation={self.generation})")


class PlanCache:
    """Shape-keyed LRU plan cache.  A caller (:func:`train_step`,
    :func:`forward_step`, the serving registry) replays what :meth:`lookup`
    returns; on ``None`` it stays eager if :meth:`sealed` names a recorded
    capture failure, and otherwise captures and hands the outcome to
    :meth:`store` (a failure is sealed, so an uncompilable step is attempted
    once per stationary phase, not once per batch).  ``lookup`` itself drops
    a stale plan (``StepPlan.invalid_reason``) and reads it as a miss.

    Stale-generation entries are purged on *every* access — ``store``
    included, so a store right after a reconfiguration can never re-stamp
    dead plans (and their arenas) with the new generation.  ``max_entries``
    bounds growth across dynamic-batch tails by LRU eviction.

    ``pinned=True`` (the serving registry's per-model cache) pins what it
    stores and skips the generation sweep — those plans' validity is scoped
    to the registry entry, and loading one model must not purge another's
    hot plans.  Such a cache owns its plans' buffers and releases every
    plan it drops (stale, evicted or cleared) at once.
    """

    def __init__(self, max_entries: int = 8, pinned: bool = False) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        #: ``key -> StepPlan`` or ``key -> str`` (a sealed failure reason)
        self._plans: Dict[tuple, object] = {}
        self._generation = ws.PLAN_GENERATION
        self.max_entries = max_entries
        self.pinned = pinned
        self.evictions = 0
        # Lookups/stores may race a generation bump from another thread
        # (ws.invalidate_plans is atomic on its side); RLock because
        # lookup/store call purge_stale internally.
        self._lock = threading.RLock()

    def purge_stale(self) -> None:
        """Drop every entry captured before the current plan generation."""
        if self.pinned:
            return
        with self._lock:
            gen = ws.plan_generation()
            if self._generation != gen:
                self._plans.clear()
                self._generation = gen

    def _discard(self, value) -> None:
        if self.pinned and isinstance(value, StepPlan):
            value.release_buffers()

    def _get(self, key: tuple):
        """The live entry for ``key`` (LRU-refreshed); caller holds the
        lock."""
        self.purge_stale()
        value = self._plans.pop(key, None)
        if value is not None:
            self._plans[key] = value
        return value

    def lookup(self, key: tuple) -> Optional[StepPlan]:
        """The replayable plan cached for ``key``, or ``None`` (a stale
        plan is dropped here, so the caller recaptures)."""
        with self._lock:
            value = self._get(key)
            if not isinstance(value, StepPlan):
                return None
            if value.invalid_reason() is not None:
                del self._plans[key]
                self._discard(value)
                return None
            return value

    def sealed(self, key: tuple) -> Optional[str]:
        """The capture-failure reason recorded for ``key`` in this
        generation, or ``None`` — a retry would fail the same way."""
        with self._lock:
            value = self._get(key)
            return value if isinstance(value, str) else None

    def store(self, key: tuple, plan: Optional[StepPlan],
              reason: Optional[str]) -> Optional[str]:
        """Record a capture's outcome as the capture returns it: the plan,
        or (``plan is None``) its failure ``reason``, sealed.  Returns the
        sealed reason, ``None`` when a plan was stored."""
        if plan is not None:
            reason = None
            if self.pinned:
                plan.pin()
        else:
            reason = reason or "capture failed"
        with self._lock:
            self.purge_stale()
            self._plans.pop(key, None)
            self._plans[key] = plan if plan is not None else reason
            while len(self._plans) > self.max_entries:
                self._discard(self._plans.pop(next(iter(self._plans))))
                self.evictions += 1
        return reason

    def clear(self, release: bool = False) -> None:
        """Drop every entry; ``release=True`` also frees plan buffers
        (the serve registry's evict path)."""
        with self._lock:
            if release:
                for v in self._plans.values():
                    if isinstance(v, StepPlan):
                        v.release_buffers()
            self._plans.clear()

    def keys(self) -> List[tuple]:
        """Snapshot of cached keys in LRU order (oldest first)."""
        with self._lock:
            return list(self._plans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


# ---------------------------------------------------------------------------
# capture helpers
# ---------------------------------------------------------------------------
def capture_training_step(model, x: np.ndarray, targets: np.ndarray):
    """Run one eager forward+loss under capture and compile a train plan.

    Returns ``(plan, loss, logits, reason)``.  The forward/loss here *are*
    the step's eager computation (capture only observes), so on success or
    failure alike :func:`train_step` finishes the step with
    ``loss.backward()``: the captured batch is bit-identical to an
    uncaptured one.
    """
    t0 = time.perf_counter()
    # cross_entropy re-wraps targets with np.asarray; pre-wrap here so the
    # recorded attrs object is identical and finalize's identity check holds.
    targets = np.asarray(targets)
    tape = Tape()
    with tape:
        xt = tape.input(x)
        logits = model(xt)
        loss = cross_entropy(logits, targets)
    plan, reason = tape.finalize_training(loss, logits, targets)
    STATS.count_capture(plan, reason, t0)
    return plan, loss, logits, reason


def capture_forward(model, x: np.ndarray, *, row_stable: bool = False):
    """Run one inference forward under capture; compile a forward plan.

    Returns ``(plan, logits, reason)``.  Runs under ``no_grad`` (building a
    graph that is never backwarded would strand pooled staging buffers).
    ``row_stable=True`` requests the serving lowering — see
    :meth:`Tape.finalize_forward`.  Note the returned ``logits`` come from
    the eager capture pass (standard lowering); a caller needing
    row-stable outputs must replay the plan.
    """
    t0 = time.perf_counter()
    tape = Tape()
    with tape, no_grad():
        xt = tape.input(x)
        logits = model(xt)
    plan, reason = tape.finalize_forward(logits, row_stable=row_stable)
    STATS.count_capture(plan, reason, t0)
    return plan, logits, reason


# ---------------------------------------------------------------------------
# the compiled-step protocol
# ---------------------------------------------------------------------------
def train_step(model, x: np.ndarray, y: np.ndarray,
               plans: Optional[PlanCache] = None,
               capture: Callable = capture_training_step):
    """One training step's forward, loss and backward, as the trainer, the
    simulated shards and the elastic workers all run it.

    Replays the plan ``plans`` holds for the shapes and dtypes of ``x`` and
    ``y``.  On a miss, ``capture`` runs the step's eager forward under
    capture, its outcome is stored, and the step is finished by backprop
    through the recorded tensors — never a second forward: BN running stats
    were already updated.  A sealed key, or ``plans=None``, runs eager.
    Returns ``(loss, logits, captured)``; ``captured`` is ``(plan, sealed
    reason)`` when this call captured, else ``None``.  The caller zeroes
    gradients before and steps the optimizer after.
    """
    key = (x.shape, x.dtype.str, y.shape, y.dtype.str)
    if plans is not None:
        plan = plans.lookup(key)
        if plan is not None:
            loss, logits = plan.run(x, y)
            return float(loss), logits, None
        if not plans.sealed(key):
            plan, loss_t, logits_t, reason = capture(model, x, y)
            captured = plan, plans.store(key, plan, reason)
            loss_t.backward()
            return loss_t.item(), logits_t.data, captured
    logits_t = model(Tensor(x))
    loss_t = cross_entropy(logits_t, y)
    loss_t.backward()
    return loss_t.item(), logits_t.data, None


def forward_step(model, x: np.ndarray, plans: Optional[PlanCache] = None,
                 capture: Callable = capture_forward):
    """:func:`train_step`'s protocol for an inference forward (the model in
    the caller's mode): returns ``(logits, captured)``."""
    key = (x.shape, x.dtype.str)
    if plans is not None:
        plan = plans.lookup(key)
        if plan is not None:
            return plan.run_forward(x), None
        if not plans.sealed(key):
            plan, logits_t, reason = capture(model, x)
            return logits_t.data, (plan, plans.store(key, plan, reason))
    with no_grad():
        return model(Tensor(x)).data, None


class BatchPadder:
    """Reusable zero-padded staging buffer for one (batch, sample) shape.

    The serving tier replays a cached plan of batch ``B`` on ``n <= B``
    requests by staging them into this buffer; rows ``[n:B)`` are zeros.
    Under the row-stable plan contract pad rows cannot perturb real rows,
    but they are still re-zeroed after a larger previous stage so replay
    inputs are a pure function of the current request group.
    """

    def __init__(self, batch: int, sample_shape: tuple, dtype):
        self.batch = int(batch)
        self.sample_shape = tuple(sample_shape)
        self.buf = np.zeros((self.batch,) + self.sample_shape,
                            dtype=np.dtype(dtype))
        self._dirty = 0
        self.staged = 0
        self.padded_rows = 0

    def stage(self, x: np.ndarray) -> np.ndarray:
        """Copy ``x`` (``n <= batch`` samples) in; return the full buffer."""
        n = x.shape[0]
        if n > self.batch:
            raise ValueError(f"group of {n} exceeds padder batch {self.batch}")
        if tuple(x.shape[1:]) != self.sample_shape:
            raise ValueError(f"sample shape {x.shape[1:]} != "
                             f"{self.sample_shape}")
        self.buf[:n] = x
        if self._dirty > n:
            self.buf[n:self._dirty] = 0
        self._dirty = n
        self.staged += 1
        self.padded_rows += self.batch - n
        return self.buf

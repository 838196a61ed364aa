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
- every input's gradient goes through one sink bound at build time, into
  its gradient slot or straight into a leaf's ``.grad``: the step's first
  write keeps the kernel's array, later writes ``+=`` into it — the
  accumulation ``Tensor._accumulate_donated`` performs.  A plan's kernels
  hand over plan buffers or fresh arrays (every row donates), and a
  ``None`` gradient is skipped, as eager skips it.

Capture mechanics
-----------------
``Tape`` installs itself as the calling thread's tape
(``repro.tensor.tensor._STATE.tape``); each op that thread runs then appends
a record ``(kind, inputs, out, attrs)`` (``functional.apply_op``, the one
maker of graph nodes, runs every op from its row of ``ops.table.OPS``; the
attrs are the eager driver's, so a conv's ``need_dx`` rides along).
``Tensor.__init__`` reports every tensor created during capture, so an input
produced by an *unhooked* op is recognized and the capture fails closed —
the trainer falls back to eager with a logged reason rather than baking a
stale constant into the plan.  One :meth:`Tape.finalize` compiles either
plan kind: one ``_PlanBuilder`` drives the same rows over the records in
three passes, *stage* (the rows' buffer requests), *pack* (the arena
layout) and *bind* (readers, sinks and thunks over arena views).

Invalidation
------------
Plans record ``workspace.PLAN_GENERATION`` at capture.  The counter is
bumped by ``workspace.invalidate()``, which pruning reconfiguration calls,
and so does ``Module.load_state_dict`` (checkpoint restore reassigns
``param.data``, so array references captured by a plan go stale).  Dynamic
mini-batch growth needs no hook: the input shape is part of the plan-cache key
(:func:`train_step`), so a new batch size simply captures a new plan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..profiler import Counters, register
from . import memplan as _mp
from . import workspace as ws
from .ops import conv as _conv
from .ops import table as _table
from .functional import cross_entropy
from .tensor import _STATE, Tensor, backward_order, no_grad

__all__ = ["Tape", "StepPlan", "PlanCache", "PlanStats", "STATS",
           "train_step", "forward_step",
           "capture_training_step", "capture_forward"]


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

    def grad_end(self, x: Tensor) -> Optional[int]:
        """Last use of a gradient buffer donated toward ``x``: the
        backward thunk of x's producer consumes it.  ``None`` means the
        buffer escapes the plan entirely — a leaf gradient kept as the
        leaf's ``.grad`` for the optimizer — and must stay a private
        allocation."""
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
        training-mode BN (without fused ReLU) qualify; ReLU-family
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
            return training and not relu_flag
        return False


class _Record:
    """One captured op invocation (static arguments only — no step state)."""

    __slots__ = ("kind", "inputs", "out", "attrs")

    def __init__(self, kind: str, inputs: tuple, out: Tensor, attrs):
        self.kind = kind
        self.inputs = inputs
        self.out = out
        self.attrs = attrs


def _drop(arr) -> None:
    """The gradient sink of an absent input or a leaf that takes none."""


class Tape:
    """Records one eager step's op sequence for compilation into a plan.

    Use as a context manager around the step's forward (+ loss) code; the
    ops the same thread runs record themselves via the ``_STATE.tape`` hook.
    Recording never changes the computation — the captured step's own
    results are the eager results, and the plan only takes effect on
    *subsequent* steps.
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
        self._active = False

    # -- capture lifecycle -------------------------------------------------
    def __enter__(self) -> "Tape":
        if _STATE.tape is not None:
            raise RuntimeError("a capture tape is already active")
        _STATE.tape = self
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        _STATE.tape = None
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

    def record(self, kind: str, inputs: tuple, out: Tensor, attrs) -> None:
        """Hook from the functional layer: append one op invocation."""
        rec = _Record(kind, inputs, out, attrs)
        self.records.append(rec)
        self._new_slot(out)
        self.rec_of[id(out)] = rec

    def _new_slot(self, t: Tensor) -> int:
        slot = self._n_slots
        self._n_slots += 1
        self.slot_of[id(t)] = slot
        self._keepalive.append(t)
        return slot

    # -- finalization ------------------------------------------------------
    def finalize(self, logits: Tensor, loss: Optional[Tensor] = None,
                 targets: Optional[np.ndarray] = None,
                 row_stable: bool = False
                 ) -> Tuple[Optional["StepPlan"], Optional[str]]:
        """Compile the recorded step: a training plan (forward, ``loss`` on
        ``targets``, backward) when a loss is given, else a forward-only
        plan ending at ``logits``.  Returns ``(plan, None)`` or ``(None,
        reason)``.

        A training capture finalizes *after* the forward and loss but
        *before* ``loss.backward()``, which destroys the closures and parent
        links walked here to replicate the eager backward order.
        ``row_stable=True`` (forward plans) lowers batch-sensitive ops (the
        final Linear's GEMM) per sample, so every row of the replayed
        logits is bit-equal to a batch-1 eager forward of that sample alone
        — the serving tier's padding/tail contract.
        """
        if self._active:
            return None, "tape still active (exit the capture context first)"
        if any(id(t) not in self.slot_of for t in (logits, loss)
               if t is not None):
            return None, "loss/logits were not produced by recorded ops"
        if len(self._input_slots) != 1:
            return None, "exactly one marked input is required"
        bwd_nodes: List[Tensor] = []
        if loss is not None:
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
            if any(id(n) not in self.slot_of for n in bwd_nodes):
                return None, "graph contains an op without a capture hook"
        kind = "train" if loss is not None else "forward"
        builder = _PlanBuilder(self, _Lifetimes(self, bwd_nodes, kind, loss,
                                                logits), row_stable)
        try:
            builder.stage()
            builder.pack()
            plan = builder.bind(bwd_nodes, loss, logits)
            builder.mem.finish()
        except _CaptureError as e:
            return None, str(e)
        except _mp.PlanError as e:
            return None, f"memory plan: {e}"
        return plan, None


class _PlanBuilder:
    """Compiles tape records into zero-argument forward/backward thunks, in
    three passes over the records, each run once by :meth:`Tape.finalize`.

    :meth:`stage` runs every row's build-time stage with the planner in
    *plan* mode, so each plan-owned buffer request records a
    :class:`memplan.Slab` with its liveness interval; :meth:`pack` solves
    the layout and materializes the arena; :meth:`bind` runs the stages
    again in *serve* mode, handed the identical request sequence's arena
    views, and builds the readers, sinks and thunks of the one
    :class:`StepPlan` over them.  A ``PlanError`` (a divergence included)
    fails the capture closed.

    Thunks close over the plan's preallocated ``values`` / ``grads`` /
    ``ctxs`` lists, so replay is a straight-line sequence of kernel calls
    with list indexing — no dict lookups, no Tensor objects, no closures
    allocated per step.
    """

    def __init__(self, tape: Tape, lt: _Lifetimes, row_stable: bool):
        self.tape = tape
        self.keep_ctx = lt.kind == "train"
        self.row_stable = row_stable
        self._leaves: Dict[int, Tensor] = {}
        #: liveness intervals and the arena planner they feed
        self.lt = lt
        self.mem = _mp.MemPlanner()
        self.plan: Optional[StepPlan] = None        # filled by bind()

    # -- the three passes ----------------------------------------------------
    def stage(self) -> None:
        """Pass 1: every record's row stage, its buffer requests recorded
        as slabs; nothing is read, sunk or bound into a thunk."""
        for rec in self.tape.records:
            op = _table.OPS.get(rec.kind)
            if op is None:
                raise _CaptureError(f"no plan builder for op {rec.kind!r}")
            self._stage(rec, op)

    def pack(self) -> None:
        """Pass 2: lay the recorded slabs out in one arena."""
        self.mem.solve()
        self.mem.materialize()

    def bind(self, bwd_nodes: List[Tensor], loss: Optional[Tensor],
             logits: Tensor) -> "StepPlan":
        """Pass 3: the stages again, now over arena views, and the thunks
        of the one plan over what they return.  An input no recorded op
        produced fails the capture closed here (:meth:`_resolve`)."""
        tape = self.tape
        plan = self.plan = StepPlan(kind=self.lt.kind, n_slots=tape._n_slots,
                                    input_slot=tape._input_slots[0])
        plan.row_stable = self.row_stable
        pairs = {id(rec): self.build(rec) for rec in tape.records}
        bwd_recs = [tape.rec_of[id(n)] for n in bwd_nodes]
        plan._fwd = [pairs[id(rec)][0] for rec in tape.records]
        plan._bwd = [pairs[id(rec)][1] for rec in bwd_recs]
        plan._thunk_kinds = ([rec.kind for rec in tape.records],
                             [rec.kind for rec in bwd_recs])
        plan._logits_slot = tape.slot_of[id(logits)]
        plan._loss_slot = tape.slot_of[id(loss)] if loss is not None else -1
        plan._leaf_shapes = [(t, t.data.shape) for t in self._leaves.values()]
        convs = [(r.inputs[0].data.shape, r.inputs[1].data.shape, *r.attrs[:2])
                 for r in tape.records if r.kind == "conv2d"]
        plan._conv_forms = [
            (xs, ws, st, p, _conv.conv_form(*xs[2:], *ws[2:], st, p, ws[0]))
            for xs, ws, st, p in convs]
        plan._n_ops = len(tape.records)
        plan._mem = self.mem
        return plan

    # -- the per-record allocator ------------------------------------------
    def _allocator(self, rec: _Record, alias: Tuple[int, ...] = ()):
        """``alloc(shape, tag, phase, dtype=None)`` for ``rec``: the one way a
        thunk's buffers are requested, by every row's ``buffers`` stage.
        ``phase`` names the buffer class, which fixes its liveness interval
        on the step timeline (:class:`_Lifetimes`):

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
        the price of a per-call border memset and a backward re-gather (the
        one gather schedule eager runs too).  A gradient
        that escapes the plan (a leaf's, kept by the optimizer) is a private
        ``np.empty``.  Tags get the op kind as a prefix; ``dtype`` defaults
        to the first input's.
        """
        tape, lt, mem = self.tape, self.lt, self.mem
        x_dtype = rec.inputs[0].data.dtype

        def alloc(shape: tuple, tag: str, phase: str,
                  dtype=None) -> np.ndarray:
            dtype = x_dtype if dtype is None else dtype
            tag = rec.kind + "." + tag
            if phase == "dx" or phase.startswith("grad"):
                x = rec.inputs[0 if phase == "dx" else int(phase[4:])]
                end = lt.grad_end(x)
                if end is None:
                    return np.empty(shape, dtype)
                lo, hi = lt.bwd_window(rec)
                return mem.alloc(shape, dtype,
                                 min(hi if phase == "dx" else lo, end), end,
                                 tag=tag)
            tick = lt.fwd_t[id(rec)]
            if phase == "out":
                alias_slot = next((tape.slot_of[id(rec.inputs[i])]
                                   for i in alias
                                   if lt.alias_ok(rec.inputs[i], rec)), None)
                return mem.alloc(shape, dtype, tick, lt.value_end(rec),
                                 tag=tag, out_slot=tape.slot_of[id(rec.out)],
                                 alias_slot=alias_slot)
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

    def _param(self, t: Optional[Tensor]) -> Optional[np.ndarray]:
        """The array of a parameter input (a row's ``params``), bound once:
        it must be a graph leaf, or the capture fails closed."""
        if t is None:
            return None
        slot, leaf = self._resolve(t)
        if slot is not None:
            raise _CaptureError("parameter input is not a graph leaf")
        return leaf.data

    # -- the gradient sink ---------------------------------------------------
    def _sink(self, t: Optional[Tensor]) -> Callable[[np.ndarray], None]:
        """Where a backward kernel's gradient toward input ``t`` goes: its
        gradient slot, or a leaf's ``.grad`` itself.  The step's first write
        keeps the array and later writes ``+=`` into it, as
        ``Tensor._accumulate_donated`` does.  Keeping is sound because every
        row donates: a kernel hands a plan either a plan buffer live until
        the slot's consumer has read it or a fresh array.  An absent input,
        or a leaf that takes no gradient, drops it."""
        if t is None:
            return _drop
        slot, leaf = self._resolve(t)
        if leaf is not None:
            if not leaf.requires_grad:
                return _drop

            def sink(arr: np.ndarray) -> None:
                if leaf.grad is None:
                    leaf.grad = arr
                else:
                    leaf.grad += arr
            return sink
        grads = self.plan._grads

        def sink(arr: np.ndarray) -> None:
            g0 = grads[slot]
            if g0 is None:
                grads[slot] = arr
            else:
                g0 += arr
        return sink

    # -- thunk builders ----------------------------------------------------
    # A builder maps plan buffers, value/gradient slots and sinks onto
    # kernels stated under ``repro.tensor.ops`` -- the same ones the eager
    # layer runs.  It defines no arithmetic of its own.  There is one: the
    # row driver, for every op of ``ops.table.OPS``.
    def _stage(self, rec: _Record, op: "_table.Op"):
        """``(params, bufs)`` of one record: its row's ``params`` bound
        (:meth:`_param`), and what the row's build-time stage returned over
        this record's allocator (``None`` without a stage)."""
        inputs = rec.inputs
        params = tuple(self._param(t)
                       for t in inputs[len(inputs) - len(op.params):])
        if op.buffers is None:
            return params, None
        return params, op.buffers(
            [None if t is None else t.data.shape for t in inputs],
            [None if t is None else t.data.dtype for t in inputs],
            params, rec.attrs, self.keep_ctx, self.row_stable,
            self._allocator(rec, op.alias))

    def build(self, rec: _Record):
        """``(fwd, bwd)`` thunks of one record: from ``_build_<kind>`` where
        one exists (the loss), else from the op's table row."""
        builder = getattr(self, "_build_" + rec.kind, None)
        if builder is not None:
            return builder(rec)
        return self._from_row(rec, _table.OPS[rec.kind], [rec.attrs])

    def _from_row(self, rec: _Record, op: "_table.Op", attrs: list):
        """The row driver: thunks derived from a table row.

        The row's stage (:meth:`_stage`) binds the ``params``; every other
        input is read per step, and both kernels get the stage's buffers.
        The forward's output is the slot value, what it saves rides in the
        slot's ctx, and each input's gradient goes to its :meth:`_sink` (a
        ``None`` gradient is skipped).  ``attrs`` is a one-element box read
        per step (the loss's targets change every step; nothing else does).
        """
        inputs = rec.inputs
        n_read = len(inputs) - len(op.params)
        readers = [self._reader(t) for t in inputs[:n_read]]
        params, bufs = self._stage(rec, op)
        o = self.tape.slot_of[id(rec.out)]
        values, ctxs, grads = (self.plan._values, self.plan._ctxs,
                               self.plan._grads)
        forward, backward, save = op.forward, op.backward, self.keep_ctx
        if n_read == 1:     # the conv, pools, ReLU: no per-step argument list
            rd, = readers

            def fwd() -> None:
                values[o], ctxs[o] = forward(rd(), *params, attrs[0], save,
                                             bufs)
        else:
            def fwd() -> None:
                values[o], ctxs[o] = forward(*[r() for r in readers],
                                             *params, attrs[0], save, bufs)
        if not save:
            return fwd, None
        sinks = [self._sink(t) for t in inputs]

        def bwd() -> None:
            g = grads[o]
            if g is None:
                return
            for sink, dg in zip(sinks, backward(g, ctxs[o], attrs[0], bufs)):
                if dg is not None:
                    sink(dg)
            ctxs[o] = None
            grads[o] = None
        return fwd, bwd

    def _build_cross_entropy(self, rec: _Record):
        # The table row, with the step's targets in place of the captured.
        return self._from_row(rec, _table.OPS["cross_entropy"],
                              self.plan._tbox)


class StepPlan:
    """A captured step, replayable as a flat list of kernel thunks.

    ``kind == "train"`` plans run forward + loss + backward and leave
    parameter gradients exactly where the eager step would (``param.grad``);
    ``kind == "forward"`` plans run inference only.  A plan is bound to the
    capture-time batch shape and parameter shapes — :meth:`invalid_reason`
    performs the cheap per-replay stationarity check.
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
        #: the arena planner backing this plan's buffers (set by ``bind``)
        self._mem: _mp.MemPlanner
        #: op kind of each ``_fwd`` / ``_bwd`` thunk, in order
        self._thunk_kinds: Tuple[List[str], List[str]] = ([], [])
        #: ``(x_shape, w_shape, stride, padding, form)`` per conv, op order
        self._conv_forms: List[tuple] = []
        self.generation = ws.PLAN_GENERATION
        #: forward plans captured with the per-sample Linear lowering
        #: (see Tape.finalize) — the serving tier's contract bit
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
        parameter-shape check still applies, only the generation comparison
        is skipped.  Never pin a training plan.
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
        self._values = [None] * self.n_slots
        self._grads = [None] * self.n_slots
        self._ctxs = [None] * self.n_slots
        self._leaf_shapes = []
        self._mem.release()

    # -- validation --------------------------------------------------------
    def invalid_reason(self) -> Optional[str]:
        """Cheap stationarity check; ``None`` means the plan may replay."""
        if self._released:
            return "plan buffers released (plan was evicted)"
        if not self.pinned and self.generation != ws.PLAN_GENERATION:
            return "model reconfigured since capture"
        for t, shape in self._leaf_shapes:
            if t.data.shape != shape:
                return "parameter shape changed since capture"
        return None

    # -- memory reporting --------------------------------------------------
    def mem_metrics(self) -> Dict[str, float]:
        """The arena planner's exact footprint numbers."""
        return self._mem.metrics()

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

    def replay_timed(self, x: np.ndarray, targets: np.ndarray):
        """Replay one training step, timing every thunk.  Returns ``(loss,
        logits, seconds)``; the replay computes exactly what :meth:`run`
        computes.  ``seconds`` is a flat list of ``(op kind, "fwd" | "bwd",
        seconds)`` in execution order — the per-thunk attribution of a step
        (which conv backward, which pool, dominates it)."""
        if self._released:
            raise RuntimeError("cannot replay a released plan")
        if self.kind != "train":
            raise RuntimeError("replay_timed requires a training plan")
        values = self._values
        grads = self._grads
        values[self._input_slot] = x
        self._tbox[0] = targets
        clock = time.perf_counter
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

    def run_forward(self, x: np.ndarray) -> np.ndarray:
        """Replay a forward-only plan; returns the logits array."""
        if self._released:
            raise RuntimeError("cannot replay a released plan")
        t0 = time.perf_counter()
        self._values[self._input_slot] = x
        for f in self._fwd:
            f()
        logits = self._values[self._logits_slot]
        self._drop_step_refs()
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
        # The serving tier's dispatch thread looks up and stores while
        # another thread may bump the generation (ws.invalidate is atomic on
        # its side); RLock because lookup/store call purge_stale internally.
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
    plan, reason = tape.finalize(logits, loss, targets)
    STATS.count_capture(plan, reason, t0)
    return plan, loss, logits, reason


def capture_forward(model, x: np.ndarray, *, row_stable: bool = False):
    """Run one inference forward under capture; compile a forward plan.

    Returns ``(plan, logits, reason)``.  Runs under ``no_grad`` (building a
    graph that is never backwarded would keep every op's saved arrays alive).
    ``row_stable=True`` requests the serving lowering — see
    :meth:`Tape.finalize`.  Note the returned ``logits`` come from
    the eager capture pass (standard lowering); a caller needing
    row-stable outputs must replay the plan.
    """
    t0 = time.perf_counter()
    tape = Tape()
    with tape, no_grad():
        xt = tape.input(x)
        logits = model(xt)
    plan, reason = tape.finalize(logits, row_stable=row_stable)
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


"""Ring allreduce, executed step by step, and the gradient exchange of a
data-parallel step.

The cost *model* lives in :mod:`repro.costmodel.comm`; this module performs
the algorithm over NumPy buffers, one per worker, in a real ring's schedule
(P-1 reduce-scatter then P-1 allgather steps) and counts the bytes moved.
:func:`ring_allreduce` is the monolithic reference; the step protocol —
:class:`GradPayload` (the flat layout and its buckets) and
:class:`BucketExchange` (bucket-by-bucket reduction with
:func:`ring_allreduce_range`, bit-identical to the reference) — is stated
in ``docs/ARCHITECTURE.md`` §12.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..profiler import PROFILER, Counters, register


@dataclass
class AllreduceTrace:
    """What one allreduce moved."""

    steps: int
    bytes_per_worker: float


@dataclass
class CommStats(Counters):
    """Gradient-exchange accounting (surfaced as ``PROFILER.summary()
    ["_comm"]``).

    ``overlapped_seconds`` is reduce time spent while workers were still
    computing (bucket launched from inside a compiled plan); ``tail_seconds``
    is reduce time after every worker had already finished — pure serial
    tail.  ``overlap_ratio`` is their quotient: 1.0 means every byte moved
    under compute, 0.0 is the fully serial schedule.
    """

    bucket_launches: int = 0
    buckets_reduced: int = 0
    bytes_moved: int = 0
    reduce_seconds: float = 0.0
    overlapped_seconds: float = 0.0
    tail_seconds: float = 0.0
    wait_seconds: float = 0.0        # coordinator idle, waiting on workers
    stall_seconds: float = 0.0       # straggler gap (first done -> last done)

    @property
    def overlap_ratio(self) -> float:
        total = self.overlapped_seconds + self.tail_seconds
        return self.overlapped_seconds / total if total > 0 else 0.0

    def derived(self) -> Dict[str, float]:
        return {"overlap_ratio": self.overlap_ratio}


#: Process-wide exchange counters (coordinator side).  Always on — the
#: counters are a handful of adds per step.
COMM_STATS = register("_comm", CommStats())


def ring_allreduce(buffers: List[np.ndarray], average: bool = True
                   ) -> AllreduceTrace:
    """All-reduce ``buffers`` in place (one buffer per worker).

    Every buffer must have identical shape/dtype.  After the call, all
    buffers hold the elementwise sum (or mean) of the inputs.
    """
    p = len(buffers)
    if p == 0:
        raise ValueError("no workers")
    if p == 1:
        return AllreduceTrace(0, 0.0)
    shape = buffers[0].shape
    dtype = buffers[0].dtype
    for b in buffers:
        if b.shape != shape or b.dtype != dtype:
            raise ValueError("mismatched buffers")

    flat = [b.reshape(-1) for b in buffers]
    n = flat[0].size
    bounds = np.linspace(0, n, p + 1).astype(int)
    chunks = [slice(bounds[i], bounds[i + 1]) for i in range(p)]
    moved = 0

    # reduce-scatter: after step s, worker r owns the running sum of chunk
    # (r - s) mod p
    for step in range(p - 1):
        for r in range(p):
            src = r
            dst = (r + 1) % p
            ci = (r - step) % p
            flat[dst][chunks[ci]] += flat[src][chunks[ci]]
            moved += (bounds[ci + 1] - bounds[ci]) * dtype.itemsize \
                if hasattr(dtype, "itemsize") else 0
    # allgather: circulate the fully reduced chunks
    for step in range(p - 1):
        for r in range(p):
            src = r
            dst = (r + 1) % p
            ci = (r + 1 - step) % p
            flat[dst][chunks[ci]] = flat[src][chunks[ci]]
            moved += (bounds[ci + 1] - bounds[ci]) * dtype.itemsize \
                if hasattr(dtype, "itemsize") else 0

    if average:
        inv = 1.0 / p
        for f in flat:
            f *= inv
    return AllreduceTrace(2 * (p - 1), moved / p)


def ring_allreduce_range(flats: List[np.ndarray], total: int, lo: int,
                         hi: int, average: bool = True) -> int:
    """Ring-allreduce elements ``[lo, hi)`` of length-``total`` payloads.

    ``flats`` are the workers' *full* flat payload buffers (or prefixes of
    at least ``hi`` elements).  The reduction is restricted to the range
    but follows the **global** role decomposition of the ``total``-element
    ring: each monolithic chunk's per-element association chain is replayed
    on its intersection with the range, so reducing a payload bucket by
    bucket — in any bucket order — yields bit-identical results to one
    :func:`ring_allreduce` over the whole payload, for any worker count.

    Returns the **total** bytes moved (integer, summed across workers):
    bucket totals sum exactly to the monolithic ring's total, so a caller
    dividing the accumulated sum by the worker count once reproduces
    ``AllreduceTrace.bytes_per_worker`` to the bit — the accounting stays
    comparable no matter how the payload was cut.
    """
    p = len(flats)
    if p == 0:
        raise ValueError("no workers")
    if not (0 <= lo <= hi <= total):
        raise ValueError(f"bad range [{lo}, {hi}) for payload {total}")
    if p == 1 or hi == lo:
        return 0
    itemsize = flats[0].dtype.itemsize
    bounds = np.linspace(0, total, p + 1).astype(int)
    moved = 0
    for ci in range(p):
        s0, s1 = max(lo, int(bounds[ci])), min(hi, int(bounds[ci + 1]))
        if s0 >= s1:
            continue
        seg = slice(s0, s1)
        # reduce-scatter chain for role ci (identical order to the
        # monolithic schedule: chunk ci moves along ranks ci -> ci-1)
        for s in range(p - 1):
            src = (ci + s) % p
            dst = (src + 1) % p
            flats[dst][seg] += flats[src][seg]
        # allgather chain: circulate the fully reduced segment
        for s in range(p - 1):
            src = (ci + s - 1) % p
            dst = (ci + s) % p
            flats[dst][seg] = flats[src][seg]
        moved += 2 * (p - 1) * (s1 - s0) * itemsize
    if average:
        inv = 1.0 / p
        for f in flats:
            f[lo:hi] *= inv
    return moved


@dataclass(frozen=True)
class GradBucket:
    """One contiguous slice of the flat gradient payload, exchanged as a
    unit.  ``param_indices`` are positions in ``model.parameters()`` order;
    the element range ``[lo, hi)`` covers exactly those parameters."""

    index: int                       # launch order (backward order)
    lo: int                          # first payload element (inclusive)
    hi: int                          # one past the last payload element
    param_indices: Tuple[int, ...]

    @property
    def elems(self) -> int:
        return self.hi - self.lo


def plan_gradient_buckets(sizes: Sequence[int], offsets: Sequence[int],
                          groups: Sequence[Tuple[int, int]],
                          target_bytes: int, itemsize: int = 4
                          ) -> List[GradBucket]:
    """Group gradient sinks into size-targeted, module-aligned buckets.

    ``groups`` lists ``(first, last)`` parameter-index ranges (half-open)
    that must stay in one bucket — module boundaries, so a layer's weight
    and bias always travel together.  Groups are consumed in *reverse*
    order (backward produces the last module's gradients first) and
    accumulated until a bucket reaches ``target_bytes``.  Because the
    groups are consecutive in parameters order, every bucket is one
    contiguous payload range — the layout the zero-copy mmap segments and
    :func:`ring_allreduce_range` both require.
    """
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    buckets: List[GradBucket] = []
    pend: List[Tuple[int, int]] = []
    pend_bytes = 0

    def flush() -> None:
        nonlocal pend, pend_bytes
        if not pend:
            return
        i0 = min(g[0] for g in pend)
        i1 = max(g[1] for g in pend)
        idxs = tuple(range(i0, i1))
        lo = int(offsets[i0])
        hi = int(offsets[i1 - 1]) + int(sizes[i1 - 1])
        buckets.append(GradBucket(len(buckets), lo, hi, idxs))
        pend, pend_bytes = [], 0

    for g0, g1 in reversed(list(groups)):
        pend.append((g0, g1))
        pend_bytes += sum(int(sizes[i]) for i in range(g0, g1)) * itemsize
        if pend_bytes >= target_bytes:
            flush()
    flush()
    return buckets


def module_param_groups(model) -> List[Tuple[int, int]]:
    """Parameter-index ranges per owning module, in parameters order.

    Derived purely from ``named_parameters`` traversal, so a worker replica
    and the coordinator compute identical groups from identical models.
    """
    groups: List[Tuple[int, int]] = []
    last = None
    for idx, (name, _p) in enumerate(model.named_parameters()):
        mod = name.rsplit(".", 1)[0] if "." in name else ""
        if mod != last:
            groups.append((idx, idx + 1))
            last = mod
        else:
            groups[-1] = (groups[-1][0], idx + 1)
    return groups


#: default gradient-bucket payload target in bytes (module-aligned; the last
#: bucket takes the remainder)
BUCKET_BYTES = 65536


class GradPayload:
    """The flat float32 payload of one model's parameters or gradients.

    ``params`` (in ``model.parameters()`` order) lie end to end: ``sizes``
    and ``offsets`` in elements, ``total`` elements in all.  With more than
    one worker the payload is cut into module-aligned ``buckets``
    (:func:`plan_gradient_buckets`).  Everything derives from model
    structure, so the coordinator, every replica and the simulation build
    identical layouts independently.
    """

    def __init__(self, model, workers: int,
                 bucket_bytes: int = BUCKET_BYTES):
        self.params = model.parameters()
        self.sizes = [p.data.size for p in self.params]
        self.offsets = list(np.cumsum([0] + self.sizes[:-1]))
        self.total = int(sum(self.sizes))
        self.buckets: List[GradBucket] = plan_gradient_buckets(
            self.sizes, self.offsets, module_param_groups(model),
            bucket_bytes) if workers > 1 else []

    def views(self, flat: np.ndarray) -> List[Tuple[object, np.ndarray]]:
        """``(param, view)`` pairs: ``flat`` at each parameter's offset,
        shaped like the parameter."""
        return [(p, flat[off:off + sz].reshape(p.data.shape))
                for p, off, sz in zip(self.params, self.offsets, self.sizes)]

    def sinks(self, flat: np.ndarray) -> Dict[int, np.ndarray]:
        """The map ``workspace.bind_grad_sinks`` takes: compiled backward
        then writes each gradient straight into ``flat``."""
        return {id(p): v for p, v in self.views(flat)}

    def pack_params(self, flat: np.ndarray) -> None:
        for p, v in self.views(flat):
            v[...] = p.data

    def unpack_params(self, flat: np.ndarray) -> None:
        for p, v in self.views(flat):
            p.data[...] = v

    def pack_grads(self, flat: np.ndarray, skip=frozenset()) -> None:
        """Write every gradient (zeros where there is none) into ``flat``,
        except those of the parameters whose ids are in ``skip`` — the ones
        already written there through a bound sink."""
        for p, v in self.views(flat):
            if id(p) not in skip:
                v[...] = 0.0 if p.grad is None else p.grad

    def unpack_grads(self, flat: np.ndarray) -> None:
        for p, v in self.views(flat):
            p.grad = v.copy()


class BucketExchange:
    """One attempt at reducing ``flats``, one flat payload per participant,
    bucket by bucket with :func:`ring_allreduce_range`.

    :meth:`on_bucket` reduces a bucket once every participant has posted
    it (the overlapped path), :meth:`finish` reduces the rest (the tail).
    ``moved`` stays an integer total until the one divide in
    :meth:`finish`, so ``comm_bytes_per_worker`` equals the monolithic
    ``AllreduceTrace.bytes_per_worker`` however the payload was cut.  A lone
    participant exchanges nothing.  The accounting lands in
    :data:`COMM_STATS`.
    """

    def __init__(self, payload: GradPayload, flats: List[np.ndarray],
                 tag: tuple = ()):
        self.payload = payload
        self.flats = flats
        self.tag = tag
        self.k = len(flats)
        self.posted: Dict[int, Set[int]] = {}
        self.reduced: Set[int] = set()
        self.moved = 0
        self.seconds = 0.0
        self.overlapped = 0

    def on_bucket(self, rank: int, msg: tuple) -> None:
        """``rank`` announced ``msg == (*tag, bucket index)`` after writing
        that bucket of its payload; a message of any other tag is ignored."""
        if self.k < 2 or tuple(msg[:-1]) != self.tag:
            return
        index = msg[-1]
        ranks = self.posted.setdefault(index, set())
        ranks.add(rank)
        COMM_STATS.bucket_launches += 1
        if len(ranks) == self.k and index not in self.reduced:
            self._reduce(self.payload.buckets[index], overlapped=True)

    def finish(self) -> float:
        """Reduce every bucket still pending; ``comm_bytes_per_worker``."""
        if self.k < 2:
            return 0.0
        for b in self.payload.buckets:
            if b.index not in self.reduced:
                self._reduce(b, overlapped=False)
        comm_bytes = self.moved / self.k
        if PROFILER.enabled:
            PROFILER.add("dist_allreduce", self.seconds, int(comm_bytes))
        return comm_bytes

    def _reduce(self, b: GradBucket, overlapped: bool) -> None:
        t0 = time.perf_counter()
        moved = ring_allreduce_range(self.flats, self.payload.total, b.lo,
                                     b.hi, average=True)
        dt = time.perf_counter() - t0
        self.reduced.add(b.index)
        self.moved += moved
        self.seconds += dt
        COMM_STATS.buckets_reduced += 1
        COMM_STATS.bytes_moved += moved // self.k
        COMM_STATS.reduce_seconds += dt
        if overlapped:
            self.overlapped += 1
            COMM_STATS.overlapped_seconds += dt
        else:
            COMM_STATS.tail_seconds += dt

"""Ring allreduce — an executable, step-faithful simulation.

The cost *model* lives in :mod:`repro.costmodel.comm`; this module actually
performs the algorithm over in-process "workers" (NumPy buffers), chunk by
chunk, in the same schedule a real NCCL ring would use: P-1 reduce-scatter
steps followed by P-1 allgather steps, each moving one 1/P-sized chunk per
worker.  Besides producing bit-identical reduced gradients for the
data-parallel trainer, it returns the per-worker byte count actually moved,
which the tests cross-check against the closed-form ``2 (P-1)/P · payload``.

Bucketed execution
------------------
:func:`ring_allreduce_range` reduces one contiguous *bucket* of a larger
payload while staying bit-identical to a single monolithic ring over the
whole payload.  The trick is that the association order of the running sums
in a ring depends only on an element's global chunk ("role") index — chunk
``ci``'s reduce-scatter chain is always ``w[ci+1] += w[ci]``,
``w[ci+2] += w[ci+1]``, ...  So a bucket is reduced by intersecting it with
the *global* role boundaries (``linspace`` over the full payload) and
replaying each role's chain on the intersection.  Any partition of the
payload into buckets, launched in any order, therefore produces exactly the
bits of the monolithic call — which is what lets the elastic engine overlap
per-bucket exchanges with backward compute without giving up its
bit-exactness contract (see ``tests/distributed/test_comm_overlap.py``).

:func:`plan_gradient_buckets` groups gradient sinks into size-targeted
buckets at module boundaries, ordered the way backward produces them (last
module first), so each bucket's exchange can launch as soon as its last
gradient lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass
class AllreduceTrace:
    """What one allreduce moved."""

    steps: int
    bytes_per_worker: float


@dataclass
class CommStats:
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

    def reset(self) -> None:
        self.bucket_launches = self.buckets_reduced = 0
        self.bytes_moved = 0
        self.reduce_seconds = self.overlapped_seconds = 0.0
        self.tail_seconds = self.wait_seconds = self.stall_seconds = 0.0

    @property
    def overlap_ratio(self) -> float:
        total = self.overlapped_seconds + self.tail_seconds
        return self.overlapped_seconds / total if total > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"bucket_launches": self.bucket_launches,
                "buckets_reduced": self.buckets_reduced,
                "bytes_moved": self.bytes_moved,
                "reduce_seconds": self.reduce_seconds,
                "overlapped_seconds": self.overlapped_seconds,
                "tail_seconds": self.tail_seconds,
                "wait_seconds": self.wait_seconds,
                "stall_seconds": self.stall_seconds,
                "overlap_ratio": self.overlap_ratio}


#: Process-wide exchange counters (coordinator side).  Always on — the
#: counters are a handful of adds per step.
COMM_STATS = CommStats()


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


def allreduce_gradient_lists(grads: List[List[np.ndarray]],
                             average: bool = True) -> float:
    """All-reduce per-worker gradient lists (one list per worker) in place.

    Gradients are flattened into a single payload per worker so the ring
    schedule matches what a fused NCCL call would do.  Returns per-worker
    bytes moved.

    Every worker must present the same number of gradients with matching
    shapes — a lagging replica that missed a reconfiguration resync would
    otherwise be silently misreduced (or die in an opaque reshape deep in
    the ring), so the mismatch is rejected up front with a clear error.
    """
    p = len(grads)
    if p == 0:
        raise ValueError("no workers")
    ref = grads[0]
    for w, worker in enumerate(grads[1:], start=1):
        if len(worker) != len(ref):
            raise ValueError(
                f"allreduce gradient lists disagree: worker 0 has "
                f"{len(ref)} gradients but worker {w} has {len(worker)} — "
                f"replicas are out of sync (missed reconfiguration resync?)")
        for i, (a, b) in enumerate(zip(ref, worker)):
            if a.shape != b.shape:
                raise ValueError(
                    f"allreduce gradient lists disagree at index {i}: "
                    f"worker 0 has shape {a.shape} but worker {w} has "
                    f"{b.shape} — replicas are out of sync (missed "
                    f"reconfiguration resync?)")
    if p == 1:
        return 0.0
    sizes = [g.size for g in ref]
    payloads = [np.concatenate([g.reshape(-1) for g in worker])
                for worker in grads]
    trace = ring_allreduce(payloads, average=average)
    for worker, payload in zip(grads, payloads):
        offset = 0
        for g, size in zip(worker, sizes):
            g[...] = payload[offset:offset + size].reshape(g.shape)
            offset += size
    return trace.bytes_per_worker

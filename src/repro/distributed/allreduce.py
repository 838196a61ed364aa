"""Ring allreduce, executed step by step, and the gradient exchange of a
data-parallel step.

The cost *model* lives in :mod:`repro.costmodel.comm`; this module performs
the algorithm over NumPy buffers, one per worker, in a real ring's schedule
(P-1 reduce-scatter then P-1 allgather steps) and counts the bytes moved.
The step protocol — every participant packs its gradients into the flat
:class:`GradPayload` after backward, then one :func:`exchange` averages the
payloads in place — is stated in ``docs/ARCHITECTURE.md`` §9 and §12.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

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
    ["_comm"]``)."""

    allreduces: int = 0
    bytes_moved: int = 0             # per worker
    reduce_seconds: float = 0.0
    wait_seconds: float = 0.0        # coordinator idle, waiting on workers
    stall_seconds: float = 0.0       # straggler gap (first done -> last done)


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
    bounds = np.linspace(0, n, p + 1).astype(int).tolist()
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
            moved += (bounds[ci + 1] - bounds[ci]) * dtype.itemsize
    # allgather: circulate the fully reduced chunks
    for step in range(p - 1):
        for r in range(p):
            src = r
            dst = (r + 1) % p
            ci = (r + 1 - step) % p
            flat[dst][chunks[ci]] = flat[src][chunks[ci]]
            moved += (bounds[ci + 1] - bounds[ci]) * dtype.itemsize

    if average:
        inv = 1.0 / p
        for f in flat:
            f *= inv
    return AllreduceTrace(2 * (p - 1), moved / p)


class GradPayload:
    """The flat float32 payload of one model's parameters or gradients.

    ``params`` (in ``model.parameters()`` order) lie end to end: ``sizes``
    and ``offsets`` in elements, ``total`` elements in all.  Everything
    derives from model structure, so the coordinator, every replica and the
    simulation build identical layouts independently.
    """

    def __init__(self, model):
        self.params = model.parameters()
        self.sizes = [p.data.size for p in self.params]
        self.offsets = list(np.cumsum([0] + self.sizes[:-1]))
        self.total = int(sum(self.sizes))

    def views(self, flat: np.ndarray) -> List[Tuple[object, np.ndarray]]:
        """``(param, view)`` pairs: ``flat`` at each parameter's offset,
        shaped like the parameter."""
        return [(p, flat[off:off + sz].reshape(p.data.shape))
                for p, off, sz in zip(self.params, self.offsets, self.sizes)]

    def pack_params(self, flat: np.ndarray) -> None:
        for p, v in self.views(flat):
            v[...] = p.data

    def unpack_params(self, flat: np.ndarray) -> None:
        for p, v in self.views(flat):
            p.data[...] = v

    def pack_grads(self, flat: np.ndarray) -> None:
        """Write every gradient (zeros where there is none) into ``flat``,
        overwriting all of it."""
        for p, v in self.views(flat):
            v[...] = 0.0 if p.grad is None else p.grad

    def unpack_grads(self, flat: np.ndarray) -> None:
        for p, v in self.views(flat):
            p.grad = v.copy()


def exchange(flats: List[np.ndarray]) -> float:
    """Average ``flats``, one packed payload per participant, in place with
    one :func:`ring_allreduce`; returns ``comm_bytes_per_worker``.

    A lone participant exchanges nothing.  The accounting lands in
    :data:`COMM_STATS` and, when profiling, in ``dist_allreduce``.
    """
    if len(flats) == 1:
        return 0.0
    t0 = time.perf_counter()
    comm_bytes = ring_allreduce(flats).bytes_per_worker
    dt = time.perf_counter() - t0
    COMM_STATS.allreduces += 1
    COMM_STATS.bytes_moved += int(comm_bytes)
    COMM_STATS.reduce_seconds += dt
    if PROFILER.enabled:
        PROFILER.add("dist_allreduce", dt, int(comm_bytes))
    return comm_bytes

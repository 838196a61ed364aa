"""Dynamic request batcher — a pure, virtual-time dispatch state machine.

The batcher decides *which* queued single-image requests form the next
batch.  Dispatch is work-conserving: whenever the worker is free it takes
whatever is queued, so batch size follows load by itself — a lone request
at light load runs alone, and a queue that built up behind a running batch
leaves as full batches.  It owns no clock and no threads — every method
takes ``now`` explicitly — so tests drive it deterministically in virtual
time and the :class:`~repro.serve.server.InferenceServer` drives it with
``time.perf_counter``.

``latency_budget`` is the queue-wait objective, not a hold: a request
dispatched later than ``arrival + latency_budget`` is counted in
:attr:`DynamicBatcher.late`.

Dispatch invariants (pinned by ``tests/serve/test_batcher_property.py``):

- every submitted request appears in exactly one dispatched batch;
- no batch exceeds ``max_batch`` and never mixes models;
- per-model FIFO order is preserved within and across batches;
- batches leave in the arrival order of their oldest request, across
  models;
- an idle worker never leaves a request queued, so a request waits only
  for the batches taken ahead of it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["BatcherConfig", "DynamicBatcher"]


@dataclass(frozen=True)
class BatcherConfig:
    #: hard cap on requests coalesced into one plan replay
    max_batch: int = 8
    #: seconds a request may wait queued before it counts as late
    latency_budget: float = 0.005

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.latency_budget < 0.0:
            raise ValueError("latency_budget must be >= 0")


class DynamicBatcher:
    """Work-conserving queue coalescing requests per model.

    Items are opaque to the batcher; callers attach whatever state they
    need (the server enqueues request objects carrying futures).
    """

    def __init__(self, config: Optional[BatcherConfig] = None):
        self.config = config or BatcherConfig()
        #: model name -> FIFO of (arrival_time, item)
        self._queues: Dict[str, Deque[Tuple[float, object]]] = {}
        self.submitted = 0
        self.dispatched = 0
        self.batches = 0
        #: requests dispatched later than ``arrival + latency_budget``
        self.late = 0

    # -- producer side -----------------------------------------------------
    def submit(self, model: str, item: object, now: float) -> None:
        """Queue one request for ``model`` arriving at time ``now``."""
        self._queues.setdefault(model, deque()).append((now, item))
        self.submitted += 1

    # -- consumer side -----------------------------------------------------
    def pending(self) -> int:
        """Total requests queued across all models."""
        return sum(len(q) for q in self._queues.values())

    def take(self, now: float) -> Optional[Tuple[str, List[object]]]:
        """Pop the next batch for a worker that is free at time ``now``:
        up to ``max_batch`` requests, FIFO, of the model whose oldest
        queued request arrived first.  Returns ``(model, [item, ...])``,
        or ``None`` when nothing is queued."""
        if not self._queues:
            return None
        model = min(self._queues, key=lambda m: self._queues[m][0][0])
        q = self._queues[model]
        taken = [q.popleft() for _ in range(min(len(q),
                                                self.config.max_batch))]
        if not q:
            del self._queues[model]
        budget = self.config.latency_budget
        self.late += sum(1 for t, _ in taken if now - t > budget)
        self.batches += 1
        self.dispatched += len(taken)
        return model, [item for _, item in taken]

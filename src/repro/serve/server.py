"""Threaded inference front-end: futures in, batched plan replays out.

:class:`InferenceServer` accepts single-image requests from any thread,
queues them in a :class:`~repro.serve.batcher.DynamicBatcher`, and runs
one worker thread that, whenever it is free, takes the next batch of
whatever is queued and runs it through the
:class:`~repro.serve.registry.ModelRegistry`.  A single worker serializes
plan replays, which keeps the (mutable-buffer) StepPlans thread-safe
without per-replay locking; batching, not parallelism, is the
throughput lever here.

Responses are copies — a fulfilled future's array is never aliased to
plan buffers, so callers may hold results across subsequent replays.
"""
from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from .batcher import BatcherConfig, DynamicBatcher
from .registry import ModelRegistry

__all__ = ["ServeFuture", "InferenceServer"]


class ServeFuture:
    """Minimal completion handle for one submitted request."""

    __slots__ = ("_event", "_result", "_error", "t_submit", "t_done")

    def __init__(self, t_submit: float):
        self._event = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.t_submit = t_submit
        self.t_done: Optional[float] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        if not self._event.wait(timeout):
            raise TimeoutError("request not completed within timeout")
        if self._error is not None:
            raise self._error
        return self._result

    # worker side
    def _fulfill(self, value: np.ndarray, now: float) -> None:
        self._result = value
        self.t_done = now
        self._event.set()

    def _fail(self, error: BaseException, now: float) -> None:
        self._error = error
        self.t_done = now
        self._event.set()


class _Request:
    __slots__ = ("sample", "future")

    def __init__(self, sample: np.ndarray, future: ServeFuture):
        self.sample = sample
        self.future = future


class InferenceServer:
    """Dynamic-batching server over a model registry.

    ``clock`` is injectable for tests; it must be monotonic.  The worker
    never sleeps while a request is queued, so ``close()`` drains every
    queued request before the worker exits and no submitted future is ever
    abandoned.  ``latency_budget`` only counts ``late`` dispatches.
    """

    def __init__(self, registry: ModelRegistry, max_batch: int = 8,
                 latency_budget: float = 0.005, clock=time.perf_counter):
        self.registry = registry
        self.batcher = DynamicBatcher(
            BatcherConfig(max_batch=max_batch, latency_budget=latency_budget))
        self._clock = clock
        self._cond = threading.Condition()
        self._closed = False
        self.batches_run = 0
        self.requests_served = 0
        self.errors = 0
        self.batch_sizes: Dict[int, int] = {}
        self._worker = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-worker")
        self._worker.start()

    # -- client side -------------------------------------------------------
    def submit(self, model: str, sample: np.ndarray) -> ServeFuture:
        """Queue one sample (``(C, H, W)`` or ``(1, C, H, W)``); returns a
        future resolving to that sample's ``(classes,)`` logits row."""
        sample = np.asarray(sample)
        if sample.ndim == 4 and sample.shape[0] == 1:
            sample = sample[0]
        now = self._clock()
        fut = ServeFuture(now)
        with self._cond:
            if self._closed:
                raise RuntimeError("server is closed")
            self.batcher.submit(model, _Request(sample, fut), now)
            self._cond.notify()
        return fut

    def infer(self, model: str, sample: np.ndarray,
              timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(model, sample).result(timeout)

    def close(self) -> None:
        """Stop accepting requests, drain the queue, join the worker."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify()
        self._worker.join()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        return {"batches_run": self.batches_run,
                "requests_served": self.requests_served,
                "errors": self.errors,
                "batch_sizes": dict(sorted(self.batch_sizes.items())),
                "submitted": self.batcher.submitted,
                "late": self.batcher.late,
                "mean_batch": (self.requests_served / self.batches_run
                               if self.batches_run else 0.0)}

    # -- worker side -------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self.batcher.pending():
                    if self._closed:
                        return
                    self._cond.wait()
                model, requests = self.batcher.take(self._clock())
            self._execute(model, requests)

    def _execute(self, model: str, requests: List[_Request]) -> None:
        """Run one batch as one registry call per ``(shape, dtype)`` group,
        in arrival order: a malformed request fails only its own group, and
        no sample is stacked with (and cast to) another dtype."""
        groups: Dict[tuple, List[_Request]] = {}
        for r in requests:
            groups.setdefault((r.sample.shape, r.sample.dtype), []).append(r)
        for group in groups.values():
            try:
                out = self.registry.run(
                    model, np.stack([r.sample for r in group]))
                now = self._clock()
                for i, r in enumerate(group):
                    r.future._fulfill(np.array(out[i], copy=True), now)
            except BaseException as e:  # noqa: BLE001 - forwarded to futures
                now = self._clock()
                self.errors += 1
                for r in group:
                    r.future._fail(e, now)
                continue
            self.batches_run += 1
            n = len(group)
            self.requests_served += n
            self.batch_sizes[n] = self.batch_sizes.get(n, 0) + 1

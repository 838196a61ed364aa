"""The data-parallel step (paper Sec. 2.2 "Distributed Training"), run
sequentially in process.

K logical workers each process a shard of the global mini-batch through one
*shared* model (weights are identical across workers by construction, as
in synchronous data parallelism).  The step protocol — shards
(:func:`shard_bounds`) that each run ``compile.train_step``, payload and
exchange (:mod:`repro.distributed.allreduce`) and the result
(:meth:`StepResult.aggregate`) — is stated in ``docs/ARCHITECTURE.md`` §9
and §12; :class:`~repro.distributed.elastic.ElasticEngine` runs the same
protocol with its shards in forked workers, bit for bit.

Batch norm uses *per-shard* statistics, like per-GPU BN in real distributed
training (not synchronized BN), so results differ slightly from
single-device large-batch training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..nn.module import Module
from ..tensor.blas import limit_blas_threads, per_worker_threads
from ..tensor.compile import PlanCache, train_step
from .allreduce import GradPayload, exchange


def shard_bounds(n: int, workers: int) -> np.ndarray:
    """``k + 1`` ascending sample bounds splitting a batch of ``n`` into
    ``k = min(workers, n)`` contiguous shards.

    With more workers than samples the surplus workers sit the step out: an
    empty shard must not change the gradient-average divisor.  An empty
    batch is an error — there is nothing to compute a gradient from.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n == 0:
        raise ValueError("empty batch (len(x) == 0): no gradients to compute")
    return np.linspace(0, n, min(workers, n) + 1).astype(int)


@dataclass
class StepResult:
    """One data-parallel training step's outputs."""

    loss: float
    accuracy: float
    comm_bytes_per_worker: float

    @classmethod
    def aggregate(cls, shards: Iterable[Tuple[float, int, int]],
                  comm_bytes_per_worker: float, **telemetry) -> "StepResult":
        """The step's result from per-shard ``(loss, correct, size)`` in
        shard order.  ``size`` is a :func:`shard_bounds` difference
        (``np.int64``), which makes the loss an ``np.float64`` on every
        path: under NEP 50 a Python float and a same-valued ``np.float64``
        promote differently against float32 arrays."""
        total_loss, total_correct, n = 0.0, 0, 0
        for loss, correct, size in shards:
            total_loss += loss * size
            total_correct += correct
            n += int(size)
        return cls(total_loss / n, total_correct / n, comm_bytes_per_worker,
                   **telemetry)


def data_parallel_step(model: Module, x: np.ndarray, y: np.ndarray,
                       workers: int, plans: Optional[PlanCache] = None
                       ) -> Tuple[StepResult, List[np.ndarray]]:
    """Forward/backward a global batch split over ``workers`` shards.

    Each shard runs :func:`~repro.tensor.compile.train_step` through
    ``plans`` (eager without one), at the BLAS width a worker process of
    ``k`` participants gets (:func:`~repro.tensor.blas.per_worker_threads`):
    BLAS results may depend on the thread count, and the elastic engine's
    workers run at that width.  Leaves the *averaged* gradients in each
    parameter's ``.grad`` (ready for ``optimizer.step()``).  Returns the
    step result and the sizes of the participating workers' shards (see
    :func:`shard_bounds`).
    """
    bounds = shard_bounds(len(x), workers)
    k = len(bounds) - 1
    payload = GradPayload(model)
    flats = np.empty((k, payload.total), np.float32)
    shards = []
    with limit_blas_threads(per_worker_threads(k)):
        for flat, lo, hi in zip(flats, bounds, bounds[1:]):
            xb, yb = x[lo:hi], y[lo:hi]
            model.zero_grad()
            loss, logits, _ = train_step(model, xb, yb, plans)
            payload.pack_grads(flat)
            shards.append((loss, int((logits.argmax(1) == yb).sum()),
                           hi - lo))
    comm_bytes = exchange(list(flats))
    payload.unpack_grads(flats[0])
    return StepResult.aggregate(shards, comm_bytes), list(np.diff(bounds))

"""Simulated data-parallel training step (paper Sec. 2.2 "Distributed Training").

K logical workers each process a shard of the global mini-batch through a
*shared* model replica (weights are identical across workers by construction,
exactly as in synchronous data parallelism), producing per-worker gradient
sets that are combined with the executable ring allreduce from
:mod:`repro.distributed.allreduce`.

Fidelity notes:
- Batch-norm uses *per-shard* statistics, like per-GPU BN in real distributed
  training (not synchronized BN) — so results differ slightly from
  single-device large-batch training, matching reality.
- Gradients are averaged across workers (each worker computes a mean loss
  over its shard), matching the standard "mean over global batch" update
  when shards are equal-sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn.module import Module
from ..tensor import Tensor
from ..tensor import functional as F
from .allreduce import COMM_STATS, allreduce_gradient_lists


@dataclass
class StepResult:
    """One data-parallel training step's outputs."""

    loss: float
    accuracy: float
    comm_bytes_per_worker: float


def data_parallel_step(model: Module, x: np.ndarray, y: np.ndarray,
                       workers: int,
                       loss_hook=None) -> Tuple[StepResult, List[np.ndarray]]:
    """Forward/backward a global batch split over ``workers`` shards.

    Leaves the *averaged* gradients in each parameter's ``.grad`` (ready for
    ``optimizer.step()``).  ``loss_hook(loss_tensor) -> float`` may add
    regularization terms per worker (e.g. group lasso; applied as gradient
    addition afterwards is the trainers' job — the hook here is for logging).

    ``workers`` is clamped to ``len(x)``: with more workers than samples
    some shards would be empty, and a skipped shard must not silently
    change the gradient-average divisor (every participating worker's
    shard carries equal weight).  An empty batch is an error — there is
    nothing to compute a gradient from.

    Returns the step result and the per-worker shard sizes (of the
    participating workers only).
    """
    n = len(x)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n == 0:
        raise ValueError("data_parallel_step got an empty batch "
                         "(len(x) == 0): no gradients to compute")
    workers = min(workers, n)
    params = model.parameters()
    shard_bounds = np.linspace(0, n, workers + 1).astype(int)

    per_worker_grads: List[List[np.ndarray]] = []
    total_loss = 0.0
    total_correct = 0
    for w in range(workers):
        lo, hi = shard_bounds[w], shard_bounds[w + 1]
        if hi <= lo:  # pragma: no cover - impossible after the clamp
            continue
        xb, yb = x[lo:hi], y[lo:hi]
        model.zero_grad()
        logits = model(Tensor(xb))
        loss = F.cross_entropy(logits, yb)
        loss.backward()
        total_loss += loss.item() * (hi - lo)
        total_correct += int((logits.data.argmax(1) == yb).sum())
        per_worker_grads.append(
            [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
             for p in params])

    if len(per_worker_grads) > 1:
        comm_bytes = allreduce_gradient_lists(per_worker_grads, average=True)
        COMM_STATS.bytes_moved += int(comm_bytes)
        reduced = per_worker_grads[0]
    else:
        comm_bytes = 0.0
        reduced = per_worker_grads[0]
    for p, g in zip(params, reduced):
        p.grad = g
    result = StepResult(total_loss / n, total_correct / n, comm_bytes)
    return result, list(np.diff(shard_bounds))

"""Dynamic mini-batch adjustment (paper Sec. 4.3, Fig. 9, Tab. 4).

After each pruning reconfiguration the training-context volume shrinks;
this adjuster re-reads the *modeled* per-iteration memory requirement
(:class:`~repro.costmodel.MemoryModel`, from tensor shapes alone) and
grows the per-worker mini-batch (in units of ``granularity`` samples) to
refill device memory.  When the batch grows by ratio ``r``, the learning
rate is scaled by the same ``r`` (the linear scaling rule, after Smith et
al. [19] — but applied *at any point* during training, which is the paper's
delta over that work).  The batch never shrinks: pruning only frees memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..costmodel.memory import MemoryModel, iteration_memory_bytes
from ..nn.graph import ModelGraph


@dataclass
class BatchAdjustment:
    """One adjustment decision."""

    old_batch: int
    new_batch: int
    lr_scale: float
    memory_bytes: float

    @property
    def changed(self) -> bool:
        return self.new_batch != self.old_batch


@dataclass
class DynamicBatchAdjuster:
    """Grows the mini-batch as pruning frees memory.

    Parameters
    ----------
    memory_model:
        Device capacity model.
    granularity:
        Batch step (the paper uses 32 samples/GPU).
    max_batch:
        Upper bound per worker (data-loader / generalization limits).
    lr_rule:
        ``"linear"`` (the paper's rule: the LR scales with the batch) or
        ``"none"`` (the LR stays put — the no-rescale ablation).
    """

    memory_model: MemoryModel
    granularity: int = 32
    max_batch: int = 1024
    lr_rule: str = "linear"
    history: List[BatchAdjustment] = field(default_factory=list)

    def propose(self, graph: ModelGraph, current_batch: int
                ) -> BatchAdjustment:
        """Decide the new per-worker batch after a reconfiguration."""
        fit = self.memory_model.max_batch(graph, self.granularity,
                                          ceiling=self.max_batch)
        new_batch = min(max(fit, current_batch), self.max_batch)
        if self.lr_rule == "linear":
            scale = new_batch / current_batch
        elif self.lr_rule == "none":
            scale = 1.0
        else:
            raise ValueError(f"unknown lr_rule {self.lr_rule!r}")
        adj = BatchAdjustment(
            current_batch, new_batch, scale,
            iteration_memory_bytes(graph, new_batch))
        self.history.append(adj)
        return adj

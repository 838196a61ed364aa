"""Data-parallel training: one step protocol (shard bounds, the flat
gradient payload each participant packs after backward, one ring-allreduce
exchange, the aggregated result) run by the in-process simulation and by
the elastic multi-process engine with fault injection, plus PruneTrain's
dynamic mini-batch adjustment."""

from .allreduce import (COMM_STATS, AllreduceTrace, CommStats, GradPayload,
                        exchange, ring_allreduce)
from .elastic import (ElasticEngine, ElasticStepResult, FailureEvent,
                      FaultAction, FaultPlan)
from .minibatch import BatchAdjustment, DynamicBatchAdjuster
from .worker import StepResult, data_parallel_step

__all__ = [
    "ring_allreduce", "AllreduceTrace", "CommStats", "COMM_STATS",
    "GradPayload", "exchange",
    "data_parallel_step", "StepResult",
    "ElasticEngine", "ElasticStepResult",
    "FaultPlan", "FaultAction", "FailureEvent",
    "DynamicBatchAdjuster", "BatchAdjustment",
]

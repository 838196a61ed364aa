"""Data-parallel training: one step protocol (shard bounds, the flat
gradient payload, the bucketed ring-allreduce exchange, the aggregated
result) run by the in-process simulation and by the elastic multi-process
engine with overlapped zero-copy exchange and fault injection, plus
PruneTrain's dynamic mini-batch adjustment."""

from .allreduce import (COMM_STATS, AllreduceTrace, BucketExchange,
                        CommStats, GradBucket, GradPayload,
                        module_param_groups, plan_gradient_buckets,
                        ring_allreduce, ring_allreduce_range)
from .elastic import (ElasticEngine, ElasticStepResult, FailureEvent,
                      FaultAction, FaultPlan)
from .minibatch import BatchAdjustment, DynamicBatchAdjuster
from .worker import StepResult, data_parallel_step

__all__ = [
    "ring_allreduce", "ring_allreduce_range",
    "AllreduceTrace", "CommStats", "COMM_STATS",
    "GradBucket", "plan_gradient_buckets", "module_param_groups",
    "GradPayload", "BucketExchange",
    "data_parallel_step", "StepResult",
    "ElasticEngine", "ElasticStepResult",
    "FaultPlan", "FaultAction", "FailureEvent",
    "DynamicBatchAdjuster", "BatchAdjustment",
]

"""Inference serving tier: pruned checkpoints behind a dynamic batcher.

The product of PruneTrain is the compact pruned model; this package is
where it earns its keep.  ``ModelRegistry`` loads checkpoints through
``repro.io`` and keeps row-stable forward ``StepPlan``s hot per model;
``InferenceServer`` coalesces concurrent single-image requests through a
work-conserving ``DynamicBatcher``; ``traffic`` generates deterministic
open-loop load for the ``BENCH_serve.json`` benchmark.

Serving invariant (held by ``tests/serve/``): every response is
bit-identical to a batch-1 eager forward of that request alone, no matter
how requests were batched, padded, or tail-compiled.
"""

from .batcher import BatcherConfig, DynamicBatcher
from .registry import ModelRegistry, RegistryError, ServedModel
from .server import InferenceServer, ServeFuture
from .traffic import TrafficResult, exponential_arrivals, run_open_loop

__all__ = ["BatcherConfig", "DynamicBatcher",
           "ModelRegistry", "RegistryError", "ServedModel",
           "InferenceServer", "ServeFuture",
           "TrafficResult", "exponential_arrivals", "run_open_loop"]

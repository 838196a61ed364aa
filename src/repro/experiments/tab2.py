"""Tab. 2 — measured inference throughput (images/second), base vs pruned.

The paper times the final trained models on a TITAN Xp at batch sizes 10 and
100.  Here the measurement is real wall-clock of our serving path — each
model goes behind a :class:`repro.serve.ModelRegistry` and is timed through
batched forward-plan replays, the same code ``bench_serve.py`` and the
inference server run — on the dense baseline vs the PruneTrain-compressed
model (eval mode, replayed in alternation after a warmup/compile replay,
best round of several per model).
Absolute img/s is CPU-scale; the paper-shape claims are the *relative*
speedup >1 and larger batches helping utilization.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..serve import ModelRegistry
from .configs import DATASETS, Scale, make_model
from .format import table
from .runner import get_runs

PAIRS = [("resnet32", "cifar100s"), ("resnet50", "cifar100s"),
         ("vgg11", "cifar100s"), ("vgg13", "cifar100s")]
BATCHES = (10, 100)


def _throughputs(models, hw: int, batch: int, repeats: int = 3,
                 stats: Optional[Dict] = None) -> List[float]:
    """img/s of each model's batched serve-path replays (plan compile
    excluded), timed round-robin.

    Every model goes behind one registry and its warmup call compiles and
    caches its forward plan; then each round replays every model once, and
    each model's best round counts.  Timing the models in turn, best of
    ``repeats`` each, let a slow stretch of a shared host land on one model
    alone; interleaved, a stretch costs every model the same round.  Timed
    calls are pure plan replays, exactly what the inference server executes
    per dispatched batch.  ``stats`` receives the first model's serve
    counters.
    """
    registry = ModelRegistry(max_models=len(models))
    names = [f"tab2.{i}" for i in range(len(models))]
    served = [registry.register_model(name, model)
              for name, model in zip(names, models)]
    x = np.random.default_rng(0).normal(
        size=(batch, 3, hw, hw)).astype(np.float32)
    for name in names:
        registry.run(name, x)  # warmup: capture + first replay
    best = [float("inf")] * len(models)
    for _ in range(repeats):
        for i, name in enumerate(names):
            t0 = time.perf_counter()
            registry.run(name, x)
            best[i] = min(best[i], time.perf_counter() - t0)
    if stats is not None:
        stats.update(served[0].stats())
    registry.clear()
    return [batch / t for t in best]


def run(scale: Scale, ratio: float = 0.25) -> Dict:
    runs = get_runs(scale)
    rows: List[Dict] = []
    for model_name, dataset in PAIRS:
        key, _ = runs.prunetrain(model_name, dataset, ratio=ratio,
                                 need_model=True)
        pruned = runs.model_for(key)
        dense = make_model(model_name, dataset, scale)
        hw = scale.hw_large if DATASETS[dataset][2] else scale.hw
        row = {"model": model_name, "dataset": dataset}
        serve_stats: Dict = {}
        for b in BATCHES:
            base, fast = _throughputs([dense, pruned], hw, b,
                                      stats=serve_stats)
            row[f"base_{b}"] = base
            row[f"pruned_{b}"] = fast
            row[f"speedup_{b}"] = fast / base
        # Evidence the serve plan path (not an eager loop) was measured.
        row["served_replays"] = serve_stats.get("exact_replays", 0)
        row["served_eager_rows"] = serve_stats.get("eager_rows", 0)
        rows.append(row)
    return {"rows": rows, "batches": BATCHES}


def report(result: Dict) -> str:
    b1, b2 = result["batches"]
    return table(
        ["model", "dataset", f"base@{b1}", f"pruned@{b1}", "speedup",
         f"base@{b2}", f"pruned@{b2}", "speedup"],
        [[r["model"], r["dataset"],
          f"{r[f'base_{b1}']:.0f}", f"{r[f'pruned_{b1}']:.0f}",
          f"{r[f'speedup_{b1}']:.2f}x",
          f"{r[f'base_{b2}']:.0f}", f"{r[f'pruned_{b2}']:.0f}",
          f"{r[f'speedup_{b2}']:.2f}x"] for r in result["rows"]],
        title="== Tab. 2: measured inference throughput (img/s) ==")

"""Ablations of DESIGN.md's called-out design choices.

1. **Global λ vs per-group size scaling** — the paper argues a single global
   coefficient prioritizes compute reduction (early layers, few channels,
   big features) over parameter reduction.
2. **Eq.-3 λ setup vs fixed λ guesses** — the paper's systematic setup
   should land in the "good" operating region on the first try, where naive
   fixed choices either barely prune or destroy accuracy.
3. **Linear LR scaling on dynamic batch growth** — dropping the LR rescale
   when the batch grows should hurt accuracy (the mechanism's correctness
   depends on the coupled adjustment).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..costmodel import inference_flops
from .configs import Scale, epochs_for
from .format import pct, table
from .runner import get_runs

MODEL = "resnet32"
DATASET = "cifar10s"


def run_penalty_scaling(scale: Scale, ratio: float = 0.25) -> Dict:
    """Global-λ vs size-scaled penalty: compare FLOPs vs params reduction."""
    runs = get_runs(scale)
    _, dense = runs.dense(MODEL, DATASET)
    _, glob = runs.prunetrain(MODEL, DATASET, ratio=ratio)
    _, scaled = runs.prunetrain(MODEL, DATASET, ratio=ratio,
                                per_group_size_scaling=True)
    rows = []
    for name, log in [("global λ", glob), ("size-scaled", scaled)]:
        rows.append({
            "variant": name,
            "flops_ratio": log.final_inference_flops
            / dense.final_inference_flops,
            "param_ratio": log.records[-1].params / dense.records[-1].params,
            "acc": log.final_val_acc,
        })
    return {"rows": rows, "dense_acc": dense.final_val_acc}


def run_lambda_setup(scale: Scale) -> Dict:
    """Eq.-3 setup vs fixed λ multipliers (x0.1 and x10 off)."""
    runs = get_runs(scale)
    _, dense = runs.dense(MODEL, DATASET)
    epochs = epochs_for(DATASET, scale)
    auto_scale = scale.lambda_scale(epochs)
    rows = []
    for name, lam_scale in [("Eq. 3 setup", auto_scale),
                            ("x0.1 (too weak)", auto_scale * 0.1),
                            ("x10 (too strong)", auto_scale * 10.0)]:
        _, log = runs.prunetrain(MODEL, DATASET, ratio=0.25,
                                 lambda_scale=lam_scale)
        rows.append({
            "variant": name,
            "flops_ratio": log.final_inference_flops
            / dense.final_inference_flops,
            "acc_delta": log.final_val_acc - dense.final_val_acc,
        })
    return {"rows": rows, "dense_acc": dense.final_val_acc}


def run_lr_scaling(scale: Scale, ratio: float = 0.25) -> Dict:
    """Dynamic batch growth with vs without the linear LR rescale."""
    from ..costmodel import MemoryModel
    from ..distributed import DynamicBatchAdjuster
    from ..train import PruneTrainConfig, PruneTrainTrainer
    from .configs import make_dataset, make_model

    train, val = get_runs(scale).dataset("cifar100s")
    # comparative claim only -> half-length runs keep the bench affordable
    epochs = max(4, epochs_for("cifar100s", scale) // 2)
    results = []
    for rescale in (True, False):
        model = make_model("resnet50", "cifar100s", scale)
        cfg = PruneTrainConfig(
            epochs=epochs, batch_size=scale.batch_size, lr=0.1,
            augment=scale.augment, seed=scale.seed,
            penalty_ratio=ratio,
            reconfig_interval=scale.reconfig_interval,
            threshold=None,
            lambda_mode="rate", zero_sparse=True)
        from ..costmodel import iteration_memory_bytes
        cap = iteration_memory_bytes(model.graph, scale.batch_size) * 1.1
        adjuster = DynamicBatchAdjuster(
            MemoryModel(capacity_bytes=cap),
            granularity=max(8, scale.batch_size // 4),
            max_batch=min(512, scale.n_train // 2),
            lr_rule="linear" if rescale else "none")
        log = PruneTrainTrainer(model, train, val, cfg,
                                batch_adjuster=adjuster).train()
        results.append({
            "variant": "with LR rescale" if rescale else "no LR rescale",
            "acc": log.final_val_acc,
            "final_batch": int(log.records[-1].batch_size),
        })
    return {"rows": results}


def run_finetune(scale: Scale, ratio: float = 0.25,
                 dataset: str = "cifar100s") -> Dict:
    """Fine-tuning after PruneTrain (the paper's Tab. 1 "(fine-tuning)"
    column): a few regularization-free low-LR epochs recover accuracy."""
    from ..train.finetune import fine_tune

    runs = get_runs(scale)
    _, dense = runs.dense("resnet50", dataset)
    key, pt = runs.prunetrain("resnet50", dataset, ratio=ratio,
                              need_model=True)
    model = runs.model_for(key)
    train, val = runs.dataset(dataset)
    ft_epochs = max(2, epochs_for(dataset, scale) // 4)
    ft = fine_tune(model, train, val, epochs=ft_epochs, lr=1e-3,
                   batch_size=scale.batch_size, seed=scale.seed)
    return {
        "dense_acc": dense.final_val_acc,
        "pt_acc": pt.final_val_acc,
        "ft_acc": ft.final_val_acc,
        "ft_epochs": ft_epochs,
        "recovered": ft.final_val_acc - pt.final_val_acc,
        "inference_flops": pt.final_inference_flops
        / dense.final_inference_flops,
    }


def report_finetune(result: Dict) -> str:
    return table(
        ["stage", "val acc"],
        [["dense baseline", f"{result['dense_acc']:.3f}"],
         ["PruneTrain", f"{result['pt_acc']:.3f}"],
         [f"+{result['ft_epochs']} fine-tune epochs",
          f"{result['ft_acc']:.3f}"]],
        title=f"== Ablation: post-pruning fine-tuning "
              f"(model at {pct(result['inference_flops'])} dense FLOPs, "
              f"recovered {100 * result['recovered']:+.1f}%) ==")


def report_penalty_scaling(result: Dict) -> str:
    return table(
        ["variant", "inference FLOPs", "params", "val acc"],
        [[r["variant"], pct(r["flops_ratio"]), pct(r["param_ratio"]),
          f"{r['acc']:.3f}"] for r in result["rows"]],
        title=f"== Ablation: penalty scaling "
              f"(dense acc {result['dense_acc']:.3f}) ==")


def report_lambda_setup(result: Dict) -> str:
    return table(
        ["variant", "inference FLOPs", "acc Δ"],
        [[r["variant"], pct(r["flops_ratio"]),
          f"{100 * r['acc_delta']:+.1f}%"] for r in result["rows"]],
        title="== Ablation: λ setup ==")


def report_lr_scaling(result: Dict) -> str:
    return table(
        ["variant", "val acc", "final batch"],
        [[r["variant"], f"{r['acc']:.3f}", r["final_batch"]]
         for r in result["rows"]],
        title="== Ablation: LR rescaling on batch growth ==")

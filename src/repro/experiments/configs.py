"""Experiment scales, model/dataset factories, and λ calibration.

Every experiment runs at a named :class:`Scale`.  ``SMOKE`` is for tests
(seconds), ``QUICK`` drives the benchmark suite (tens of seconds per
training run), and ``PAPER`` documents the full-fidelity setting (the
paper's 182/90-epoch schedules; far beyond this environment's CPU budget,
kept for completeness and for users with more hardware).

λ calibration
-------------
The paper sets λ once from the Eq.-3 penalty ratio and trains for ~71k
iterations (CIFAR: 182 epochs x 50k/128).  Group-lasso shrinks a channel's
norm by ≈ lr·λ per step per group, so on a compressed schedule with T× fewer
steps the same *trajectory shape* requires λ (and the pruning threshold,
which tracks the subgradient oscillation floor ~lr·λ) to be scaled by ~T.
:func:`lambda_scale_for` computes that factor; see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Tuple

import numpy as np

from ..data import Dataset, make_synthetic
from ..nn import (resnet32, resnet50_cifar, resnet50_imagenet, resnet56,
                  vgg11, vgg13)

#: The paper's reference optimization horizon (CIFAR recipe):
#: 182 epochs x ceil(50000/128) iterations.
PAPER_REFERENCE_STEPS = 182 * (50_000 // 128)
#: Empirical constant mapping the ideal time-rescaling onto the synthetic
#: tasks (calibrated once on ResNet-32/cifar10s at the QUICK horizon; see
#: DESIGN.md): with 0.3, ratio 0.25 prunes ~60-90% of FLOPs with no accuracy
#: loss and ratio 0.1 prunes ~25%, mirroring the paper's monotone
#: ratio->pruning operating points.  The pure time-rescaling (1.0) is NOT
#: used at strong compression because the classification gradients that
#: defend useful channels do not scale with the horizon — λ beyond ~2x this
#: level overwhelms them and accuracy collapses.
LAMBDA_CALIBRATION = 0.3


#: Ceiling on the compression factor: past this, λ is so strong that channel
#: norms collapse within a handful of steps and the classification gradient
#: never gets to defend useful channels (the dynamics stop resembling the
#: paper's — measured accuracy collapse begins between 60 and 100 at the
#: QUICK horizon).  Very short runs (tests) are clamped here.
LAMBDA_SCALE_MAX = 80.0


def lambda_scale_for(epochs: int, iters_per_epoch: int,
                     reference_steps: int = PAPER_REFERENCE_STEPS) -> float:
    """Horizon-compression factor for λ."""
    steps = max(1, epochs * iters_per_epoch)
    raw = LAMBDA_CALIBRATION * reference_steps / steps
    return float(np.clip(raw, 1.0, LAMBDA_SCALE_MAX))


@dataclass(frozen=True)
class Scale:
    """One experiment fidelity level."""

    name: str
    n_train: int
    n_val: int
    hw: int                 # CIFAR-class image size
    hw_large: int           # ImageNet-class image size
    width_mult: float
    epochs: int
    epochs_large: int       # for ImageNet-class runs
    batch_size: int
    reconfig_interval: int
    reconfig_interval_large: int
    augment: bool = False
    seed: int = 0

    def iters_per_epoch(self) -> int:
        return max(1, self.n_train // self.batch_size)

    def lambda_scale(self, epochs: int | None = None) -> float:
        return lambda_scale_for(epochs or self.epochs,
                                self.iters_per_epoch())


#: Fast enough for unit/integration tests.
SMOKE = Scale(name="smoke", n_train=256, n_val=128, hw=8, hw_large=16,
              width_mult=0.25, epochs=6, epochs_large=4, batch_size=32,
              reconfig_interval=2, reconfig_interval_large=2)

#: Benchmark-suite scale: every paper phenomenon visible, CPU-tractable.
QUICK = Scale(name="quick", n_train=768, n_val=256, hw=12, hw_large=20,
              width_mult=0.375, epochs=15, epochs_large=10, batch_size=32,
              reconfig_interval=3, reconfig_interval_large=2)

#: The paper's actual setting (documented; needs GPU-class hardware).
PAPER = Scale(name="paper", n_train=50_000, n_val=10_000, hw=32, hw_large=224,
              width_mult=1.0, epochs=182, epochs_large=90, batch_size=128,
              reconfig_interval=10, reconfig_interval_large=5, augment=True)

SCALES: Dict[str, Scale] = {"smoke": SMOKE, "quick": QUICK, "paper": PAPER}


# -- factories ----------------------------------------------------------------

MODELS: Dict[str, Callable] = {
    "resnet32": resnet32,
    "resnet50": resnet50_cifar,
    "resnet56": resnet56,
    "vgg11": vgg11,
    "vgg13": vgg13,
    "resnet50-imagenet": resnet50_imagenet,
}

#: dataset name -> (num_classes, noise, is_large_input)
DATASETS: Dict[str, Tuple[int, float, bool]] = {
    "cifar10s": (10, 1.0, False),
    "cifar100s": (100, 1.3, False),
    "imagenet-s": (50, 1.2, True),
}


def make_model(name: str, dataset: str, scale: Scale, seed: int = 0):
    """Instantiate a zoo model sized for ``dataset`` at ``scale``."""
    classes, _, large = DATASETS[dataset]
    hw = scale.hw_large if large else scale.hw
    return MODELS[name](num_classes=classes, width_mult=scale.width_mult,
                        input_hw=hw, seed=seed)


def make_dataset(name: str, scale: Scale, seed: int = 0
                 ) -> Tuple[Dataset, Dataset]:
    """Instantiate a train/val pair at ``scale``."""
    classes, noise, large = DATASETS[name]
    hw = scale.hw_large if large else scale.hw
    train = make_synthetic(classes, scale.n_train, hw=hw, noise=noise,
                           seed=seed, name=name)
    val = make_synthetic(classes, scale.n_val, hw=hw, noise=noise,
                         seed=seed + 10_000, name=f"{name}-val")
    return train, val


def epochs_for(dataset: str, scale: Scale) -> int:
    return scale.epochs_large if DATASETS[dataset][2] else scale.epochs


def interval_for(dataset: str, scale: Scale) -> int:
    return scale.reconfig_interval_large if DATASETS[dataset][2] \
        else scale.reconfig_interval

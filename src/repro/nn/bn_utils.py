"""BatchNorm running-statistic recalibration, and folding BN into convs.

On short schedules the EMA running statistics lag the fast-moving weights;
in deep bottleneck networks the per-layer mismatch compounds and eval-mode
logits explode.  The standard remedy (as in stochastic weight averaging's
``update_bn``) is to recompute the running statistics as a *cumulative
average* over a few forward passes of training data just before evaluation.
This touches no learnable state and is architecture-agnostic: it walks the
module tree for BatchNorm2d layers.

In evaluation mode a BN is a per-channel affine map over frozen statistics,
so :func:`fold_batchnorm` moves it into the conv in front of it once, for a
model that will only ever run forward (the serving registry's).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..tensor import Tensor, no_grad, workspace
from .layers import BatchNorm2d
from .module import Module, Parameter


def recalibrate_bn(model: Module, batches: Iterable[np.ndarray]) -> int:
    """Recompute BN running stats as the average over ``batches``.

    Returns the number of batches processed (0 leaves the model untouched).
    The model's training/eval mode is restored afterwards.
    """
    bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    if not bns:
        return 0
    saved_momentum = [bn.momentum for bn in bns]
    was_training = getattr(model, "training", True)
    n = 0
    model.train()
    try:
        with no_grad():
            for i, xb in enumerate(batches):
                if i == 0:
                    for bn in bns:
                        bn.running_mean[:] = 0.0
                        bn.running_var[:] = 0.0
                for bn in bns:
                    bn.momentum = 1.0 / (i + 1)  # cumulative average
                model(Tensor(xb))
                n += 1
    finally:
        for bn, mom in zip(bns, saved_momentum):
            bn.momentum = mom
        model.train(was_training)
    return n


def fold_batchnorm(model: Module) -> int:
    """Fold every BN of ``model.graph``'s active convs into its conv, in place.

    The coefficients are the evaluation kernel's own float32 ops
    (``batchnorm_forward(training=False)``): ``a = gamma / sqrt(var + eps)``,
    ``b = beta - mean * a``.  The conv's weight becomes ``W * a`` per output
    channel and its bias ``b`` (``bias * a + b`` when it had one); the BN is
    marked :attr:`~repro.nn.layers.BatchNorm2d.folded` and from then on only
    applies its fused ReLU.  The folded forward equals the unfolded one up to
    float32 rounding, not bitwise.  Folding twice is a no-op; the model can
    no longer train or be checkpointed.  Returns the number of BNs folded.
    """
    folded = 0
    for node in model.graph.active_convs():
        bn, conv = node.bn, node.conv
        if bn is None or bn.folded:
            continue
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        a = bn.weight.data * inv_std
        b = bn.bias.data - bn.running_mean * a
        conv.weight.data = conv.weight.data * a[:, None, None, None]
        if conv.bias is None:
            conv.bias = Parameter(b)
        else:
            conv.bias.data = conv.bias.data * a + b
        bn.folded = True
        folded += 1
    if folded:
        # plans captured on this model hold the replaced weight arrays
        workspace.invalidate_plans()
    return folded

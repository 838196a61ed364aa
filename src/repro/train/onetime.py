"""One-time reconfiguration baseline (Alvarez & Salzmann [8]).

Like PruneTrain, training runs with group-lasso regularization from scratch —
but the network architecture is reconfigured exactly **once**, at a chosen
epoch, and the smaller model is trained from that point on.  The paper's
Fig. 2c shows that even with the best possible choice of that single
reconfiguration point, this leaves >25% more training FLOPs on the table
than continuous reconfiguration, and the best point is not knowable a
priori.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .prunetrain import PruneTrainConfig, PruneTrainTrainer


@dataclass
class OneTimeConfig(PruneTrainConfig):
    """``reconfig_epoch``: the single epoch after which pruning happens."""

    reconfig_epoch: int = 30


class OneTimeTrainer(PruneTrainTrainer):
    """Group-lasso training with a single reconfiguration point.

    Only the schedule differs from PruneTrain; the epoch hook (channel
    tracking) is the parent's.  Whether the one
    reconfiguration has happened is read off ``reports``, which checkpoints
    carry, so a resumed run never repeats it."""

    method_name = "onetime"

    def __init__(self, model, train_set, val_set,
                 config: Optional[OneTimeConfig] = None, **kw):
        super().__init__(model, train_set, val_set,
                         config or OneTimeConfig(), **kw)
        self.cfg: OneTimeConfig

    def _reconfig_due(self, epoch: int) -> bool:
        return not self.reports and (epoch + 1) == self.cfg.reconfig_epoch

"""SSL baseline (Wen et al. [6]) — structured sparsity learning from a
pre-trained model.

SSL's protocol, as described in the paper's related work and Sec. 5.2:

1. Train the dense model to completion (the "current best practice" start).
2. Re-train with group-lasso regularization, keeping the **original dense
   architecture** until the end (sparsified channels are never removed
   mid-training because they might revive).
3. Finally, zero out and prune the sparsified channels once, producing the
   compressed inference model.

Hence SSL's *training* cost is roughly (pretrain + sparsify) x dense FLOPs —
"almost 3 times higher than baseline" — while its *inference* results are
comparable to PruneTrain's (Fig. 8a/c).  The λ-setup mechanism is applied to
SSL as well, exactly as the paper does ("Since Wen et al. do not discuss how
to set the group lasso penalty coefficient, we apply our proposed mechanism
to SSL as well").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..nn.module import Module
from ..prune import prune_and_reconfigure
from .metrics import RunLog
from .prunetrain import PruneTrainConfig, PruneTrainTrainer
from .trainer import Trainer


@dataclass
class SSLConfig(PruneTrainConfig):
    """SSL hyperparameters: dense pretrain epochs + sparsifying epochs."""

    pretrain_epochs: int = 60

    def __post_init__(self) -> None:
        # SSL never reconfigures during training.
        self.reconfig_interval = 0


class SSLTrainer:
    """Two-phase SSL run; produces one merged :class:`RunLog`."""

    method_name = "ssl"

    def __init__(self, model: Module, train_set, val_set,
                 config: Optional[SSLConfig] = None,
                 pretrained: bool = False,
                 pretrain_log: Optional[RunLog] = None):
        """``pretrained=True`` with ``pretrain_log`` lets a caller supply an
        existing dense run as phase 1 (identical protocol, no re-training);
        its records and cumulative FLOPs are folded into this run's log."""
        self.model = model
        self.train_set = train_set
        self.val_set = val_set
        self.cfg = config or SSLConfig()
        self.pretrained = pretrained
        self.pretrain_log = pretrain_log

    def train(self) -> RunLog:
        log = RunLog(model_name=getattr(self.model, "name", "model"),
                     dataset_name=self.train_set.name,
                     method=self.method_name)
        log.notes["train_size"] = len(self.train_set)
        cum = 0.0

        if self.pretrained and self.pretrain_log is not None:
            log.records.extend(self.pretrain_log.records)
            cum = self.pretrain_log.total_train_flops

        if not self.pretrained and self.cfg.pretrain_epochs > 0:
            dense_cfg = self.cfg.phase(self.cfg.pretrain_epochs, self.cfg.lr,
                                       self.cfg.seed)
            phase1 = Trainer(self.model, self.train_set, self.val_set,
                             dense_cfg)
            p1 = phase1.train()
            log.records.extend(p1.records)
            cum = p1.total_train_flops

        # Phase 2: group-lasso sparsification, architecture kept dense.
        phase2 = PruneTrainTrainer(self.model, self.train_set, self.val_set,
                                   self.cfg)
        phase2._cum_flops = cum
        offset = len(log.records)
        p2 = phase2.train()
        for rec in p2.records:
            rec.epoch += offset
        log.records.extend(p2.records)

        # Final one-shot prune for the inference model.
        report = prune_and_reconfigure(self.model, phase2.optimizer,
                                       phase2.threshold,
                                       remove_layers=self.cfg.remove_layers)
        log.notes["final_pruned_params"] = report.params_after
        # refresh the last record's inference FLOPs to the pruned model
        if log.records:
            from ..costmodel import inference_flops
            last = log.records[-1]
            last.inference_flops = inference_flops(self.model.graph)
            last.val_acc = phase2.evaluate()
        return log

"""Trial-and-error structured pruning from a pre-trained model (AMC-like).

The Tab. 3 comparator.  AMC [10] searches per-layer pruning ratios with an
RL agent over a pre-trained model, then fine-tunes.  We reproduce the
*protocol class* — iterative magnitude-based channel pruning of a pretrained
model with fine-tuning rounds until an inference-FLOPs target is met — which
is the established non-RL instantiation of trial-and-error pruning
(He et al. [9], Molchanov et al. [32]).  The substitution is documented in
DESIGN.md; Tab. 3 needs the accuracy/FLOPs tradeoff of this protocol as a
baseline, and the paper's qualitative claim (regularization-during-training
dominates prune-after-training at matched FLOPs) is testable against it.

Channel importance: the summed, per-layer-normalized L2 norms of the
channel's weight groups across every conv touching its channel space — the
standard magnitude criterion lifted to channel-space granularity so pruning
always respects the union/dimension-consistency constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..costmodel import inference_flops
from ..nn.module import Module
from ..prune import prune_and_reconfigure
from ..prune.sparsity import DEFAULT_THRESHOLD
from .metrics import RunLog
from .trainer import Trainer, TrainerConfig

#: Fraction of the prunable channels zeroed per prune round.
_PRUNE_FRACTION = 0.12


@dataclass
class AMCLikeConfig(TrainerConfig):
    """Iterative pruning schedule."""

    target_inference_ratio: float = 0.5   # stop at this fraction of dense FLOPs
    finetune_epochs: int = 4
    max_rounds: int = 12
    pretrain_epochs: int = 60


def channel_importance(graph) -> Dict[Tuple[int, int], float]:
    """Importance of every (space, channel): summed normalized group norms."""
    scores: Dict[Tuple[int, int], float] = {}
    for sid, space in graph.spaces.items():
        if space.frozen:
            continue
        acc = np.zeros(space.size)
        touched = False
        for node in graph.writers(sid):
            w = node.conv.weight.data
            norms = np.sqrt(np.einsum("kcrs,kcrs->k", w, w))
            denom = norms.mean() + 1e-12
            acc += norms / denom
            touched = True
        for node in graph.readers(sid):
            w = node.conv.weight.data
            norms = np.sqrt(np.einsum("kcrs,kcrs->c", w, w))
            denom = norms.mean() + 1e-12
            acc += norms / denom
            touched = True
        if not touched:
            continue
        for c in range(space.size):
            scores[(sid, c)] = float(acc[c])
    return scores


def zero_space_channels(graph, picks: Dict[int, np.ndarray]) -> None:
    """Hard-zero the selected channels in every conv touching each space."""
    for sid, channels in picks.items():
        for node in graph.writers(sid):
            node.conv.weight.data[channels] = 0.0
        for node in graph.readers(sid):
            node.conv.weight.data[:, channels] = 0.0


class AMCLikePruner:
    """Prune-a-pretrained-model-with-fine-tuning baseline."""

    method_name = "amc-like"

    def __init__(self, model: Module, train_set, val_set,
                 config: Optional[AMCLikeConfig] = None,
                 pretrained: bool = False):
        self.model = model
        self.train_set = train_set
        self.val_set = val_set
        self.cfg = config or AMCLikeConfig()
        self.pretrained = pretrained

    def _prune_round(self) -> None:
        graph = self.model.graph
        scores = channel_importance(graph)
        total = len(scores)
        k = max(1, int(total * _PRUNE_FRACTION))
        order = sorted(scores.items(), key=lambda kv: kv[1])
        picks: Dict[int, List[int]] = {}
        taken_per_space: Dict[int, int] = {}
        for (sid, c), _ in order:
            if len(sum(picks.values(), [])) >= k:
                break
            size = graph.spaces[sid].size
            if taken_per_space.get(sid, 0) >= size - 1:
                continue  # never empty a space
            picks.setdefault(sid, []).append(c)
            taken_per_space[sid] = taken_per_space.get(sid, 0) + 1
        zero_space_channels(graph,
                            {sid: np.array(cs) for sid, cs in picks.items()})
        prune_and_reconfigure(self.model, optimizer=None,
                              threshold=DEFAULT_THRESHOLD,
                              remove_layers=False)

    def run(self) -> RunLog:
        """Pretrain (optional), then alternate prune rounds and fine-tuning."""
        log = RunLog(model_name=getattr(self.model, "name", "model"),
                     dataset_name=self.train_set.name,
                     method=self.method_name)
        log.notes["train_size"] = len(self.train_set)
        cum = 0.0

        if not self.pretrained and self.cfg.pretrain_epochs > 0:
            cfg = self.cfg.phase(self.cfg.pretrain_epochs, self.cfg.lr,
                                 self.cfg.seed)
            t = Trainer(self.model, self.train_set, self.val_set, cfg)
            p = t.train()
            log.records.extend(p.records)
            cum = p.total_train_flops
        dense_flops = inference_flops(self.model.graph)
        log.notes["dense_inference_flops"] = dense_flops

        for rnd in range(self.cfg.max_rounds):
            if inference_flops(self.model.graph) \
                    <= self.cfg.target_inference_ratio * dense_flops:
                break
            self._prune_round()
            ft_cfg = self.cfg.phase(self.cfg.finetune_epochs,
                                    self.cfg.lr * 0.01, self.cfg.seed + rnd + 1)
            ft = Trainer(self.model, self.train_set, self.val_set, ft_cfg)
            ft._cum_flops = cum
            p = ft.train()
            cum = p.total_train_flops
            base_ep = log.records[-1].epoch + 1 if log.records else 0
            for rec in p.records:
                rec.epoch += base_ep
            log.records.extend(p.records)
        return log

"""PruneTrain — Algorithm 1 of the paper.

Training proceeds like the dense baseline, plus:

1. On the **first iteration**, the group-lasso coefficient λ is set from the
   target penalty ratio (Eq. 3) using the first forward pass's
   classification loss and the regularizer value at initialization.
2. Every step, the group-lasso subgradients are added after back-propagation
   (``loss = loss1 + λ·loss2`` in Algorithm 1).
3. Every ``reconfig_interval`` epochs, sparsified channels are pruned and
   the network is reconfigured into a smaller dense model
   (:func:`repro.prune.reconfigure.prune_and_reconfigure`), carrying over
   momentum and BN state.
4. Optionally (Sec. 4.3), a :class:`~repro.distributed.DynamicBatchAdjuster`
   grows the mini-batch into the freed memory and the LR is scaled linearly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..distributed import DynamicBatchAdjuster
from ..nn.module import Module
from ..prune import (ChannelTracker, DeadSetExporter, GroupLasso,
                     PruneReport, prune_and_reconfigure)
from ..prune.sparsity import DEFAULT_THRESHOLD
from ..tensor import sparse as _tsparse
from ..tensor import workspace as _tws
from .trainer import Trainer, TrainerConfig

#: Multiple of ``lr · λ`` the derived pruning threshold sits at (see
#: ``PruneTrainConfig.threshold``).
THRESHOLD_FLOOR_MULT = 3.0


@dataclass
class PruneTrainConfig(TrainerConfig):
    """PruneTrain hyperparameters on top of the dense recipe.

    ``penalty_ratio`` is the paper's *lasso penalty ratio* (Eq. 3): the
    target fraction of total loss contributed by regularization at
    initialization.  The paper's robust range is 0.2-0.25; its sweeps go
    down to 0.05.  ``reconfig_interval`` is the only other new
    hyperparameter (10 epochs for CIFAR, 5 for ImageNet in the paper).
    """

    penalty_ratio: float = 0.25
    reconfig_interval: int = 10
    #: Pruning threshold.  ``None`` (recommended) derives it at λ-setup time
    #: as ``max(paper 1e-4, THRESHOLD_FLOOR_MULT · lr · λ)`` — the
    #: subgradient of a zeroed group oscillates within ~lr·λ of the origin,
    #: so the detection threshold must sit just above that floor, wherever
    #: λ ends up after horizon compression.
    threshold: Optional[float] = None
    #: Horizon-compression factor for λ.  The sparsification depth of group
    #: lasso is ∝ λ · Σ_t lr_t (the group norm shrinks by ~lr·λ per step), so
    #: reproducing the paper's trajectory *shape* on a run with T× fewer
    #: iterations requires scaling λ by ~T — a pure time-rescaling of the
    #: sparsification ODE.  1.0 reproduces the paper's exact Eq.-3 setup; the
    #: experiment presets compute the factor from their compressed schedules
    #: (see repro.experiments.configs.lambda_scale_for).
    lambda_scale: float = 1.0
    #: λ setup mode.  ``"ratio"`` is the paper's Eq. 3 (λ ∝ L/R) times
    #: ``lambda_scale``.  ``"rate"`` instead fixes the *norm-decay budget*:
    #: λ = strength · decay_budget · median_init_norm / (2 Σ_t lr_t), with
    #: strength = (ratio/(1-ratio)) / (0.25/0.75).  Both agree at the
    #: paper's own horizon (Eq. 3 at ratio 0.25 implies a decay budget of
    #: ~4-6 init norms over 71k iterations), but Eq. 3 makes λ ∝ 1/R — so on
    #: *compressed* schedules larger models sparsify ∝ R more slowly and may
    #: never reach the threshold.  "rate" keeps the sparsification timescale
    #: a fixed fraction of the run for every architecture.
    #: Default 2.5 ≡ the paper's own operating point: Eq.-3 λ at ratio 0.25
    #: over the paper's 71k-iteration schedule decays each group norm by
    #: ~2.5x the median Kaiming init norm (which is ~sqrt(2) for every conv).
    lambda_mode: str = "ratio"
    decay_budget: float = 2.5
    remove_layers: bool = True
    zero_sparse: bool = False
    per_group_size_scaling: bool = False   # ablation: prior-work scaling


class PruneTrainTrainer(Trainer):
    """The paper's training mechanism."""

    method_name = "prunetrain"

    def __init__(self, model: Module, train_set, val_set,
                 config: Optional[PruneTrainConfig] = None,
                 batch_adjuster: Optional[DynamicBatchAdjuster] = None,
                 track_convs: Sequence[str] = ()):
        super().__init__(model, train_set, val_set,
                         config or PruneTrainConfig())
        self.cfg: PruneTrainConfig
        self.lasso = GroupLasso(
            model.graph,
            per_group_size_scaling=self.cfg.per_group_size_scaling)
        self.batch_adjuster = batch_adjuster
        self.tracker = ChannelTracker(model.graph, track_convs) \
            if track_convs else None
        self.reports: List[PruneReport] = []
        #: stable dead-channel exporter for the sparse compute paths
        #: (:mod:`repro.tensor.sparse`); scanned every epoch, published only
        #: when ``workspace.config.sparse_compute`` is on.
        self._dead_exporter = DeadSetExporter()
        #: threshold derived at λ-setup time when ``cfg.threshold`` is None.
        #: Kept on the trainer — not written back into the config — so a
        #: :class:`PruneTrainConfig` reused across runs (sweep presets)
        #: never carries one run's derived threshold into the next.
        self._derived_threshold: Optional[float] = None

    @property
    def threshold(self) -> float:
        """Effective pruning threshold: explicit config value, else the
        value derived on the first batch, else the paper default."""
        if self.cfg.threshold is not None:
            return self.cfg.threshold
        if self._derived_threshold is not None:
            return self._derived_threshold
        return DEFAULT_THRESHOLD

    # -- Algorithm 1 hooks ---------------------------------------------------
    def on_first_batch(self, cls_loss: float) -> None:
        """Line 12-13: set λ once, from the very first iteration's losses."""
        if self.cfg.lambda_mode == "ratio":
            self.lasso.set_coefficient(cls_loss, self.cfg.penalty_ratio)
            self.lasso.lam *= self.cfg.lambda_scale
        elif self.cfg.lambda_mode == "rate":
            self.lasso.lam = self._rate_lambda()
        else:
            raise ValueError(f"unknown lambda_mode "
                             f"{self.cfg.lambda_mode!r}")
        if self.cfg.threshold is None:
            self._derived_threshold = max(
                DEFAULT_THRESHOLD,
                THRESHOLD_FLOOR_MULT * self.cfg.lr * self.lasso.lam)

    def _rate_lambda(self) -> float:
        """Decay-budget λ (see ``PruneTrainConfig.lambda_mode``)."""
        norms = []
        for node in self.model.graph.active_convs():
            w = node.conv.weight.data
            norms.append(np.sqrt(np.einsum("kcrs,kcrs->k", w, w)))
        n_typ = float(np.median(np.concatenate(norms)))
        iters = max(1, self.loader.batches_per_epoch())
        sum_lr = sum(self.schedule.lr_at(e)
                     for e in range(self.cfg.epochs)) * iters
        ratio = self.cfg.penalty_ratio
        strength = (ratio / (1.0 - ratio)) / (0.25 / 0.75)
        return strength * self.cfg.decay_budget * n_typ / (2.0 * sum_lr)

    def post_backward(self) -> None:
        """Line 10/16: add the group-lasso subgradients after backprop."""
        if self.lasso.lam is not None:
            self.lasso.add_gradients()

    def on_epoch_end(self, epoch: int) -> None:
        """Line 18-22: periodic prune + reconfigure (+ batch adjustment)."""
        if self.tracker is not None:
            self.tracker.record()
        if self._reconfig_due(epoch):
            self._reconfigure(epoch)
        self._publish_dead_sets()

    def _reconfig_due(self, epoch: int) -> bool:
        """Whether a reconfiguration follows epoch ``epoch`` (0-based):
        every ``reconfig_interval`` epochs, never after the last one."""
        interval = self.cfg.reconfig_interval
        return interval > 0 and (epoch + 1) % interval == 0 \
            and epoch + 1 < self.cfg.epochs

    def _publish_dead_sets(self) -> None:
        """Scan for stable dead channels and publish them to the sparse
        engine.  Runs at the end of *every* epoch — not only reconfig
        epochs — so the exporter's hysteresis window fills between
        reconfigurations and ``zero_sparse`` runs can engage the sparse
        compute paths as soon as the zeroed channels prove stable.
        Publishing an unchanged set is free (no plan invalidation), and the
        whole hook is a no-op unless sparse compute is enabled.
        """
        if not _tws.config.sparse_compute:
            return
        scanned = self._dead_exporter.scan(self.model.graph, self.threshold)
        _tsparse.publish([(node.conv.weight, si, so)
                          for node, si, so in scanned])

    def _reconfigure(self, epoch: int) -> None:
        def on_masks(masks):
            if self.tracker is None:
                return
            for name in self.tracker.conv_names:
                try:
                    node = self.model.graph.conv_by_name(name)
                except KeyError:
                    continue
                if self.model.graph._active(node):
                    self.tracker.note_reconfigure(name, masks[node.out_space])

        report = prune_and_reconfigure(
            self.model, self.optimizer, self.threshold,
            remove_layers=self.cfg.remove_layers,
            zero_sparse=self.cfg.zero_sparse, on_masks=on_masks)
        self.reports.append(report)

        if self.batch_adjuster is not None:
            adj = self.batch_adjuster.propose(self.model.graph,
                                              self.loader.batch_size)
            if adj.changed:
                self.loader.set_batch_size(adj.new_batch)
                self.lr_scale *= adj.lr_scale

    # -- record extras ------------------------------------------------------
    def _make_record(self, epoch, train_loss, train_acc, comm_epoch):
        rec = super()._make_record(epoch, train_loss, train_acc, comm_epoch)
        rec.reg_loss = self.lasso.loss()
        rec.lam = self.lasso.lam or 0.0
        return rec

    # -- exact-resume state (checkpoint format v2) --------------------------
    def _extra_state(self):
        state = {
            "lam": self.lasso.lam,
            "derived_threshold": self._derived_threshold,
            "reports": [self._report_to_dict(r) for r in self.reports],
        }
        if self.tracker is not None:
            state["tracker"] = {"orig_k": dict(self.tracker._orig_k)}
        state["dead_hist"] = {name: len(hist) for name, hist
                              in self._dead_exporter._hist.items()}
        return state

    def _extra_arrays(self):
        arrays = {}
        if self.tracker is not None:
            for name in self.tracker.conv_names:
                arrays[f"tracker/history/{name}"] = self.tracker.matrix(name)
                arrays[f"tracker/alive/{name}"] = \
                    self.tracker._alive_idx[name]
        for name, hist in self._dead_exporter._hist.items():
            for i, (ib, ob) in enumerate(hist):
                arrays[f"dead_hist/{name}/{i}/in"] = ib
                arrays[f"dead_hist/{name}/{i}/out"] = ob
        return arrays

    def _restore_extra(self, train_state, arrays):
        self.lasso.lam = train_state["lam"]
        self._derived_threshold = train_state["derived_threshold"]
        self.reports = [self._report_from_dict(d)
                        for d in train_state["reports"]]
        if self.tracker is not None and "tracker" in train_state:
            for name in self.tracker.conv_names:
                hist = arrays[f"tracker/history/{name}"]
                self.tracker.history[name] = [row.copy() for row in hist]
                self.tracker._alive_idx[name] = np.asarray(
                    arrays[f"tracker/alive/{name}"], dtype=np.int64)
        self._dead_exporter.reset()
        for name, n in train_state.get("dead_hist", {}).items():
            self._dead_exporter._hist[name] = [
                (np.asarray(arrays[f"dead_hist/{name}/{i}/in"], dtype=bool),
                 np.asarray(arrays[f"dead_hist/{name}/{i}/out"], dtype=bool))
                for i in range(n)]
        if _tws.config.sparse_compute:
            # Republish from the restored history (no fresh scan — that
            # would double-count the checkpoint epoch) so the resumed run
            # re-engages the sparse paths where the original run had them.
            cur = self._dead_exporter.current(self.model.graph)
            _tsparse.publish([(node.conv.weight, si, so)
                              for node, si, so in cur])

    @staticmethod
    def _report_to_dict(report: PruneReport) -> dict:
        d = asdict(report)
        d["space_sizes"] = {str(k): v for k, v in d["space_sizes"].items()}
        return d

    @staticmethod
    def _report_from_dict(d: dict) -> PruneReport:
        d = dict(d)
        d["space_sizes"] = {int(k): v for k, v in d["space_sizes"].items()}
        return PruneReport(**d)

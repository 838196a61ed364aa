"""Dense baseline trainer — the reference every PruneTrain run is compared to.

Implements standard mini-batch SGD training (optionally over simulated
data-parallel workers) with full cost instrumentation: every epoch records
FLOPs, memory, BN traffic, communication bytes, and modeled device times, so
a dense run directly provides the denominators of the paper's Tab. 1/Tab. 4
ratios.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from ..costmodel import (DEVICES, bn_traffic_bytes, epoch_comm_bytes,
                         epoch_time, inference_flops, iteration_memory_bytes,
                         training_flops_per_sample)
from ..data import Augmenter, DataLoader, Dataset
from ..distributed import data_parallel_step
from ..io.checkpoint import (checkpoint_path, prune_old_checkpoints,
                             restore_checkpoint, save_checkpoint)
from ..nn.module import Module
from ..optim import SGD, LRSchedule, StepLR, milestones_for
from ..profiler import PROFILER
from ..prune.sparsity import model_channel_sparsity
from ..tensor.compile import (PlanCache, capture_forward,
                              capture_training_step, forward_step,
                              train_step)
from .metrics import EpochRecord, RunLog

#: devices whose modeled epoch time every :class:`EpochRecord` carries
MODELED_DEVICES = ("1080ti", "v100")


def _env_flag(name: str, default: bool) -> bool:
    val = os.environ.get(name)
    if val is None:
        return default
    return val.strip().lower() not in ("0", "false", "no", "off")


@dataclass
class TrainerConfig:
    """Hyperparameters shared by all trainers.

    Defaults follow the paper's CIFAR recipe (He et al.): SGD momentum 0.9,
    weight decay 5e-4, LR 0.1 decayed 10x at 50%/75% of training.
    """

    epochs: int = 60
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_milestone_fractions: tuple = (0.5, 0.75)
    lr_gamma: float = 0.1
    workers: int = 1               # simulated data-parallel workers
    augment: bool = True
    eval_batch: int = 256
    #: BN running-stat recalibration passes before each evaluation (0 = off).
    #: Short schedules need this: EMA stats lag the weights and the error
    #: compounds through deep networks (see repro.nn.bn_utils).
    bn_recal_batches: int = 3
    seed: int = 0
    log_every: int = 0             # epochs between stdout lines (0 = silent)
    #: measure per-op wall time / bytes each epoch (:mod:`repro.profiler`)
    #: and attach the summary to every :class:`EpochRecord`.  Off by default:
    #: disabled profiling costs one attribute check per op.
    profile: bool = False
    #: epochs between periodic run checkpoints (0 = no checkpointing).
    #: Requires ``checkpoint_dir``.  Checkpoints capture the *full* run
    #: state (format v2) so a killed run resumes bit-exactly via
    #: ``Trainer.train(resume_from=...)``.
    checkpoint_every: int = 0
    #: directory for periodic checkpoints (``ckpt-ep<NNNNN>.npz``)
    checkpoint_dir: Optional[str] = None
    #: retain only the newest N periodic checkpoints (0 = keep all)
    checkpoint_keep: int = 3
    #: capture-and-replay compiled steps (:mod:`repro.tensor.compile`):
    #: record the autograd tape on the first batch after each invalidation
    #: (pruning reconfiguration, batch growth, checkpoint restore) and
    #: replay it, bit-exact against eager, as a flat kernel plan until the
    #: next one.  ``None`` defers to the ``REPRO_COMPILE_STEP`` env flag
    #: (default on).  A step, or each ``"sim"`` shard of one, runs
    #: :func:`~repro.tensor.compile.train_step` as elastic workers do;
    #: ``profile=True`` runs it eager (per-op counters need the
    #: instrumented path), and a capture failure (an unrecorded op, a
    #: memory-plan error) falls back to eager with a logged reason.  A plan
    #: lays its buffers out in one liveness-planned arena
    #: (:mod:`repro.tensor.memplan`); there is no other layout to pick.
    compile_step: Optional[bool] = None
    #: multi-worker execution backend for ``workers > 1``: ``"elastic"``
    #: spawns true worker *processes* exchanging gradients through shared
    #: memory (:class:`repro.distributed.ElasticEngine` — fault-tolerant,
    #: bit-identical to the simulation when fault-free), ``"sim"`` keeps the
    #: in-process sequential simulation (:func:`data_parallel_step`).
    dist_engine: str = "elastic"
    #: elastic only: evict a worker whose heartbeat is older than this
    dist_heartbeat_timeout: float = 30.0
    #: elastic only: optional :class:`repro.distributed.FaultPlan` scripting
    #: deterministic worker failures (testing / resilience drills)
    dist_fault_plan: Optional[object] = None

    def phase(self, epochs: int, lr: float, seed: int) -> "TrainerConfig":
        """The plain :class:`TrainerConfig` of one phase of a multi-phase run
        (dense pretrain, fine-tune round): every field of this config but
        ``epochs``/``lr``/``seed``, except that checkpointing stays off —
        phases sharing one directory would overwrite each other's files."""
        kept = {f.name: getattr(self, f.name) for f in fields(TrainerConfig)
                if not f.name.startswith("checkpoint_")}
        return TrainerConfig(**dict(kept, epochs=epochs, lr=lr, seed=seed))


class Trainer:
    """Baseline dense trainer with full cost instrumentation."""

    method_name = "dense"

    def __init__(self, model: Module, train_set: Dataset, val_set: Dataset,
                 config: Optional[TrainerConfig] = None):
        self.model = model
        self.train_set = train_set
        self.val_set = val_set
        self.cfg = config or TrainerConfig()
        self.optimizer = SGD(model.parameters(), self.cfg.lr,
                             self.cfg.momentum, self.cfg.weight_decay)
        self.schedule: LRSchedule = StepLR(
            self.cfg.lr, milestones_for(self.cfg.epochs,
                                        self.cfg.lr_milestone_fractions),
            self.cfg.lr_gamma)
        aug = Augmenter() if self.cfg.augment else None
        self.loader = DataLoader(train_set, self.cfg.batch_size, shuffle=True,
                                 seed=self.cfg.seed, augment=aug)
        #: multiplicative LR factor from dynamic mini-batch scaling
        self.lr_scale = 1.0
        self.log = RunLog(model_name=getattr(model, "name", "model"),
                          dataset_name=train_set.name,
                          method=self.method_name)
        self.log.notes["train_size"] = len(train_set)
        self._cum_flops = 0.0
        #: whether ``on_first_batch`` already fired (λ/threshold derivation
        #: happens exactly once per *run*, so a resumed run must not re-run
        #: it on its first post-resume batch)
        self._first_batch_done = False
        cs = self.cfg.compile_step
        if cs is None:
            cs = _env_flag("REPRO_COMPILE_STEP", True)
        self._compile_enabled = bool(cs)
        #: arena metrics of the newest captured full-batch training plan
        #: (``StepPlan.mem_metrics``, read once at capture); feeds the record
        self._last_mem_metrics: Optional[Dict] = None
        #: shape-keyed plan caches (one per batch shape, so dynamic batch
        #: growth and the short tail batch each get their own plan); entries
        #: retire when the model's plan generation moves (surgery)
        self._train_plans = PlanCache(model)
        self._eval_plans = PlanCache(model)
        self._fallback_reasons: set = set()
        if self.cfg.dist_engine not in ("elastic", "sim"):
            raise ValueError(
                f"dist_engine must be 'elastic' or 'sim', "
                f"got {self.cfg.dist_engine!r}")
        #: lazy ElasticEngine (forked at the first parallel step so replicas
        #: start from the run's actual initial/restored weights)
        self._elastic = None
        self._epoch_stall = 0.0

    # -- hooks (overridden by subclasses) -----------------------------------
    def on_run_start(self) -> None:
        pass

    def on_first_batch(self, cls_loss: float) -> None:
        pass

    def post_backward(self) -> None:
        """Add extra gradients (regularizers) before the optimizer step."""

    def on_epoch_end(self, epoch: int) -> None:
        pass

    # -- core loop ---------------------------------------------------------
    def _compile_active(self) -> bool:
        """Compiled stepping is bypassed under profiling (per-op counters
        need the instrumented eager path)."""
        return self._compile_enabled and not self.cfg.profile

    def _note_capture(self, captured) -> None:
        """Print each new capture-fallback reason once."""
        reason = captured and captured[1]
        if reason and reason not in self._fallback_reasons:
            self._fallback_reasons.add(reason)
            print(f"[{self.method_name}] compile_step fallback: {reason}")

    def _step_single(self, xb: np.ndarray, yb: np.ndarray
                     ) -> tuple[float, float, float]:
        self.optimizer.zero_grad()
        loss, logits, captured = train_step(
            self.model, xb, yb,
            self._train_plans if self._compile_active() else None,
            capture_training_step)
        self._note_capture(captured)
        if captured and captured[0] and len(yb) == self.loader.batch_size:
            self._last_mem_metrics = captured[0].mem_metrics()
        return loss, float((logits.argmax(1) == yb).mean()), 0.0

    def _elastic_engine(self):
        if self._elastic is None:
            from ..distributed.elastic import ElasticEngine
            self._elastic = ElasticEngine(
                self.model, self.cfg.workers,
                heartbeat_timeout=self.cfg.dist_heartbeat_timeout,
                fault_plan=self.cfg.dist_fault_plan)
        return self._elastic

    def _step_parallel(self, xb: np.ndarray, yb: np.ndarray
                       ) -> tuple[float, float, float]:
        if self.cfg.dist_engine == "elastic":
            r = self._elastic_engine().step(xb, yb)
            self._epoch_stall += r.stall_seconds
            return r.loss, r.accuracy, r.comm_bytes_per_worker
        res, _ = data_parallel_step(
            self.model, xb, yb, self.cfg.workers,
            self._train_plans if self._compile_active() else None)
        return res.loss, res.accuracy, res.comm_bytes_per_worker

    def shutdown(self) -> None:
        """Release the elastic worker pool (idempotent; no-op otherwise)."""
        if self._elastic is not None:
            self._elastic.shutdown()
            self._elastic = None

    def train(self, resume_from: Optional[str] = None) -> RunLog:
        """Run the full training loop; returns the populated :class:`RunLog`.

        ``resume_from`` names a format-v2 checkpoint written by this
        trainer's configuration (see ``TrainerConfig.checkpoint_every`` /
        :meth:`save_run_checkpoint`): the run picks up at the epoch after
        the checkpoint and — because the checkpoint captures the loader RNG
        stream, optimizer momentum, LR scaling, and all pruning-run state —
        reproduces the uninterrupted run's trajectory bit-exactly.
        """
        if resume_from is not None:
            start_epoch = self.resume(resume_from)
        else:
            start_epoch = 0
            self.on_run_start()
        if self.cfg.profile:
            PROFILER.enable(reset=True)
        try:
            for epoch in range(start_epoch, self.cfg.epochs):
                if self.cfg.profile:
                    PROFILER.reset()
                t0 = time.perf_counter()
                self._epoch_stall = 0.0
                self.model.train()
                base_lr = self.schedule.lr_at(epoch)
                self.optimizer.lr = base_lr * self.lr_scale
                losses, accs = [], []
                comm_epoch = 0.0
                flops_per_sample = training_flops_per_sample(self.model.graph)
                for xb, yb in self.loader:
                    if self.cfg.workers > 1:
                        loss, acc, comm = self._step_parallel(xb, yb)
                    else:
                        loss, acc, comm = self._step_single(xb, yb)
                    if not self._first_batch_done:
                        self.on_first_batch(loss)
                        self._first_batch_done = True
                    self.post_backward()
                    self.optimizer.step()
                    losses.append(loss)
                    accs.append(acc)
                    comm_epoch += comm
                    self._cum_flops += flops_per_sample * len(yb)
                self.on_epoch_end(epoch)
                # Snapshot the profiler *before* evaluation (inside
                # ``_make_record``) so the per-epoch op profile covers the
                # training phase only — evaluation + BN recalibration would
                # otherwise inflate the counts.
                if self.cfg.profile:
                    train_profile = PROFILER.summary()
                rec = self._make_record(epoch, float(np.mean(losses)),
                                        float(np.mean(accs)), comm_epoch)
                rec.wall_time = time.perf_counter() - t0
                if self.cfg.profile:
                    rec.op_profile = train_profile
                self.log.append(rec)
                self._maybe_checkpoint(epoch)
                if self.cfg.log_every and (epoch % self.cfg.log_every == 0):
                    print(f"[{self.method_name}] ep{epoch:3d} "
                          f"loss {rec.train_loss:.3f} val {rec.val_acc:.3f} "
                          f"infF {rec.inference_flops/1e6:.2f}M "
                          f"batch {rec.batch_size}")
        finally:
            self.shutdown()
            if self.cfg.profile:
                PROFILER.disable()
        return self.log

    # -- exact-resume checkpointing (format v2) -----------------------------
    def _train_state(self, epoch: int) -> Dict:
        """Full JSON-serializable run state after completed epoch ``epoch``.

        Everything a resumed run needs to be bit-exact: loader RNG stream
        and batch size (which also drives augmentation), the dynamic LR
        scale, the epoch counter (= LR-schedule position), cumulative
        FLOPs, the RunLog so far, and whatever subclasses add via
        :meth:`_extra_state` (λ, derived threshold, tracker history, ...).
        """
        state = {
            "epoch": epoch,
            "first_batch_done": self._first_batch_done,
            "lr_scale": self.lr_scale,
            "cum_flops": self._cum_flops,
            "loader": self.loader.state_dict(),
            "run_log": self.log.to_dict(),
        }
        state.update(self._extra_state())
        return state

    def _extra_state(self) -> Dict:
        """Subclass hook: additional JSON-serializable run state."""
        return {}

    def _extra_arrays(self) -> Dict[str, np.ndarray]:
        """Subclass hook: additional ndarray run state (tracker history...)."""
        return {}

    def _restore_extra(self, train_state: Dict,
                       arrays: Dict[str, np.ndarray]) -> None:
        """Subclass hook: restore what the two capture hooks produced."""

    def save_run_checkpoint(self, path: str, epoch: int) -> None:
        """Atomically write a full-run checkpoint (after epoch ``epoch``)."""
        save_checkpoint(path, self.model, self.optimizer,
                        train_state=self._train_state(epoch),
                        arrays=self._extra_arrays())

    def resume(self, path: str) -> int:
        """Restore a run checkpoint in place; returns the next epoch index.

        The trainer must have been constructed exactly as for the original
        run (same model factory/seed, datasets, and config): the recorded
        architecture is replayed onto the fresh model, then all weights,
        momentum, RNG streams, and run counters are restored.
        """
        meta, arrays = restore_checkpoint(path, self.model, self.optimizer)
        state = meta.get("train_state")
        if state is None:
            raise ValueError(
                f"checkpoint {path!r} has no training state (format v1?); "
                "exact resume needs a checkpoint written by "
                "Trainer.save_run_checkpoint")
        self._first_batch_done = bool(state["first_batch_done"])
        self.lr_scale = float(state["lr_scale"])
        self._cum_flops = float(state["cum_flops"])
        self.loader.load_state_dict(state["loader"])
        self.log = RunLog.from_dict(state["run_log"])
        self._restore_extra(state, arrays)
        return int(state["epoch"]) + 1

    def _maybe_checkpoint(self, epoch: int) -> None:
        """Periodic checkpoint + retention per the config (no-op if off)."""
        cfg = self.cfg
        if not cfg.checkpoint_every or not cfg.checkpoint_dir:
            return
        if (epoch + 1) % cfg.checkpoint_every != 0:
            return
        self.save_run_checkpoint(
            checkpoint_path(cfg.checkpoint_dir, epoch), epoch)
        prune_old_checkpoints(cfg.checkpoint_dir, cfg.checkpoint_keep)

    def evaluate(self) -> float:
        """Top-1 accuracy on the validation set (after BN recalibration).

        The model's train/eval mode is restored on exit — evaluating must
        not flip a model that was in eval mode back into train mode.
        """
        was_training = self.model.training
        if self.cfg.bn_recal_batches > 0:
            from ..nn.bn_utils import recalibrate_bn
            bs = max(self.loader.batch_size, 64)
            batches = [self.train_set.x[i * bs:(i + 1) * bs]
                       for i in range(self.cfg.bn_recal_batches)]
            recalibrate_bn(self.model, [b for b in batches if len(b)])
        self.model.eval()
        plans = self._eval_plans if self._compile_active() else None
        correct = 0
        n = len(self.val_set)
        for lo in range(0, n, self.cfg.eval_batch):
            xb = self.val_set.x[lo:lo + self.cfg.eval_batch]
            yb = self.val_set.y[lo:lo + self.cfg.eval_batch]
            logits, captured = forward_step(self.model, xb, plans,
                                            capture_forward)
            self._note_capture(captured)
            correct += int((logits.argmax(1) == yb).sum())
        self.model.train(was_training)
        return correct / n

    # -- instrumentation ------------------------------------------------------
    def _make_record(self, epoch: int, train_loss: float, train_acc: float,
                     comm_epoch: float) -> EpochRecord:
        graph = self.model.graph
        bs = self.loader.batch_size
        rec = EpochRecord(
            epoch=epoch, train_loss=train_loss, train_acc=train_acc,
            val_acc=self.evaluate(),
            lr=self.optimizer.lr, batch_size=bs,
            params=self.model.num_parameters(),
            inference_flops=inference_flops(graph),
            train_flops_per_sample=training_flops_per_sample(graph),
            cumulative_train_flops=self._cum_flops,
            memory_bytes=iteration_memory_bytes(graph, bs),
            bn_bytes_per_iter=bn_traffic_bytes(graph, bs),
            comm_bytes_epoch=comm_epoch if comm_epoch else
            epoch_comm_bytes(graph, len(self.train_set), bs,
                             max(self.cfg.workers, 4)),
            channel_sparsity=model_channel_sparsity(graph),
            removed_layers=graph.removed_layers(),
        )
        mm = self._last_mem_metrics
        if mm:
            rec.mem_peak_bytes = float(mm["peak_bytes"])
            rec.arena_bytes = float(mm["arena_bytes"])
            rec.mem_plan_savings = float(mm["savings"])
        if self._elastic is not None:
            rec.dist_stall_time = self._epoch_stall
            rec.dist_active_workers = self._elastic.active_workers
            rec.dist_failures = len(self._elastic.failures)
        elif self.cfg.workers > 1:
            rec.dist_active_workers = self.cfg.workers
        for dev in MODELED_DEVICES:
            rec.epoch_time_model[dev] = epoch_time(
                graph, len(self.train_set),
                max(1, bs // max(self.cfg.workers, 1)),
                DEVICES[dev], workers=max(self.cfg.workers, 1))
        return rec

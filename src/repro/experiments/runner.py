"""Shared experiment runner with run caching.

Most figures/tables reuse the same underlying training runs (e.g. the dense
ResNet50 baseline appears in Tab. 1, Tab. 4, Fig. 8, Fig. 9...).  ``Runs``
centralizes run construction, keeps trained models in memory for experiments
that need weights (Tab. 2 throughput, Fig. 12 density), and caches
:class:`~repro.train.metrics.RunLog` JSON on disk so repeated benchmark
invocations do not retrain.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Optional, Tuple

from ..costmodel import MemoryModel, iteration_memory_bytes
from ..distributed import DynamicBatchAdjuster
from ..io.checkpoint import periodic_checkpoints, read_meta
from ..train import (AMCLikeConfig, AMCLikePruner, OneTimeConfig,
                     OneTimeTrainer, PruneTrainConfig, PruneTrainTrainer,
                     RunLog, SSLConfig, SSLTrainer, Trainer, TrainerConfig)
from .configs import (Scale, epochs_for, interval_for, make_dataset,
                      make_model)

DEFAULT_CACHE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))), ".cache",
    "runs")


class Runs:
    """Run factory + cache for one experiment scale.

    With ``checkpoint_every > 0``, every training run writes periodic
    crash-recovery checkpoints (format v2, atomic) into a per-run
    subdirectory of ``checkpoint_dir`` and **auto-resumes** from the latest
    one, so an interrupted benchmark sweep picks up where it died instead of
    retraining from scratch.  Retention keeps the newest
    ``checkpoint_keep`` checkpoints per run.
    """

    def __init__(self, scale: Scale, cache_dir: Optional[str] = None,
                 use_disk_cache: bool = True,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 0,
                 checkpoint_keep: int = 3):
        self.scale = scale
        self.cache_dir = cache_dir or DEFAULT_CACHE_DIR
        self.use_disk_cache = use_disk_cache
        self.checkpoint_dir = checkpoint_dir or os.path.join(
            self.cache_dir, "checkpoints")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        self._logs: Dict[str, RunLog] = {}
        self._models: Dict[str, object] = {}
        self._trainers: Dict[str, object] = {}
        self._datasets: Dict[str, tuple] = {}

    def _checkpointed(self, cfg, key: str):
        """``cfg`` pointed at this run's checkpoint subdirectory."""
        if self.checkpoint_every:
            cfg.checkpoint_every = self.checkpoint_every
            cfg.checkpoint_dir = os.path.join(self.checkpoint_dir, key)
            cfg.checkpoint_keep = self.checkpoint_keep
        return cfg

    @staticmethod
    def _train_with_resume(trainer) -> RunLog:
        """Run training, auto-resuming from the newest readable checkpoint.

        The periodic checkpoints are tried newest first; one that fails the
        pre-flight (truncated, corrupt, or without run state) is skipped,
        and with none readable the run starts from scratch.  The pre-flight
        reads every array before the trainer is touched, so a bad file
        never leaves it half-restored.
        """
        if trainer.cfg.checkpoint_every:
            for path in periodic_checkpoints(trainer.cfg.checkpoint_dir):
                try:
                    ok = "train_state" in read_meta(path)
                except Exception:
                    ok = False
                if ok:
                    return trainer.train(resume_from=path)
        return trainer.train()

    # -- plumbing ------------------------------------------------------------
    def dataset(self, name: str):
        if name not in self._datasets:
            self._datasets[name] = make_dataset(name, self.scale,
                                                seed=self.scale.seed)
        return self._datasets[name]

    def _key(self, **kw) -> str:
        blob = json.dumps({"scale": self.scale.name, **kw}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:20]

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _load_disk(self, key: str) -> Optional[RunLog]:
        path = self._disk_path(key)
        if self.use_disk_cache and os.path.exists(path):
            with open(path) as fh:
                return RunLog.from_dict(json.load(fh))
        return None

    def _store_disk(self, key: str, log: RunLog) -> None:
        if not self.use_disk_cache:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        with open(self._disk_path(key), "w") as fh:
            json.dump(log.to_dict(), fh)

    def model_for(self, key: str):
        """Trained model of a previous run (in-memory hits only)."""
        return self._models.get(key)

    def trainer_for(self, key: str):
        return self._trainers.get(key)

    def _base_cfg_kwargs(self, dataset: str) -> dict:
        return dict(
            epochs=epochs_for(dataset, self.scale),
            batch_size=self.scale.batch_size,
            lr=0.1, momentum=0.9, weight_decay=5e-4,
            augment=self.scale.augment, seed=self.scale.seed,
            log_every=0)

    # -- run constructors ----------------------------------------------------
    def _run(self, key: str, build: Callable[[], tuple],
             need_model: bool = False, cacheable: bool = True
             ) -> Tuple[str, RunLog]:
        """The one run recipe: an in-memory hit (holding the model when
        ``need_model``), else a disk hit (when ``cacheable`` and no model is
        needed), else ``build() -> (model, trainer, log)`` trains the run,
        which is then cached in memory and on disk."""
        if key in self._logs and (not need_model or key in self._models):
            return key, self._logs[key]
        if cacheable and not need_model:
            hit = self._load_disk(key)
            if hit is not None:
                self._logs[key] = hit
                return key, hit
        model, trainer, log = build()
        self._logs[key] = log
        self._models[key] = model
        self._trainers[key] = trainer
        self._store_disk(key, log)
        return key, log

    def dense(self, model_name: str, dataset: str,
              need_model: bool = False) -> Tuple[str, RunLog]:
        key = self._key(method="dense", model=model_name, ds=dataset)

        def build():
            train, val = self.dataset(dataset)
            model = make_model(model_name, dataset, self.scale,
                               seed=self.scale.seed)
            cfg = TrainerConfig(**self._base_cfg_kwargs(dataset))
            tr = Trainer(model, train, val, self._checkpointed(cfg, key))
            return model, tr, self._train_with_resume(tr)
        return self._run(key, build, need_model)

    def prunetrain(self, model_name: str, dataset: str,
                   ratio: float = 0.25, interval: Optional[int] = None,
                   dynamic_batch: bool = False,
                   memory_capacity: Optional[float] = None,
                   workers: int = 1, track_convs=(),
                   zero_sparse: bool = True,
                   per_group_size_scaling: bool = False,
                   lambda_scale: Optional[float] = None,
                   remove_layers: bool = True,
                   need_model: bool = False,
                   seed: Optional[int] = None) -> Tuple[str, RunLog]:
        interval = interval if interval is not None \
            else interval_for(dataset, self.scale)
        # Explicit lambda_scale selects the paper's Eq.-3 "ratio" mode (used
        # by the λ-setup ablation); otherwise the architecture-independent
        # "rate" mode drives the compressed schedules (see PruneTrainConfig).
        lambda_mode = "ratio" if lambda_scale is not None else "rate"
        lam_scale = lambda_scale if lambda_scale is not None else 1.0
        key = self._key(method="prunetrain", model=model_name, ds=dataset,
                        ratio=ratio, interval=interval, dyn=dynamic_batch,
                        cap=memory_capacity, workers=workers,
                        zs=zero_sparse, pgs=per_group_size_scaling,
                        ls=lam_scale, mode=lambda_mode,
                        budget=PruneTrainConfig.decay_budget,
                        rl=remove_layers,
                        tracked=bool(track_convs), seed=seed)

        def build():
            train, val = self.dataset(dataset)
            model = make_model(model_name, dataset, self.scale,
                               seed=seed if seed is not None
                               else self.scale.seed)
            base = self._base_cfg_kwargs(dataset)
            if seed is not None:
                base["seed"] = seed
            cfg = PruneTrainConfig(
                **base, penalty_ratio=ratio, reconfig_interval=interval,
                threshold=None, lambda_scale=lam_scale,
                lambda_mode=lambda_mode, zero_sparse=zero_sparse,
                remove_layers=remove_layers,
                per_group_size_scaling=per_group_size_scaling)
            cfg.workers = workers
            adjuster = None
            if dynamic_batch:
                cap = memory_capacity or self._default_capacity(model)
                adjuster = DynamicBatchAdjuster(
                    MemoryModel(capacity_bytes=cap),
                    granularity=max(8, self.scale.batch_size // 4),
                    max_batch=min(512, self.scale.n_train // 2))
            tr = PruneTrainTrainer(model, train, val,
                                   self._checkpointed(cfg, key),
                                   batch_adjuster=adjuster,
                                   track_convs=track_convs)
            return model, tr, self._train_with_resume(tr)
        return self._run(key, build, need_model,
                         cacheable=not track_convs)

    def ssl(self, model_name: str, dataset: str, ratio: float = 0.25
            ) -> Tuple[str, RunLog]:
        key = self._key(method="ssl", model=model_name, ds=dataset,
                        ratio=ratio)

        def build():
            train, val = self.dataset(dataset)
            # Phase 1 of SSL is exactly a dense training run of the same
            # model; reuse the cached dense baseline (weights + cost
            # accounting).
            dense_key, dense_log = self.dense(model_name, dataset,
                                              need_model=True)
            model = make_model(model_name, dataset, self.scale,
                               seed=self.scale.seed)
            model.load_state_dict(self.model_for(dense_key).state_dict())
            cfg = SSLConfig(**self._base_cfg_kwargs(dataset),
                            penalty_ratio=ratio,
                            threshold=None, lambda_mode="rate",
                            zero_sparse=True,
                            pretrain_epochs=epochs_for(dataset, self.scale))
            tr = SSLTrainer(model, train, val, cfg,
                            pretrained=True, pretrain_log=dense_log)
            return model, tr, tr.train()
        return self._run(key, build)

    def onetime(self, model_name: str, dataset: str, reconfig_epoch: int,
                ratio: float = 0.25) -> Tuple[str, RunLog]:
        key = self._key(method="onetime", model=model_name, ds=dataset,
                        ratio=ratio, at=reconfig_epoch)

        def build():
            train, val = self.dataset(dataset)
            model = make_model(model_name, dataset, self.scale,
                               seed=self.scale.seed)
            cfg = OneTimeConfig(**self._base_cfg_kwargs(dataset),
                                penalty_ratio=ratio,
                                threshold=None, lambda_mode="rate",
                                zero_sparse=True,
                                reconfig_epoch=reconfig_epoch)
            tr = OneTimeTrainer(model, train, val,
                                self._checkpointed(cfg, key))
            return model, tr, self._train_with_resume(tr)
        return self._run(key, build)

    def amc_like(self, model_name: str, dataset: str,
                 target_inference_ratio: float = 0.5) -> Tuple[str, RunLog]:
        key = self._key(method="amc", model=model_name, ds=dataset,
                        target=target_inference_ratio)

        def build():
            train, val = self.dataset(dataset)
            model = make_model(model_name, dataset, self.scale,
                               seed=self.scale.seed)
            epochs = epochs_for(dataset, self.scale)
            cfg = AMCLikeConfig(**self._base_cfg_kwargs(dataset),
                                target_inference_ratio=target_inference_ratio,
                                pretrain_epochs=epochs,
                                finetune_epochs=max(1, epochs // 6))
            pruner = AMCLikePruner(model, train, val, cfg)
            return model, pruner, pruner.run()
        return self._run(key, build)

    # -- helpers ----------------------------------------------------------------
    def _default_capacity(self, model) -> float:
        """Capacity such that the *initial* batch just fits (the paper's
        ImageNet setup: start at the largest batch that fits)."""
        return iteration_memory_bytes(model.graph,
                                      self.scale.batch_size) * 1.1


#: Process-wide runner registry so every benchmark shares one cache.
_RUNNERS: Dict[str, Runs] = {}


def get_runs(scale: Scale, **kw) -> Runs:
    """Process-wide :class:`Runs` for ``scale`` (shared across experiments)."""
    if scale.name not in _RUNNERS:
        _RUNNERS[scale.name] = Runs(scale, **kw)
    return _RUNNERS[scale.name]

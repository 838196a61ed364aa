"""Trainers: dense baseline, PruneTrain (Algorithm 1), SSL, one-time, AMC.

These tests run tiny configurations and verify *mechanics* (λ setup, reg
gradients applied, reconfigurations executed, logs populated, state
consistency) rather than learning outcomes, which the benchmark suite
exercises at a larger scale.
"""

import dataclasses

import numpy as np
import pytest

from repro.costmodel import MemoryModel, iteration_memory_bytes
from repro.data import make_synthetic
from repro.distributed import DynamicBatchAdjuster
from repro.nn import resnet20, resnet50_cifar, vgg11
from repro.train import (AMCLikeConfig, AMCLikePruner, OneTimeConfig,
                         OneTimeTrainer, PruneTrainConfig, PruneTrainTrainer,
                         RunLog, SSLConfig, SSLTrainer, Trainer,
                         TrainerConfig)


@pytest.fixture(scope="module")
def data():
    train = make_synthetic(10, 128, hw=8, noise=0.8, seed=0, name="t")
    val = make_synthetic(10, 64, hw=8, noise=0.8, seed=1, name="v")
    return train, val


def tiny_cfg(**kw):
    base = dict(epochs=3, batch_size=32, augment=False, log_every=0)
    base.update(kw)
    return base


#: non-default TrainerConfig fields a multi-phase run must hand every phase
PHASE_FIELDS = dict(bn_recal_batches=0, compile_step=False, eval_batch=48,
                    lr_milestone_fractions=(0.5,), lr_gamma=0.5, profile=True,
                    dist_engine="sim")


def _record_phase_configs(monkeypatch, module):
    """Swap ``module.Trainer`` for a subclass that records its config."""
    seen = []

    class Recording(Trainer):
        def __init__(self, model, train_set, val_set, config):
            seen.append(config)
            super().__init__(model, train_set, val_set, config)

    monkeypatch.setattr(module, "Trainer", Recording)
    return seen


def _assert_phases_inherit(seen, cfg):
    for phase in seen:
        assert type(phase) is TrainerConfig
        for f in dataclasses.fields(TrainerConfig):
            if f.name in ("epochs", "lr", "seed"):
                continue
            want = (f.default if f.name.startswith("checkpoint_")
                    else getattr(cfg, f.name))
            assert getattr(phase, f.name) == want, f.name


class TestDenseTrainer:
    def test_produces_full_log(self, data):
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg()))
        log = tr.train()
        assert len(log.records) == 3
        rec = log.records[-1]
        assert rec.inference_flops > 0
        assert rec.memory_bytes > 0
        assert rec.bn_bytes_per_iter > 0
        assert rec.cumulative_train_flops > 0
        assert "1080ti" in rec.epoch_time_model
        assert 0 <= rec.val_acc <= 1

    def test_a_failed_capture_seals_one_attempt_per_key(self, data, capsys):
        """Capture fails closed on a model it cannot record.  The plan cache
        seals each failure per (train/eval, batch shape) key, so a 2-epoch
        run attempts one capture per key, prints each reason once and
        otherwise steps and evaluates eagerly — bit for bit the run with
        compiled stepping off."""
        from repro.tensor.compile import STATS
        from ..conftest import UNRECORDED, uncapturable
        from .test_resume import assert_logs_identical
        train, val = data

        def run(compile_step):
            tr = Trainer(uncapturable(resnet20(10, width_mult=0.25,
                                               input_hw=8)),
                         train, val, TrainerConfig(**tiny_cfg(
                             epochs=2, batch_size=48, eval_batch=48,
                             compile_step=compile_step)))
            return tr.train()

        eager = run(False)
        capsys.readouterr()
        before = STATS.fallbacks
        compiled = run(True)
        # train batches 48, 48, 32 and eval batches 48, 16: four keys
        assert STATS.fallbacks - before == 4
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "compile_step fallback:" in line]
        assert lines == [f"[dense] compile_step fallback: {UNRECORDED}"]
        assert_logs_identical(eager, compiled)

    def test_profiled_run_that_raises_disables_profiler(self, data):
        """A profiled run that raises must not leave the process-wide
        profiler on (every later op timed, its counters polluted)."""
        from repro.profiler import PROFILER
        train, val = data

        class Boom(Trainer):
            def post_backward(self):
                raise RuntimeError("boom")

        tr = Boom(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                  TrainerConfig(**tiny_cfg(epochs=1, profile=True)))
        with pytest.raises(RuntimeError, match="boom"):
            tr.train()
        assert PROFILER.enabled is False

    def test_loss_decreases(self, data):
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.5, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg(epochs=5)))
        log = tr.train()
        losses = log.series("train_loss")
        assert losses[-1] < losses[0]

    def test_lr_schedule_applied(self, data):
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg(epochs=4, lr=0.1)))
        log = tr.train()
        lrs = log.series("lr")
        assert lrs[0] == pytest.approx(0.1)
        assert lrs[-1] < 0.1  # decayed at 50%/75% milestones

    def test_cumulative_flops_monotone(self, data):
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg()))
        log = tr.train()
        cum = log.series("cumulative_train_flops")
        assert (np.diff(cum) > 0).all()

    def test_data_parallel_workers(self, data):
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg(epochs=2, workers=2)))
        log = tr.train()
        assert log.records[-1].comm_bytes_epoch > 0

    def test_evaluate_restores_model_mode(self, data):
        """evaluate() must put the model back in whatever mode it found it
        in — not force training mode on a model being used for inference."""
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg(epochs=1)))
        tr.model.eval()
        tr.evaluate()
        assert not tr.model.training
        tr.model.train()
        tr.evaluate()
        assert tr.model.training


class TestPruneTrainTrainer:
    def _trainer(self, data, **cfg_kw):
        train, val = data
        base = dict(penalty_ratio=0.25, reconfig_interval=1,
                    lambda_scale=50.0, threshold=5e-3, zero_sparse=True)
        base.update(cfg_kw)
        model = resnet50_cifar(10, width_mult=0.25, input_hw=8)
        return PruneTrainTrainer(model, train, val,
                                 PruneTrainConfig(**tiny_cfg(), **base))

    def test_lambda_set_on_first_batch(self, data):
        tr = self._trainer(data)
        assert tr.lasso.lam is None
        tr.train()
        assert tr.lasso.lam is not None and tr.lasso.lam > 0

    def test_lambda_scale_applied(self, data):
        t1 = self._trainer(data, lambda_scale=1.0)
        t1.train()
        t2 = self._trainer(data, lambda_scale=50.0)
        t2.train()
        assert t2.lasso.lam == pytest.approx(50.0 * t1.lasso.lam, rel=0.3)

    def test_rate_mode_lambda_architecture_independent(self, data):
        """In "rate" mode, λ targets a fixed norm-decay budget, so it must
        be of the same magnitude for small and large models (unlike Eq. 3's
        λ ∝ 1/R, which starves big models on short schedules)."""
        train, val = data
        lams = {}
        for name, factory, wm in [("small", resnet20, 0.25),
                                  ("large", resnet50_cifar, 0.375)]:
            model = factory(10, width_mult=wm, input_hw=8)
            cfg = PruneTrainConfig(**tiny_cfg(epochs=1), penalty_ratio=0.25,
                                   lambda_mode="rate", reconfig_interval=0)
            tr = PruneTrainTrainer(model, train, val, cfg)
            tr.train()
            lams[name] = tr.lasso.lam
        assert 0.2 < lams["large"] / lams["small"] < 5.0

    def test_rate_mode_scales_with_ratio(self, data):
        train, val = data
        lams = []
        for ratio in (0.1, 0.25, 0.4):
            model = resnet20(10, width_mult=0.25, input_hw=8)
            cfg = PruneTrainConfig(**tiny_cfg(epochs=1), penalty_ratio=ratio,
                                   lambda_mode="rate", reconfig_interval=0)
            tr = PruneTrainTrainer(model, train, val, cfg)
            tr.train()
            lams.append(tr.lasso.lam)
        assert lams[0] < lams[1] < lams[2]

    def test_unknown_lambda_mode_raises(self, data):
        train, val = data
        model = resnet20(10, width_mult=0.25, input_hw=8)
        cfg = PruneTrainConfig(**tiny_cfg(epochs=1), penalty_ratio=0.25,
                               lambda_mode="bogus")
        tr = PruneTrainTrainer(model, train, val, cfg)
        with pytest.raises(ValueError, match="lambda_mode"):
            tr.train()

    def test_auto_threshold_set_above_floor(self, data):
        train, val = data
        model = resnet20(10, width_mult=0.25, input_hw=8)
        cfg = PruneTrainConfig(**tiny_cfg(epochs=1), penalty_ratio=0.25,
                               lambda_mode="rate", threshold=None,
                               reconfig_interval=0)
        tr = PruneTrainTrainer(model, train, val, cfg)
        tr.train()
        assert tr.threshold >= 1e-4
        assert tr.threshold == pytest.approx(
            max(1e-4, 3.0 * cfg.lr * tr.lasso.lam))

    def test_derived_threshold_does_not_mutate_config(self, data):
        """Regression: the derived threshold used to be written back into
        the (possibly shared) config, so a sweep preset reused across runs
        silently carried run 1's derived value into run 2."""
        train, val = data
        cfg = PruneTrainConfig(**tiny_cfg(epochs=1), penalty_ratio=0.25,
                               lambda_mode="rate", threshold=None,
                               reconfig_interval=0)
        tr1 = PruneTrainTrainer(resnet20(10, width_mult=0.25, input_hw=8),
                                train, val, cfg)
        tr1.train()
        assert cfg.threshold is None
        # a second run sharing the config must derive its own threshold
        tr2 = PruneTrainTrainer(resnet20(10, width_mult=0.5, input_hw=8),
                                train, val, cfg)
        assert tr2._derived_threshold is None
        tr2.train()
        assert cfg.threshold is None
        assert tr2.threshold == pytest.approx(
            max(1e-4, 3.0 * cfg.lr * tr2.lasso.lam))

    def test_reconfigures_every_interval(self, data):
        tr = self._trainer(data)
        tr.train()
        # interval=1, 3 epochs, margin 0 -> reconfigs at end of epochs 1, 2
        assert len(tr.reports) == 2

    def test_no_reconfig_when_interval_zero(self, data):
        tr = self._trainer(data, reconfig_interval=0)
        tr.train()
        assert tr.reports == []

    def test_reg_loss_logged(self, data):
        tr = self._trainer(data)
        log = tr.train()
        assert log.records[-1].reg_loss > 0
        assert log.records[-1].lam > 0

    def test_lasso_loss_computed_per_record_not_per_step(self, monkeypatch):
        """Regression: ``post_backward`` used to return ``lasso.loss()`` —
        every group norm of every conv re-derived each step — to a caller
        that dropped it.  The regularizer's value is needed once to set the
        coefficient and once per epoch record."""
        from repro.experiments.configs import SMOKE, make_dataset, make_model
        from repro.prune.group_lasso import GroupLasso
        calls = []
        raw_loss = GroupLasso.raw_loss
        monkeypatch.setattr(
            GroupLasso, "raw_loss",
            lambda self: calls.append(1) or raw_loss(self))
        train, val = make_dataset("cifar10s", SMOKE)
        cfg = PruneTrainConfig(
            epochs=2, batch_size=SMOKE.batch_size, augment=False,
            log_every=0, penalty_ratio=0.25, reconfig_interval=0,
            lambda_scale=SMOKE.lambda_scale(2))
        tr = PruneTrainTrainer(make_model("resnet32", "cifar10s", SMOKE),
                               train, val, cfg)
        log = tr.train()
        assert tr.loader.batches_per_epoch() > 1
        assert len(calls) == 1 + len(log.records) == 3
        # no step ran after the last record, so it logged today's value
        assert log.records[-1].reg_loss == tr.lasso.loss() > 0

    def test_graph_valid_throughout(self, data):
        tr = self._trainer(data)
        tr.train()
        tr.model.graph.validate()

    def test_regularization_shrinks_weight_norms(self, data):
        dense = Trainer(resnet50_cifar(10, width_mult=0.25, input_hw=8),
                        *data, TrainerConfig(**tiny_cfg()))
        dense.train()
        pt = self._trainer(data, reconfig_interval=0)
        pt.train()
        norm_dense = sum(float((p.data ** 2).sum())
                         for p in dense.model.parameters())
        norm_pt = sum(float((p.data ** 2).sum())
                      for p in pt.model.parameters())
        assert norm_pt < norm_dense

    def test_tracker_integration(self, data):
        train, val = data
        model = resnet50_cifar(10, width_mult=0.25, input_hw=8)
        cfg = PruneTrainConfig(**tiny_cfg(), penalty_ratio=0.25,
                               reconfig_interval=1, lambda_scale=50.0,
                               threshold=5e-3)
        tr = PruneTrainTrainer(model, train, val, cfg,
                               track_convs=("s0b0.conv1",))
        tr.train()
        assert tr.tracker.matrix("s0b0.conv1").shape[0] == 3

class TestDynamicBatch:
    def test_batch_grows_when_capacity_allows(self, data):
        train, val = data
        model = resnet50_cifar(10, width_mult=0.25, input_hw=8)
        cap = iteration_memory_bytes(model.graph, 32) * 4  # generous
        adjuster = DynamicBatchAdjuster(MemoryModel(cap), granularity=8,
                                        max_batch=128)
        cfg = PruneTrainConfig(**tiny_cfg(), penalty_ratio=0.25,
                               reconfig_interval=1, lambda_scale=50.0,
                               threshold=5e-3)
        tr = PruneTrainTrainer(model, train, val, cfg,
                               batch_adjuster=adjuster)
        log = tr.train()
        assert log.records[-1].batch_size > 32
        assert tr.lr_scale > 1.0

    def test_lr_scale_tracks_batch_ratio(self, data):
        train, val = data
        model = resnet50_cifar(10, width_mult=0.25, input_hw=8)
        cap = iteration_memory_bytes(model.graph, 32) * 4
        adjuster = DynamicBatchAdjuster(MemoryModel(cap), granularity=8,
                                        max_batch=128)
        cfg = PruneTrainConfig(**tiny_cfg(), penalty_ratio=0.25,
                               reconfig_interval=1, lambda_scale=50.0,
                               threshold=5e-3)
        tr = PruneTrainTrainer(model, train, val, cfg,
                               batch_adjuster=adjuster)
        log = tr.train()
        assert tr.lr_scale == pytest.approx(
            log.records[-1].batch_size / 32, rel=1e-6)


class TestSSLTrainer:
    def test_two_phases_merged(self, data):
        train, val = data
        model = resnet20(10, width_mult=0.25, input_hw=8)
        cfg = SSLConfig(**tiny_cfg(epochs=2), penalty_ratio=0.25,
                        lambda_scale=50.0, threshold=5e-3,
                        pretrain_epochs=2)
        tr = SSLTrainer(model, train, val, cfg)
        log = tr.train()
        assert len(log.records) == 4  # 2 pretrain + 2 sparsify
        assert log.method == "ssl"
        # cumulative FLOPs continue across phases
        cum = log.series("cumulative_train_flops")
        assert (np.diff(cum) > 0).all()

    def test_ssl_never_reconfigures_midrun(self, data):
        train, val = data
        model = resnet20(10, width_mult=0.25, input_hw=8)
        cfg = SSLConfig(**tiny_cfg(epochs=2), penalty_ratio=0.25,
                        lambda_scale=50.0, threshold=5e-3,
                        pretrain_epochs=1)
        assert cfg.reconfig_interval == 0
        tr = SSLTrainer(model, train, val, cfg)
        log = tr.train()
        # params constant until the final one-shot prune
        params = log.series("params")
        assert (params == params[0]).all()

    def test_pretrain_phase_inherits_the_run_config(self, data,
                                                    monkeypatch):
        from repro.train import ssl
        seen = _record_phase_configs(monkeypatch, ssl)
        train, val = data
        cfg = SSLConfig(**tiny_cfg(epochs=1, lr=0.05, seed=3),
                        penalty_ratio=0.25, pretrain_epochs=2,
                        **PHASE_FIELDS)
        SSLTrainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                   cfg).train()
        assert [(c.epochs, c.lr, c.seed) for c in seen] == [(2, 0.05, 3)]
        _assert_phases_inherit(seen, cfg)

    def test_ssl_training_cost_about_twice_dense(self, data):
        train, val = data
        dense_model = resnet20(10, width_mult=0.25, input_hw=8)
        dense = Trainer(dense_model, train, val,
                        TrainerConfig(**tiny_cfg(epochs=2))).train()
        model = resnet20(10, width_mult=0.25, input_hw=8)
        cfg = SSLConfig(**tiny_cfg(epochs=2), penalty_ratio=0.25,
                        lambda_scale=1.0, threshold=1e-4, pretrain_epochs=2)
        ssl = SSLTrainer(model, train, val, cfg).train()
        ratio = ssl.total_train_flops / dense.total_train_flops
        assert ratio == pytest.approx(2.0, rel=0.05)


class TestOneTimeTrainer:
    def test_single_reconfiguration(self, data):
        train, val = data
        model = resnet50_cifar(10, width_mult=0.25, input_hw=8)
        cfg = OneTimeConfig(**tiny_cfg(epochs=4), penalty_ratio=0.25,
                            lambda_scale=50.0, threshold=5e-3,
                            reconfig_epoch=2)
        tr = OneTimeTrainer(model, train, val, cfg)
        tr.train()
        assert len(tr.reports) == 1

    def test_no_reconfig_before_epoch(self, data):
        train, val = data
        model = resnet50_cifar(10, width_mult=0.25, input_hw=8)
        cfg = OneTimeConfig(**tiny_cfg(epochs=2), penalty_ratio=0.25,
                            lambda_scale=50.0, threshold=5e-3,
                            reconfig_epoch=10)
        tr = OneTimeTrainer(model, train, val, cfg)
        tr.train()
        assert tr.reports == []


class TestAMCLike:
    def test_reaches_flops_target(self, data):
        from repro.costmodel import inference_flops
        train, val = data
        model = resnet20(10, width_mult=0.5, input_hw=8)
        cfg = AMCLikeConfig(**tiny_cfg(epochs=1), pretrain_epochs=1,
                            finetune_epochs=1, max_rounds=10,
                            target_inference_ratio=0.6)
        pruner = AMCLikePruner(model, train, val, cfg)
        log = pruner.run()
        assert log.notes["dense_inference_flops"] > 0
        assert inference_flops(model.graph) <= \
            0.65 * log.notes["dense_inference_flops"]

    def test_model_still_functional(self, data, rng):
        from repro.tensor import Tensor, no_grad
        train, val = data
        model = resnet20(10, width_mult=0.5, input_hw=8)
        cfg = AMCLikeConfig(**tiny_cfg(epochs=1), pretrain_epochs=1,
                            finetune_epochs=1, max_rounds=4,
                            target_inference_ratio=0.7)
        AMCLikePruner(model, train, val, cfg).run()
        model.eval()
        with no_grad():
            out = model(Tensor(rng.normal(size=(2, 3, 8, 8))
                               .astype(np.float32)))
        assert np.isfinite(out.data).all()

    def test_every_phase_inherits_the_run_config(self, data, monkeypatch,
                                                 tmp_path):
        """Pretraining and every fine-tune round train under all of the
        run's TrainerConfig fields; only epochs/lr/seed are per phase, and
        checkpointing stays off (phases would overwrite each other)."""
        from repro.train import amc_like
        seen = _record_phase_configs(monkeypatch, amc_like)
        train, val = data
        cfg = AMCLikeConfig(**tiny_cfg(epochs=1, lr=0.05, seed=3),
                            pretrain_epochs=1, finetune_epochs=2,
                            max_rounds=2, target_inference_ratio=0.1,
                            **PHASE_FIELDS, checkpoint_every=1,
                            checkpoint_dir=str(tmp_path))
        AMCLikePruner(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                      cfg).run()
        assert [(c.epochs, c.lr, c.seed) for c in seen] == [
            (1, 0.05, 3), (2, 0.05 * 0.01, 4), (2, 0.05 * 0.01, 5)]
        _assert_phases_inherit(seen, cfg)

    def test_channel_importance_ranks_magnitudes(self):
        from repro.train import channel_importance
        m = vgg11(10, width_mult=0.25, input_hw=8)
        node = m.graph.conv_by_name("conv2")
        node.conv.weight.data[0] *= 0.01  # make channel 0 unimportant
        reader = m.graph.readers(node.out_space)[0]
        reader.conv.weight.data[:, 0] *= 0.01
        scores = channel_importance(m.graph)
        sid = node.out_space
        vals = [scores[(sid, c)] for c in range(node.conv.out_channels)]
        assert np.argmin(vals) == 0


class TestRunLogSerialization:
    def test_roundtrip(self, data):
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg(epochs=2)))
        log = tr.train()
        log2 = RunLog.from_dict(log.to_dict())
        assert log2.final_val_acc == log.final_val_acc
        assert log2.total_train_flops == log.total_train_flops
        assert len(log2.records) == len(log.records)
        assert log2.records[0].epoch_time_model == \
            log.records[0].epoch_time_model

    def test_relative_to_keys(self, data):
        train, val = data
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8), train, val,
                     TrainerConfig(**tiny_cfg(epochs=2)))
        log = tr.train()
        rel = log.relative_to(log)
        assert rel["train_flops_ratio"] == pytest.approx(1.0)
        assert rel["inference_flops_ratio"] == pytest.approx(1.0)
        assert rel["val_acc_delta"] == pytest.approx(0.0)

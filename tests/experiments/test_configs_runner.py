"""Experiment configs, λ calibration math, run cache, and formatting."""

import numpy as np
import pytest

from repro.experiments import (DATASETS, MODELS, PAPER, QUICK, SMOKE, Runs,
                               epochs_for, interval_for, lambda_scale_for,
                               make_dataset, make_model)
from repro.experiments.configs import (LAMBDA_SCALE_MAX,
                                       PAPER_REFERENCE_STEPS)
from repro.experiments.format import pct, series, table


class TestLambdaCalibration:
    def test_paper_scale_is_identity(self):
        """At the paper's own horizon the compression factor ~ 1 (clamped
        at 1 from below)."""
        assert lambda_scale_for(182, 50_000 // 128) == 1.0

    def test_shorter_runs_get_larger_lambda(self):
        s1 = lambda_scale_for(100, 100)
        s2 = lambda_scale_for(50, 100)
        assert s2 > s1

    def test_clamped(self):
        assert lambda_scale_for(1, 1) == LAMBDA_SCALE_MAX

    def test_reference_steps_value(self):
        assert PAPER_REFERENCE_STEPS == 182 * (50_000 // 128)


class TestScales:
    def test_presets_ordered_by_size(self):
        assert SMOKE.n_train < QUICK.n_train < PAPER.n_train
        assert SMOKE.epochs < QUICK.epochs < PAPER.epochs

    def test_iters_per_epoch(self):
        assert QUICK.iters_per_epoch() == QUICK.n_train // QUICK.batch_size

    def test_epochs_and_interval_for(self):
        assert epochs_for("cifar10s", QUICK) == QUICK.epochs
        assert epochs_for("imagenet-s", QUICK) == QUICK.epochs_large
        assert interval_for("imagenet-s", QUICK) == \
            QUICK.reconfig_interval_large


class TestFactories:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_make_model(self, name):
        ds = "imagenet-s" if name.endswith("imagenet") else "cifar10s"
        m = make_model(name, ds, SMOKE)
        assert m.num_parameters() > 0
        m.graph.validate()

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_make_dataset(self, name):
        train, val = make_dataset(name, SMOKE)
        assert len(train) == SMOKE.n_train
        assert len(val) == SMOKE.n_val
        assert train.num_classes == DATASETS[name][0]

    def test_dataset_classes_match_model_head(self):
        m = make_model("resnet32", "cifar100s", SMOKE)
        train, _ = make_dataset("cifar100s", SMOKE)
        assert m.fc.out_features == train.num_classes


class TestRunsCache:
    def test_in_memory_cache_hit(self, tmp_path):
        runs = Runs(SMOKE, cache_dir=str(tmp_path))
        k1, log1 = runs.dense("resnet32", "cifar10s")
        k2, log2 = runs.dense("resnet32", "cifar10s")
        assert k1 == k2
        assert log1 is log2

    def test_disk_cache_roundtrip(self, tmp_path):
        runs = Runs(SMOKE, cache_dir=str(tmp_path))
        k1, log1 = runs.dense("resnet32", "cifar10s")
        fresh = Runs(SMOKE, cache_dir=str(tmp_path))
        k2, log2 = fresh.dense("resnet32", "cifar10s")
        assert k1 == k2
        assert log2.final_val_acc == pytest.approx(log1.final_val_acc)
        # disk hits carry no model
        assert fresh.model_for(k2) is None

    def test_need_model_bypasses_disk(self, tmp_path):
        runs = Runs(SMOKE, cache_dir=str(tmp_path))
        runs.dense("resnet32", "cifar10s")
        fresh = Runs(SMOKE, cache_dir=str(tmp_path))
        k, _ = fresh.dense("resnet32", "cifar10s", need_model=True)
        assert fresh.model_for(k) is not None

    def test_different_params_different_keys(self, tmp_path):
        runs = Runs(SMOKE, cache_dir=str(tmp_path), use_disk_cache=False)
        k1 = runs._key(method="prunetrain", ratio=0.1)
        k2 = runs._key(method="prunetrain", ratio=0.2)
        assert k1 != k2

    def test_prunetrain_run_caches(self, tmp_path):
        runs = Runs(SMOKE, cache_dir=str(tmp_path))
        k1, log1 = runs.prunetrain("resnet32", "cifar10s", ratio=0.3)
        k2, log2 = runs.prunetrain("resnet32", "cifar10s", ratio=0.3)
        assert log1 is log2

    def test_ssl_reuses_dense_pretrain(self, tmp_path):
        runs = Runs(SMOKE, cache_dir=str(tmp_path))
        _, ssl_log = runs.ssl("resnet32", "cifar10s", ratio=0.3)
        _, dense_log = runs.dense("resnet32", "cifar10s")
        # SSL log embeds the dense phase: strictly more records and more
        # cumulative FLOPs
        assert len(ssl_log.records) == 2 * len(dense_log.records)
        assert ssl_log.total_train_flops > 1.9 * dense_log.total_train_flops


class TestFormat:
    def test_table_alignment(self):
        out = table(["a", "bb"], [[1, 2.5], ["xxx", 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "|" in lines[0]

    def test_series_format(self):
        assert series("x", [1.0, 2.0], "{:.1f}") == "x: 1.0 2.0"

    def test_pct(self):
        assert pct(0.5) == "50.0%"

    def test_table_scientific_for_extremes(self):
        out = table(["v"], [[1e-9], [1e9]])
        assert "e" in out

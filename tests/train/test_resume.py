"""Exact-resume checkpointing: kill/resume equivalence and run recovery.

The acceptance bar is *bit-exact* resume: a run checkpointed and killed at
a mid-run epoch, then resumed into a freshly constructed trainer, must
produce an :class:`~repro.train.metrics.EpochRecord` trajectory identical
to the uninterrupted run's — including runs that pruned channels, removed
layers, and grew the mini-batch before the kill.  The uninterrupted run
doubles as the killed run: training is deterministic per seed, so its
epoch-k checkpoint is exactly what a run killed after epoch k left behind.
"""

import os

import numpy as np
import pytest

from repro.costmodel import MemoryModel, iteration_memory_bytes
from repro.data import make_synthetic
from repro.distributed import DynamicBatchAdjuster
from repro.io import checkpoint_path, latest_checkpoint
from repro.nn import resnet20
from repro.train import (PruneTrainConfig, PruneTrainTrainer, Trainer,
                         TrainerConfig)

#: every scalar field of EpochRecord that must match exactly across resume
RECORD_FIELDS = (
    "epoch", "train_loss", "train_acc", "val_acc", "reg_loss", "lam", "lr",
    "batch_size", "params", "inference_flops", "train_flops_per_sample",
    "cumulative_train_flops", "memory_bytes", "bn_bytes_per_iter",
    "comm_bytes_epoch", "channel_sparsity", "removed_layers",
)


@pytest.fixture(scope="module")
def data():
    train = make_synthetic(10, 192, hw=8, noise=0.8, seed=0, name="t")
    val = make_synthetic(10, 96, hw=8, noise=0.8, seed=1, name="v")
    return train, val


def assert_logs_identical(full, resumed):
    assert len(full.records) == len(resumed.records)
    for rf, rr in zip(full.records, resumed.records):
        for field in RECORD_FIELDS:
            assert getattr(rf, field) == getattr(rr, field), \
                f"epoch {rf.epoch}: {field} diverged"


def assert_models_identical(m1, m2):
    names1 = [n for n, _ in m1.named_parameters()]
    names2 = [n for n, _ in m2.named_parameters()]
    assert names1 == names2
    for (n, p1), (_, p2) in zip(m1.named_parameters(),
                                m2.named_parameters()):
        assert np.array_equal(p1.data, p2.data), f"{n} diverged"


class TestDenseResume:
    def _trainer(self, data, ckpt_dir):
        train, val = data
        cfg = TrainerConfig(epochs=5, batch_size=32, augment=True,
                            log_every=0, checkpoint_every=1,
                            checkpoint_dir=ckpt_dir, checkpoint_keep=0)
        model = resnet20(10, width_mult=0.25, input_hw=8, seed=11)
        return Trainer(model, train, val, cfg)

    def test_kill_resume_bit_exact(self, data, tmp_path):
        d_full = str(tmp_path / "full")
        full = self._trainer(data, d_full)
        log_full = full.train()

        # "kill" after epoch 2: resume a fresh identical trainer from the
        # epoch-2 checkpoint (shuffle + augmentation RNG mid-stream)
        resumed = self._trainer(data, str(tmp_path / "resumed"))
        log_res = resumed.train(resume_from=checkpoint_path(d_full, 2))

        assert_logs_identical(log_full, log_res)
        assert_models_identical(full.model, resumed.model)


class TestPruneTrainResume:
    """The hard case: architecture, optimizer state, λ/threshold, batch
    size, and LR scaling all co-evolved before the kill."""

    def _trainer(self, data, ckpt_dir):
        train, val = data
        model = resnet20(10, width_mult=0.375, input_hw=8, seed=0)
        # nudge one residual-path conv toward death so the first
        # reconfiguration also removes layers
        model.graph.conv_by_name("s2b1.conv1").conv.weight.data *= 0.02
        cfg = PruneTrainConfig(
            epochs=6, batch_size=32, augment=True, log_every=0,
            penalty_ratio=0.3, reconfig_interval=2, lambda_scale=400.0,
            threshold=None, zero_sparse=True,
            checkpoint_every=1, checkpoint_dir=ckpt_dir, checkpoint_keep=0)
        cap = iteration_memory_bytes(model.graph, 32) * 4
        adjuster = DynamicBatchAdjuster(MemoryModel(cap), granularity=8,
                                        max_batch=128)
        return PruneTrainTrainer(model, train, val, cfg,
                                 batch_adjuster=adjuster,
                                 track_convs=("s0b0.conv1",))

    def test_kill_resume_bit_exact(self, data, tmp_path):
        d_full = str(tmp_path / "full")
        full = self._trainer(data, d_full)
        log_full = full.train()

        # the run must have exercised every dynamic before the kill point
        # (epoch 2, i.e. after the first reconfiguration at end of epoch 1)
        assert full.reports[0].channels_pruned > 0
        assert full.reports[0].removed_layers > 0
        assert log_full.records[1].batch_size > 32
        assert full.lr_scale > 1.0

        resumed = self._trainer(data, str(tmp_path / "resumed"))
        log_res = resumed.train(resume_from=checkpoint_path(d_full, 2))

        assert_logs_identical(log_full, log_res)
        assert_models_identical(full.model, resumed.model)
        # derived run state restored and evolved identically
        assert resumed.lasso.lam == full.lasso.lam
        assert resumed.threshold == full.threshold
        assert resumed.lr_scale == full.lr_scale
        assert len(resumed.reports) == len(full.reports)
        for rf, rr in zip(full.reports, resumed.reports):
            assert rf.space_sizes == rr.space_sizes
            assert rf.removed_paths == rr.removed_paths
        # tracker history (Fig. 4 state) identical, original indexing kept
        np.testing.assert_array_equal(
            full.tracker.matrix("s0b0.conv1"),
            resumed.tracker.matrix("s0b0.conv1"))

    def test_resume_does_not_rerun_lambda_setup(self, data, tmp_path):
        """λ/threshold are derived once at step 1; a resumed run must carry
        the recorded values, not re-derive them from its first batch."""
        d_full = str(tmp_path / "full")
        full = self._trainer(data, d_full)
        full.train()
        resumed = self._trainer(data, str(tmp_path / "resumed"))
        resumed.resume(checkpoint_path(d_full, 2))
        assert resumed._first_batch_done
        assert resumed.lasso.lam == full.lasso.lam
        assert resumed._derived_threshold == full._derived_threshold


class TestCheckpointMechanics:
    def test_retention_keeps_last_n(self, data, tmp_path):
        train, val = data
        ckpt_dir = str(tmp_path / "ck")
        cfg = TrainerConfig(epochs=5, batch_size=64, augment=False,
                            log_every=0, checkpoint_every=1,
                            checkpoint_dir=ckpt_dir, checkpoint_keep=2)
        Trainer(resnet20(10, width_mult=0.25, input_hw=8, seed=3),
                train, val, cfg).train()
        kept = sorted(f for f in os.listdir(ckpt_dir)
                      if f.endswith(".npz"))
        assert kept == ["ckpt-ep00003.npz", "ckpt-ep00004.npz"]
        assert latest_checkpoint(ckpt_dir).endswith("ckpt-ep00004.npz")

    def test_no_checkpoints_by_default(self, data, tmp_path):
        train, val = data
        cfg = TrainerConfig(epochs=2, batch_size=64, augment=False,
                            log_every=0)
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8, seed=3),
                     train, val, cfg)
        tr.train()
        assert list(tmp_path.iterdir()) == []

    def test_resume_from_v1_checkpoint_raises(self, data, tmp_path):
        from repro.io import save_checkpoint
        train, val = data
        model = resnet20(10, width_mult=0.25, input_hw=8, seed=3)
        path = str(tmp_path / "v1.npz")
        save_checkpoint(path, model)  # no train_state
        tr = Trainer(resnet20(10, width_mult=0.25, input_hw=8, seed=3),
                     train, val, TrainerConfig(epochs=2, batch_size=64,
                                               augment=False, log_every=0))
        with pytest.raises(ValueError, match="no training state"):
            tr.train(resume_from=path)


class TestRunnerAutoResume:
    def test_interrupted_sweep_picks_up_from_checkpoint(self, tmp_path):
        """Kill a Runs training mid-sweep; the next invocation must resume
        from the newest checkpoint instead of retraining from scratch."""
        from repro.experiments import Runs
        from repro.experiments.configs import SMOKE

        kw = dict(cache_dir=str(tmp_path / "cache"), use_disk_cache=False,
                  checkpoint_dir=str(tmp_path / "ckpts"),
                  checkpoint_every=1, checkpoint_keep=2)

        # uninterrupted reference
        runs_ref = Runs(SMOKE, **kw)
        key, log_ref = runs_ref.dense("resnet32", "cifar10s")

        # simulate the kill: drop the newest checkpoint (as if the run died
        # before writing it), then rerun in a fresh Runs (fresh "process",
        # warm checkpoint dir)
        ckpt_dir = os.path.join(str(tmp_path / "ckpts"), key)
        kept = sorted(os.listdir(ckpt_dir))
        assert len(kept) == 2  # retention
        os.remove(os.path.join(ckpt_dir, kept[-1]))
        kept = kept[:-1]

        calls = {"n": 0}
        orig = Trainer.train

        def counting_train(self, resume_from=None):
            calls["n"] += 1
            calls["resume_from"] = resume_from
            return orig(self, resume_from=resume_from)

        Trainer.train = counting_train
        try:
            runs2 = Runs(SMOKE, **kw)
            key2, log2 = runs2.dense("resnet32", "cifar10s")
        finally:
            Trainer.train = orig

        assert key2 == key
        assert calls["n"] == 1
        assert calls["resume_from"] is not None
        assert calls["resume_from"].endswith(kept[-1])
        # the resumed sweep reproduces the reference trajectory exactly
        assert_logs_identical(log_ref, log2)

    def test_corrupt_newest_checkpoint_resumes_from_previous(self, tmp_path):
        """A newest checkpoint whose meta parses but whose arrays do not is
        skipped: the run resumes from the previous checkpoint and equals
        the uninterrupted run bit for bit."""
        import zipfile

        from repro.experiments import Runs
        from repro.experiments.configs import SMOKE

        kw = dict(cache_dir=str(tmp_path / "cache"), use_disk_cache=False,
                  checkpoint_dir=str(tmp_path / "ckpts"),
                  checkpoint_every=1, checkpoint_keep=2)
        runs_ref = Runs(SMOKE, **kw)
        key, log_ref = runs_ref.dense("resnet32", "cifar10s")
        ckpt_dir = os.path.join(str(tmp_path / "ckpts"), key)
        kept = sorted(os.listdir(ckpt_dir))
        assert len(kept) == 2

        # truncate one conv weight member of the newest; meta.json intact
        newest = os.path.join(ckpt_dir, kept[-1])
        with zipfile.ZipFile(newest) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        victim = next(n for n in members
                      if n.startswith("state/") and "conv" in n)
        members[victim] = members[victim][:len(members[victim]) // 2]
        with zipfile.ZipFile(newest, "w") as zf:
            for name, blob in members.items():
                zf.writestr(name, blob)

        calls = []
        orig = Trainer.train

        def spying_train(self, resume_from=None):
            calls.append(resume_from)
            return orig(self, resume_from=resume_from)

        Trainer.train = spying_train
        try:
            runs2 = Runs(SMOKE, **kw)
            _, log2 = runs2.dense("resnet32", "cifar10s")
        finally:
            Trainer.train = orig
        assert len(calls) == 1 and calls[0].endswith(kept[-2])

        def records(log):
            return [{k: v for k, v in r.items() if k != "wall_time"}
                    for r in log.to_dict()["records"]]
        assert records(log2) == records(log_ref)
        ref, res = runs_ref.trainer_for(key), runs2.trainer_for(key)
        ref_state, res_state = ref.model.state_dict(), res.model.state_dict()
        assert ref_state.keys() == res_state.keys()
        for name in ref_state:
            assert ref_state[name].tobytes() == res_state[name].tobytes()
        for (name, p1), (_, p2) in zip(ref.model.named_parameters(),
                                       res.model.named_parameters()):
            m1, m2 = ref.optimizer.state_for(p1), res.optimizer.state_for(p2)
            assert m1.tobytes() == m2.tobytes(), name

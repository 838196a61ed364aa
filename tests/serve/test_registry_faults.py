"""Fault-injection tests for the serving registry.

Pins the three failure-path behaviors the serving tier promises:

- **evict-under-load**: evicting a model with a batch in flight defers
  the buffer release until the batch completes, then frees the plan
  arenas deterministically (``memplan`` weakref registry empties without
  a GC pass) while the in-flight response stays correct;
- **corrupt / truncated checkpoint**: registration fails with a clean
  :class:`RegistryError` and the registry is left exactly as it was — no
  partial entry, and an existing entry under the same name survives;
- **re-register after evict**: a fresh entry at a higher generation is
  built and plans are recompiled — the evicted entry's plans are released,
  never reused, and re-registration with different weights changes the
  served outputs.
"""

import gc
import threading

import numpy as np
import pytest

from repro.experiments.configs import SMOKE, make_model
from repro.io import save_checkpoint
from repro.serve import ModelRegistry, RegistryError
from repro.tensor import Tensor, no_grad
from repro.tensor import memplan
from repro.tensor.compile import StepPlan

HW = SMOKE.hw


def _model(seed=3):
    return make_model("resnet32", "cifar10s", SMOKE, seed=seed)


def _x(n=4, seed=7):
    return np.random.default_rng(seed).normal(
        size=(n, 3, HW, HW)).astype(np.float32)


class TestEvictUnderLoad:
    def test_inflight_batch_completes_then_arena_releases(self):
        registry = ModelRegistry(max_models=2)
        served = registry.register_model("m", _model())
        x = _x()
        assert served.warm(4, x.shape[1:])
        base = memplan.live_arena_count()

        entered = threading.Event()
        gate = threading.Event()
        original_forward = served.forward

        def stalled_forward(arr):
            entered.set()
            assert gate.wait(10), "test deadlock"
            return original_forward(arr)

        served.forward = stalled_forward
        results = []
        worker = threading.Thread(
            target=lambda: results.append(registry.run("m", x)))
        worker.start()
        assert entered.wait(10)

        registry.evict("m")
        # the in-flight lease defers the release: plans still cached,
        # arenas still live, the running batch keeps its buffers
        assert len(served.plans) == 1
        assert memplan.live_arena_count() == base

        gate.set()
        worker.join(10)
        assert not worker.is_alive()
        # the batch completed correctly despite the eviction
        with no_grad():
            ref = np.stack([served.model(Tensor(x[i:i + 1])).data[0]
                            for i in range(len(x))])
        assert np.array_equal(results[0], ref)
        # ... and the last lease drain released everything, without any
        # gc.collect(): the weakref registry must already be empty
        assert len(served.plans) == 0
        assert memplan.live_arena_count() == base - 1
        with pytest.raises(RegistryError):
            registry.run("m", x)

    def test_idle_evict_releases_immediately(self):
        registry = ModelRegistry(max_models=2)
        served = registry.register_model("m", _model())
        x = _x()
        assert served.warm(4, x.shape[1:])
        key = (4, tuple(x.shape[1:]), x.dtype.str)
        plan = served.plans.lookup(key)
        assert isinstance(plan, StepPlan)
        base = memplan.live_arena_count()
        registry.evict("m")
        assert len(served.plans) == 0
        assert plan._released
        assert memplan.live_arena_count() == base - 1
        with pytest.raises(RuntimeError):
            plan.run_forward(x)


class TestCorruptCheckpoint:
    def _good_checkpoint(self, tmp_path):
        path = str(tmp_path / "good.npz")
        save_checkpoint(path, _model())
        return path

    @pytest.mark.parametrize("kind", ["truncated", "garbage", "missing"])
    def test_clean_error_no_partial_registration(self, tmp_path, kind):
        good = self._good_checkpoint(tmp_path)
        if kind == "truncated":
            raw = open(good, "rb").read()
            bad = str(tmp_path / "trunc.npz")
            with open(bad, "wb") as fh:
                fh.write(raw[:len(raw) // 3])
        elif kind == "garbage":
            bad = str(tmp_path / "garbage.npz")
            with open(bad, "wb") as fh:
                fh.write(b"this is not an npz archive")
        else:
            bad = str(tmp_path / "does-not-exist.npz")
        registry = ModelRegistry(max_models=2)
        with pytest.raises(RegistryError):
            registry.register("m", bad, _model)
        assert registry.models() == []
        with pytest.raises(RegistryError):
            registry.run("m", _x())
        # the registry is not poisoned: a good checkpoint registers fine
        registry.register("m", good, _model)
        assert registry.run("m", _x()).shape == (4, 10)

    def test_failed_reregister_keeps_existing_entry(self, tmp_path):
        good = self._good_checkpoint(tmp_path)
        bad = str(tmp_path / "garbage.npz")
        with open(bad, "wb") as fh:
            fh.write(b"junk")
        registry = ModelRegistry(max_models=2)
        registry.register("m", good, _model)
        before = registry.run("m", _x())
        with pytest.raises(RegistryError):
            registry.register("m", bad, _model)
        assert registry.models() == ["m"]
        assert np.array_equal(registry.run("m", _x()), before)


class TestReRegister:
    def test_recompiles_fresh_generation_plan(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, _model())
        registry = ModelRegistry(max_models=2)
        served1 = registry.register("m", path, _model)
        x = _x()
        out1 = registry.run("m", x)
        key = (4, tuple(x.shape[1:]), x.dtype.str)
        plan1 = served1.plans.lookup(key)
        assert isinstance(plan1, StepPlan)

        registry.evict("m")
        served2 = registry.register("m", path, _model)
        assert served2 is not served1
        assert served2.generation > served1.generation
        out2 = registry.run("m", x)
        plan2 = served2.plans.lookup(key)
        # recompiled, not reused: a new plan in the new entry's own cache,
        # the old plan's buffers are gone
        assert isinstance(plan2, StepPlan) and plan2 is not plan1
        assert served2.plans is not served1.plans
        assert len(served1.plans) == 0 and plan1._released
        assert served2.captures == 1
        # ... and the next batch replays from that cache
        assert np.array_equal(registry.run("m", x), out2)
        assert served2.exact_replays == 1 and served2.captures == 1
        # identical weights -> identical logits through the fresh plan
        assert np.array_equal(out1, out2)

    def test_reregister_with_new_weights_changes_outputs(self):
        registry = ModelRegistry(max_models=2)
        m1 = _model()
        registry.register_model("m", m1)
        x = _x()
        out1 = registry.run("m", x)
        # a retrained/repruned model re-registers under the same name;
        # a stale plan replaying old weights would reproduce out1
        m2 = _model()
        first = next(iter(m2.parameters()))
        first.data = first.data * 1.5
        served2 = registry.register_model("m", m2)
        out2 = registry.run("m", x)
        assert not np.array_equal(out1, out2)
        with no_grad():
            ref = np.stack([served2.model(Tensor(x[i:i + 1])).data[0]
                            for i in range(len(x))])
        assert np.array_equal(out2, ref)
        assert served2.captures == 1

    def test_lru_eviction_bounds_models_and_arenas(self):
        registry = ModelRegistry(max_models=2)
        x = _x(2)
        # Parallel-replay train plans of earlier tests are cyclic garbage
        # that still owns its arenas; count from a collected heap, or a
        # collector pass between here and the asserts moves the base.
        gc.collect()
        base = memplan.live_arena_count()
        for k in range(3):
            registry.register_model(f"m{k}", _model(seed=k))
            registry.run(f"m{k}", x)
        assert registry.evictions == 1
        assert registry.models() == ["m1", "m2"]
        assert memplan.live_arena_count() == base + 2
        with pytest.raises(RegistryError):
            registry.run("m0", x)

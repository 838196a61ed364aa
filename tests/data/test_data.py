"""Synthetic datasets, loader, and augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (Augmenter, DataLoader, Dataset, cifar10s, cifar100s,
                        imagenet_s, make_synthetic)


class TestSynthetic:
    def test_shapes_and_labels(self):
        ds = make_synthetic(10, 100, hw=16)
        assert ds.x.shape == (100, 3, 16, 16)
        assert ds.y.shape == (100,)
        assert ds.x.dtype == np.float32
        assert set(np.unique(ds.y)) <= set(range(10))

    def test_deterministic(self):
        a = make_synthetic(5, 50, hw=8, seed=3)
        b = make_synthetic(5, 50, hw=8, seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        a = make_synthetic(5, 50, hw=8, seed=3)
        b = make_synthetic(5, 50, hw=8, seed=4)
        assert not np.array_equal(a.x, b.x)

    def test_standardized(self):
        ds = make_synthetic(10, 500, hw=16)
        np.testing.assert_allclose(ds.x.mean(axis=(0, 2, 3)), 0, atol=1e-4)
        np.testing.assert_allclose(ds.x.std(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_classes_are_separable(self):
        """A nearest-prototype classifier beats chance by a wide margin —
        the task must be learnable for the training experiments to work."""
        ds = make_synthetic(10, 400, hw=16, noise=1.0, seed=0)
        protos = np.stack([ds.x[ds.y == k].mean(axis=0)
                           for k in range(10)])
        flat = ds.x.reshape(len(ds.x), -1)
        pf = protos.reshape(10, -1)
        pred = ((flat[:, None, :] - pf[None]) ** 2).sum(-1).argmin(1)
        assert (pred == ds.y).mean() > 0.5

    def test_prototypes_shared_across_sample_seeds(self):
        """Train/val splits (different sample seeds) must share class
        prototypes, or the task is unlearnable across splits: per-class
        means of two splits must correlate strongly."""
        a = make_synthetic(5, 400, hw=12, noise=0.8, seed=0)
        b = make_synthetic(5, 400, hw=12, noise=0.8, seed=99)
        for k in range(5):
            ma = a.x[a.y == k].mean(axis=0).reshape(-1)
            mb = b.x[b.y == k].mean(axis=0).reshape(-1)
            corr = np.corrcoef(ma, mb)[0, 1]
            assert corr > 0.5, f"class {k}: prototype corr {corr:.2f}"

    def test_class_seed_changes_prototypes(self):
        a = make_synthetic(5, 50, hw=8, seed=0, class_seed=1)
        b = make_synthetic(5, 50, hw=8, seed=0, class_seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_subset(self):
        ds = make_synthetic(5, 50, hw=8)
        sub = ds.subset(10)
        assert len(sub) == 10
        np.testing.assert_array_equal(sub.x, ds.x[:10])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1, 2, 2)), np.zeros(2, dtype=np.int64), 2)

    @pytest.mark.parametrize("fn,classes", [(cifar10s, 10), (cifar100s, 100),
                                            (imagenet_s, 200)])
    def test_presets(self, fn, classes):
        train, val = fn(n_train=64, n_val=32)
        assert train.num_classes == classes
        assert len(train) == 64 and len(val) == 32


class TestDataLoader:
    def test_covers_dataset_once(self):
        ds = make_synthetic(5, 100, hw=8)
        loader = DataLoader(ds, 32, shuffle=False)
        seen = sum(len(y) for _, y in loader)
        assert seen == 100

    def test_batches_per_epoch(self):
        ds = make_synthetic(5, 100, hw=8)
        assert DataLoader(ds, 32).batches_per_epoch() == 4
        assert len(DataLoader(ds, 50)) == 2

    def test_shuffle_changes_order_per_epoch(self):
        ds = make_synthetic(5, 64, hw=8)
        loader = DataLoader(ds, 64, shuffle=True, seed=0)
        y1 = next(iter(loader))[1].copy()
        y2 = next(iter(loader))[1].copy()
        assert not np.array_equal(y1, y2)

    def test_set_batch_size_mid_run(self):
        """The dynamic mini-batch hook: batch size changes between epochs."""
        ds = make_synthetic(5, 120, hw=8)
        loader = DataLoader(ds, 30)
        assert len([1 for _ in loader]) == 4
        loader.set_batch_size(60)
        assert len([1 for _ in loader]) == 2

    def test_invalid_batch_size(self):
        ds = make_synthetic(5, 10, hw=8)
        with pytest.raises(ValueError):
            DataLoader(ds, 0)
        loader = DataLoader(ds, 2)
        with pytest.raises(ValueError):
            loader.set_batch_size(-1)


class TestAugmenter:
    def test_preserves_shape_dtype(self, rng):
        aug = Augmenter()
        x = rng.normal(size=(16, 3, 8, 8)).astype(np.float32)
        out = aug(x, rng)
        assert out.shape == x.shape and out.dtype == x.dtype

    def test_does_not_mutate_input(self, rng):
        aug = Augmenter()
        x = rng.normal(size=(16, 3, 8, 8)).astype(np.float32)
        orig = x.copy()
        aug(x, rng)
        np.testing.assert_array_equal(x, orig)

    def test_flip_only_reverses_rows(self, rng):
        aug = Augmenter(flip=True, max_shift=0)
        x = rng.normal(size=(64, 1, 4, 4)).astype(np.float32)
        out = aug(x, np.random.default_rng(0))
        flipped = np.array([np.array_equal(out[i], x[i, :, :, ::-1])
                            for i in range(64)])
        same = np.array([np.array_equal(out[i], x[i]) for i in range(64)])
        assert (flipped | same).all()
        assert flipped.any() and same.any()

    def test_shift_is_roll(self, rng):
        aug = Augmenter(flip=False, max_shift=2)
        x = rng.normal(size=(8, 1, 6, 6)).astype(np.float32)
        out = aug(x, np.random.default_rng(1))
        # each sample must equal some roll of the original
        for i in range(8):
            found = any(
                np.array_equal(out[i], np.roll(x[i], (dy, dx), axis=(1, 2)))
                for dy in range(-2, 3) for dx in range(-2, 3))
            assert found


@given(st.integers(1, 64), st.integers(1, 32))
@settings(max_examples=20, deadline=None)
def test_property_loader_batch_sizes(n, bs):
    ds = make_synthetic(3, n, hw=4, seed=0)
    loader = DataLoader(ds, bs, shuffle=False)
    sizes = [len(y) for _, y in loader]
    assert sum(sizes) == n
    assert all(s == bs for s in sizes[:-1])
    assert sizes[-1] <= bs


class TestAugmenterNoiseBuffer:
    """Flip and shift keep the batch dtype, equal a per-sample reference,
    and consume exactly one ``random(n)`` and one ``integers(size=(n, 2))``
    draw per call (resume checkpoints replay the same RNG stream)."""

    def _x(self, n=16, dtype=np.float32):
        return np.random.default_rng(0).standard_normal(
            (n, 3, 8, 8)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_stable(self, dtype):
        out = Augmenter()(self._x(dtype=dtype), np.random.default_rng(1))
        assert out.dtype == dtype

    def test_values_match_reference_formula(self):
        x = self._x()
        out = Augmenter(max_shift=2)(x.copy(), np.random.default_rng(5))
        ref_rng = np.random.default_rng(5)
        flip = ref_rng.random(len(x)) < 0.5
        shifts = ref_rng.integers(-2, 3, size=(len(x), 2))
        ref = np.stack([np.roll(s[:, :, ::-1] if f else s, tuple(d),
                                axis=(1, 2))
                        for s, f, d in zip(x, flip, shifts)])
        assert np.array_equal(out, ref)

    def test_rng_stream_position_unchanged(self):
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        Augmenter(max_shift=2)(self._x(), r1)
        r2.random(16)
        r2.integers(-2, 3, size=(16, 2))
        assert np.array_equal(r1.random(8), r2.random(8))

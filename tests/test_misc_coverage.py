"""Coverage of smaller API corners not exercised elsewhere."""

import numpy as np
import pytest

from repro.data import Augmenter, make_synthetic
from repro.nn import resnet20, resnet50_cifar, vgg11
from repro.prune import junctions, union_redundancy
from repro.tensor import Tensor


class TestTensorCorners:
    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_name_attribute(self):
        t = Tensor([1.0], name="probe")
        assert t.name == "probe"


class TestAugmenterNoise:
    def test_zero_noise_is_identity_when_others_off(self):
        aug = Augmenter(flip=False, max_shift=0)
        x = np.ones((2, 1, 4, 4), dtype=np.float32)
        np.testing.assert_array_equal(aug(x, np.random.default_rng(0)), x)


class TestUnionHelpers:
    def test_junction_membership_counts(self):
        m = resnet50_cifar(10, width_mult=0.25, input_hw=16)
        js = junctions(m.graph)
        # 4 stages -> 4 junction spaces, each with many members
        assert len(js) == 4
        for j in js:
            assert j.member_count > 2
            assert j.size > 0

    def test_union_redundancy_zero_when_dense(self):
        m = resnet20(10, width_mult=0.25, input_hw=16)
        red = union_redundancy(m.graph)
        assert all(v == 0.0 for v in red.values())

    def test_union_redundancy_detects_sparse_lanes(self):
        m = resnet20(10, width_mult=0.25, input_hw=16)
        node = m.graph.conv_by_name("s0b0.conv1")
        node.conv.weight.data[0] = 0.0
        red = union_redundancy(m.graph)
        assert red["s0b0.conv1"] > 0.0


class TestDatasetVariants:
    def test_imagenet_s_custom_classes(self):
        from repro.data import imagenet_s
        train, val = imagenet_s(n_train=40, n_val=20, hw=16, num_classes=7)
        assert train.num_classes == 7
        assert train.x.shape[2] == 16

    def test_single_channel_dataset(self):
        ds = make_synthetic(3, 20, hw=8, channels=1, seed=0)
        assert ds.x.shape[1] == 1


class TestAnalysisCorners:
    def test_bound_threshold(self):
        from repro.analysis import LayerSummary
        from repro.costmodel import DeviceModel
        dev = DeviceModel(peak_flops=100.0, mem_bandwidth=10.0)  # ridge=10
        low = LayerSummary("x", "conv", 1, 1, 1, 1, 1.0, 4.0, 5.0)
        high = LayerSummary("y", "conv", 1, 1, 1, 1, 1.0, 4.0, 20.0)
        assert low.bound(dev) == "memory"
        assert high.bound(dev) == "compute"


class TestVGGSmallInputs:
    def test_pools_skipped_below_2px(self, rng):
        from repro.tensor import no_grad
        m = vgg11(10, width_mult=0.125, input_hw=4)  # only 2 pools possible
        m.eval()
        with no_grad():
            out = m(Tensor(rng.normal(size=(1, 3, 4, 4)).astype(np.float32)))
        assert np.isfinite(out.data).all()


class TestCommLatency:
    def test_latency_term_scales_with_workers(self):
        from repro.costmodel import CommModel
        cm = CommModel(latency_per_round=1e-3)
        t4 = cm.allreduce_time(1000, 4)
        t8 = cm.allreduce_time(1000, 8)
        assert t8 > t4  # more rounds -> more latency

"""Memory, communication, and execution-time models."""

import numpy as np
import pytest

from repro.costmodel import (GTX_1080TI, V100, CommModel, DeviceModel,
                             MemoryModel, activation_bytes_per_sample,
                             bn_traffic_bytes, epoch_comm_bytes, epoch_time,
                             gradient_payload_bytes,
                             hierarchical_allreduce_bytes,
                             iteration_memory_bytes, iteration_time,
                             model_state_bytes, ring_allreduce_bytes)
from repro.nn import resnet20, resnet50_cifar, vgg11
from repro.prune import prune_and_reconfigure

SMALL = dict(width_mult=0.25, input_hw=16)


def _sparsify_half(model, seed=0):
    rng = np.random.default_rng(seed)
    g = model.graph
    for sid, sp in g.spaces.items():
        if sp.frozen:
            continue
        kill = rng.random(sp.size) < 0.5
        kill[0] = False
        for node in g.writers(sid):
            node.conv.weight.data[kill] = 0
        for node in g.readers(sid):
            node.conv.weight.data[:, kill] = 0


class TestMemoryModel:
    def test_activation_bytes_linear_in_batch(self):
        g = resnet20(10, **SMALL).graph
        m1 = iteration_memory_bytes(g, 32)
        m2 = iteration_memory_bytes(g, 64)
        per_sample = activation_bytes_per_sample(g)
        assert m2 - m1 == pytest.approx(32 * per_sample)

    def test_model_state_is_3x_params(self):
        m = resnet20(10, **SMALL)
        assert model_state_bytes(m.graph) == pytest.approx(
            3 * 4 * m.num_parameters(), rel=0.02)

    def test_memory_drops_after_pruning(self):
        m = resnet50_cifar(10, **SMALL)
        before = iteration_memory_bytes(m.graph, 64)
        _sparsify_half(m)
        prune_and_reconfigure(m)
        assert iteration_memory_bytes(m.graph, 64) < 0.8 * before

    def test_max_batch_granularity(self):
        m = resnet20(10, **SMALL)
        mm = MemoryModel(capacity_bytes=100e6)
        b = mm.max_batch(m.graph, granularity=32)
        assert b % 32 == 0
        assert mm.fits(m.graph, b)
        assert not mm.fits(m.graph, b + 64)

    def test_max_batch_grows_after_pruning(self):
        m = resnet50_cifar(10, **SMALL)
        mm = MemoryModel(capacity_bytes=50e6)
        before = mm.max_batch(m.graph, granularity=8)
        _sparsify_half(m)
        prune_and_reconfigure(m)
        assert mm.max_batch(m.graph, granularity=8) > before

    def test_max_batch_respects_ceiling(self):
        m = resnet20(10, width_mult=0.125, input_hw=8)
        mm = MemoryModel(capacity_bytes=1e12)
        assert mm.max_batch(m.graph, ceiling=256) == 256

    def test_max_batch_floor_when_granularity_does_not_fit(self):
        """Capacity too small for even one granularity unit: the model
        still answers ``granularity`` (callers clamp, never zero/negative)."""
        m = resnet20(10, width_mult=1.0, input_hw=32)
        mm = MemoryModel(capacity_bytes=1e6)
        assert mm.max_batch(m.graph, granularity=32) == 32

    def test_bn_traffic_proportional_to_batch_and_channels(self):
        m = vgg11(10, **SMALL)
        t1 = bn_traffic_bytes(m.graph, 32)
        t2 = bn_traffic_bytes(m.graph, 64)
        assert t2 == pytest.approx(2 * t1)
        assert bn_traffic_bytes(m.graph, 32, training=False) < t1


class TestCommModel:
    def test_ring_formula(self):
        assert ring_allreduce_bytes(1000, 4) == pytest.approx(1500)
        assert ring_allreduce_bytes(1000, 1) == 0.0

    def test_hierarchical_volume_matches_flat(self):
        """Both schemes are volume-optimal; hierarchical shifts traffic to
        fast links rather than reducing total bytes."""
        flat = ring_allreduce_bytes(1e6, 16)
        hier = hierarchical_allreduce_bytes(1e6, 16, group_size=4)
        assert hier == pytest.approx(flat, rel=0.01)

    def test_hierarchical_interlink_traffic_much_smaller(self):
        from repro.costmodel.comm import hierarchical_interlink_bytes
        flat = ring_allreduce_bytes(1e6, 16)
        inter = hierarchical_interlink_bytes(1e6, 16, group_size=4)
        assert inter < 0.3 * flat

    def test_hierarchical_faster_on_two_tier_fabric(self):
        cm = CommModel(intra_bandwidth=50e9, inter_bandwidth=10e9)
        assert cm.allreduce_time(1e8, 16, hierarchical=True) < \
            cm.allreduce_time(1e8, 16, hierarchical=False)

    def test_gradient_payload_tracks_params(self):
        m = resnet20(10, **SMALL)
        assert gradient_payload_bytes(m.graph) == pytest.approx(
            4 * m.num_parameters(), rel=0.02)

    def test_payload_drops_after_pruning(self):
        m = resnet50_cifar(10, **SMALL)
        before = gradient_payload_bytes(m.graph)
        _sparsify_half(m)
        prune_and_reconfigure(m)
        assert gradient_payload_bytes(m.graph) < 0.6 * before

    def test_epoch_comm_counts_iterations(self):
        g = resnet20(10, **SMALL).graph
        e1 = epoch_comm_bytes(g, dataset_size=1000, global_batch=100,
                              workers=4)
        e2 = epoch_comm_bytes(g, dataset_size=1000, global_batch=200,
                              workers=4)
        assert e1 == pytest.approx(2 * e2)

    def test_allreduce_time_positive(self):
        cm = CommModel()
        assert cm.allreduce_time(1e6, 4) > 0
        assert cm.allreduce_time(1e6, 1) == 0.0


class TestTimeModel:
    def test_utilization_bounds(self):
        d = DeviceModel()
        for c_in, c_out, rows in [(1, 1, 1), (64, 64, 4096),
                                  (1000, 1000, 1e6)]:
            u = d.utilization(c_in, c_out, int(rows))
            assert 0 < u <= 0.85

    def test_narrow_channels_less_efficient(self):
        d = DeviceModel()
        assert d.utilization(8, 8, 4096) < d.utilization(64, 64, 4096)

    def test_irregular_dims_penalized(self):
        d = DeviceModel()
        assert d.utilization(64, 63, 4096) < d.utilization(64, 64, 4096)

    def test_time_savings_lag_flops_savings(self):
        """The paper's Sec. 5.1 observation, reproduced by the model."""
        from repro.costmodel import inference_flops
        m = resnet50_cifar(10, **SMALL)
        f0 = inference_flops(m.graph)
        t0 = iteration_time(m.graph, 64, GTX_1080TI).total
        _sparsify_half(m)
        prune_and_reconfigure(m)
        f1 = inference_flops(m.graph)
        t1 = iteration_time(m.graph, 64, GTX_1080TI).total
        flops_saving = 1 - f1 / f0
        time_saving = 1 - t1 / t0
        assert 0 < time_saving < flops_saving

    def test_v100_saves_more_time_than_1080ti(self):
        """Higher memory bandwidth -> BN-bound share smaller -> pruning's
        compute savings more visible (paper Sec. 5.1).  Evaluated at the
        paper's model scale (full width); the model is deterministic, so a
        strict inequality is meaningful."""
        m = resnet50_cifar(10, width_mult=1.0, input_hw=32)
        t0_g = iteration_time(m.graph, 64, GTX_1080TI).total
        t0_v = iteration_time(m.graph, 64, V100).total
        _sparsify_half(m)
        prune_and_reconfigure(m)
        t1_g = iteration_time(m.graph, 64, GTX_1080TI).total
        t1_v = iteration_time(m.graph, 64, V100).total
        assert (1 - t1_v / t0_v) > (1 - t1_g / t0_g)

    def test_epoch_time_scales_with_dataset(self):
        g = resnet20(10, **SMALL).graph
        assert epoch_time(g, 2000, 64, V100) == pytest.approx(
            2 * epoch_time(g, 1000, 64, V100), rel=0.05)

    def test_comm_time_included_for_multiworker(self):
        g = resnet20(10, **SMALL).graph
        t1 = iteration_time(g, 64, V100, workers=1)
        t4 = iteration_time(g, 64, V100, workers=4)
        assert t1.comm_time == 0.0
        assert t4.comm_time > 0.0

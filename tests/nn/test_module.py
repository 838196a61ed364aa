"""Module system: parameter discovery, modes, state dicts."""

import numpy as np
import pytest

from repro.nn import (BatchNorm2d, Conv2d, Linear, Module, Parameter, ReLU,
                      resnet20)
from repro.tensor import Tensor


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, padding=1)
        self.bn = BatchNorm2d(4)
        self.blocks = [[Linear(4, 4), Linear(4, 4)], Linear(4, 2)]

    def forward(self, x):
        return self.conv(x)


class TestDiscovery:
    def test_named_parameters_finds_nested_lists(self):
        toy = Toy()
        names = {n for n, _ in toy.named_parameters()}
        assert "conv.weight" in names
        assert "bn.weight" in names and "bn.bias" in names
        assert "blocks.0.0.weight" in names
        assert "blocks.0.1.weight" in names
        assert "blocks.1.weight" in names

    def test_parameter_count_matches_manual(self):
        toy = Toy()
        expect = 4 * 3 * 9 + 4 + 4 + 3 * (4 * 4 + 4) / 1  # conv + bn + linears
        # linears: two 4x4 (+bias 4) and one 2x4 (+bias 2)
        expect = 4 * 3 * 9 + 4 + 4 + (16 + 4) * 2 + (8 + 2)
        assert toy.num_parameters() == expect

    def test_no_duplicate_parameters(self):
        toy = Toy()
        ids = [id(p) for _, p in toy.named_parameters()]
        assert len(ids) == len(set(ids))

    def test_resnet_parameter_count_sane(self):
        m = resnet20(10, width_mult=1.0)
        # canonical resnet20 has ~272k params
        assert 250_000 < m.num_parameters() < 300_000


class TestModes:
    def test_train_eval_propagates(self):
        toy = Toy()
        toy.eval()
        assert not toy.bn.training
        toy.train()
        assert toy.bn.training

    def test_zero_grad(self):
        toy = Toy()
        for p in toy.parameters():
            p.grad = np.ones_like(p.data)
        toy.zero_grad()
        assert all(p.grad is None for p in toy.parameters())


class TestStateDict:
    def test_roundtrip(self):
        a, b = Toy(), Toy()
        for p in a.parameters():
            p.data = p.data + 1.0
        b.load_state_dict(a.state_dict())
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_includes_bn_buffers(self):
        toy = Toy()
        sd = toy.state_dict()
        assert "bn.running_mean" in sd
        assert "bn.running_var" in sd

    def test_shape_mismatch_raises(self):
        a, b = Toy(), Toy()
        sd = a.state_dict()
        sd["conv.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            b.load_state_dict(sd)

    def test_buffer_shape_mismatch_raises(self):
        """A checkpoint comes from outside the program: a buffer of the
        wrong shape is refused like a parameter, and nothing is loaded."""
        a, b = Toy(), Toy()
        for p in a.parameters():
            p.data = p.data + 1.0
        before = b.state_dict()
        sd = a.state_dict()
        sd["bn.running_mean"] = np.zeros(sd["bn.running_mean"].size + 3,
                                         np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            b.load_state_dict(sd)
        after = b.state_dict()
        assert all(np.array_equal(after[k], v) for k, v in before.items())

    def test_unknown_key_raises(self):
        toy = Toy()
        with pytest.raises(KeyError):
            toy.load_state_dict({"nope": np.zeros(1)})

    def test_state_dict_is_a_copy(self):
        toy = Toy()
        sd = toy.state_dict()
        sd["conv.weight"][:] = 99.0
        assert toy.conv.weight.data.max() < 99.0


class Chain(Module):
    """A test-local container: modules held in a list attribute."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class TestSequential:
    def test_runs_in_order(self, rng):
        seq = Chain(Linear(4, 8), ReLU(), Linear(8, 2))
        out = seq(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 2)

    def test_container_protocol(self):
        seq = Chain(ReLU(), Linear(2, 2))
        assert [name for name, _ in seq.named_children()] == [
            "layers.0", "layers.1"]
        assert [n for n, _ in seq.named_parameters()] == [
            "layers.1.weight", "layers.1.bias"]
        seq.eval()
        assert not any(m.training for m in seq.layers)


class TestLayers:
    def test_conv_repr(self):
        c = Conv2d(3, 8, 3, stride=2, padding=1)
        assert "Conv2d(3, 8" in repr(c)

    def test_conv_bias_optional(self):
        assert Conv2d(2, 2, 3).bias is None
        assert Conv2d(2, 2, 3, bias=True).bias is not None

    def test_linear_shapes(self, rng):
        lin = Linear(5, 3)
        out = lin(Tensor(rng.normal(size=(2, 5))))
        assert out.shape == (2, 3)

    def test_bn_updates_running_stats_only_in_training(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(5.0, 1.0, size=(8, 2, 4, 4)))
        bn.eval()
        bn(x)
        np.testing.assert_allclose(bn.running_mean, 0.0)
        bn.train()
        bn(x)
        assert bn.running_mean.max() > 0.1

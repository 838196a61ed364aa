"""Dtype guard: every op preserves float32 forward *and* through gradients.

The engine routes activations and gradients through fused kernels and
donated arrays; an accidental promotion to float64 anywhere (a
Python-scalar multiply, an un-dtyped ``np.zeros``) would silently double
memory traffic.  These tests run each op in ``repro.tensor.functional`` on
float32 inputs and assert the output and every accumulated gradient stay
float32.
"""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F

F32 = np.float32


def t32(rng, *shape, grad=True):
    return Tensor(rng.normal(size=shape).astype(F32), requires_grad=grad)


def assert_f32(*tensors):
    for t in tensors:
        assert t.data.dtype == F32, f"forward promoted to {t.data.dtype}"
        if t.requires_grad:
            assert t.grad is not None, "gradient missing"
            assert t.grad.dtype == F32, f"grad promoted to {t.grad.dtype}"


class TestConv:
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1),
                                              (1, 1, 0), (1, 2, 0)])
    def test_conv2d(self, rng, k, stride, pad):
        x = t32(rng, 2, 3, 8, 8)
        w = t32(rng, 4, 3, k, k)
        b = t32(rng, 4)
        y = F.conv2d(x, w, b, stride=stride, padding=pad)
        assert y.data.dtype == F32
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x, w, b)

    def test_conv2d_no_bias(self, rng):
        x = t32(rng, 2, 3, 6, 6)
        w = t32(rng, 4, 3, 3, 3)
        y = F.conv2d(x, w, None, stride=1, padding=1)
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x, w)


class TestNormAndElementwise:
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm(self, rng, relu, training):
        x = t32(rng, 4, 3, 5, 5)
        gamma = Tensor(np.ones(3, dtype=F32), requires_grad=True)
        beta = Tensor(np.zeros(3, dtype=F32), requires_grad=True)
        rm = np.zeros(3, dtype=F32)
        rv = np.ones(3, dtype=F32)
        y = F.batch_norm(x, gamma, beta, rm, rv, training=training,
                         relu=relu)
        assert y.data.dtype == F32
        assert rm.dtype == F32 and rv.dtype == F32
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x, gamma, beta)

    def test_relu(self, rng):
        x = t32(rng, 3, 7)
        y = F.relu(x)
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x)

    def test_add_relu(self, rng):
        a = t32(rng, 2, 3, 4, 4)
        b = t32(rng, 2, 3, 4, 4)
        y = F.add_relu(a, b)
        assert y.data.dtype == F32
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(a, b)


class TestPoolLinearLoss:
    @pytest.mark.parametrize("op", [F.max_pool2d])
    def test_pool2d(self, rng, op):
        x = t32(rng, 2, 3, 6, 6)
        y = op(x, 2)
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x)

    def test_global_avg_pool(self, rng):
        x = t32(rng, 2, 3, 4, 4)
        y = F.global_avg_pool(x)
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x)

    def test_linear(self, rng):
        x = t32(rng, 5, 8)
        w = t32(rng, 3, 8)
        b = t32(rng, 3)
        y = F.linear(x, w, b)
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x, w, b)

    def test_cross_entropy(self, rng):
        logits = t32(rng, 6, 4)
        targets = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(logits, targets)
        assert loss.data.dtype == F32
        loss.backward()
        assert_f32(logits)


class TestChannelOps:
    def test_pad_channels(self, rng):
        # zero-padding the channel dim is a scatter into the leading lanes
        x = t32(rng, 2, 3, 4, 4)
        y = F.scatter_channels(x, np.arange(3), 5)
        y.backward(np.ones(y.shape, dtype=F32))
        assert_f32(x)

    def test_gather_scatter_channels(self, rng):
        x = t32(rng, 2, 4, 3, 3)
        y = F.gather_channels(x, np.array([0, 2]))
        z = F.scatter_channels(y, np.array([1, 3]), 4)
        z.backward(np.ones(z.shape, dtype=F32))
        assert z.data.dtype == F32
        assert_f32(x)


def test_end_to_end_step_stays_f32(rng):
    """A whole ResNet training step keeps every grad and buffer float32."""
    from repro.nn import resnet20
    from repro.optim import SGD

    model = resnet20(num_classes=4, width_mult=0.25, input_hw=8, seed=0)
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4)
    xb = rng.normal(size=(4, 3, 8, 8)).astype(F32)
    yb = rng.integers(0, 4, size=4)
    logits = model(Tensor(xb))
    loss = F.cross_entropy(logits, yb)
    opt.zero_grad()
    loss.backward()
    for p in model.parameters():
        assert p.data.dtype == F32
        assert p.grad is None or p.grad.dtype == F32
    opt.step()
    for p in model.parameters():
        assert p.data.dtype == F32

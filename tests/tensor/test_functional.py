"""Autograd-wired functional ops: relu, conv2d, linear, batch_norm, pooling,
cross_entropy, and the channel gather/scatter used by gating."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


class TestRelu:
    def test_forward(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(F.relu(x).data, [0, 0, 2])

    def test_backward_masks_negatives(self):
        x = Tensor([-1.0, 1.0], requires_grad=True)
        F.relu(x).backward(np.ones(2))
        np.testing.assert_allclose(x.grad, [0, 1])


class TestConv2dFunctional:
    def test_forward_backward_shapes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=False)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        y = F.conv2d(x, w, b, stride=2, padding=1)
        assert y.shape == (2, 4, 4, 4)
        y.backward(np.ones_like(y.data))
        assert w.grad.shape == w.data.shape
        assert b.grad.shape == (4,)

    def test_input_grad_flows_through_chain(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w1 = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        y = F.conv2d(F.conv2d(x, w1, None, 1, 1), w2, None, 1, 1)
        y.backward(np.ones_like(y.data))
        assert w1.grad is not None and np.abs(w1.grad).max() > 0

    def test_no_grad_conv_cheap(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        with no_grad():
            y = F.conv2d(x, w, None, 1, 1)
        assert y._backward is None and not y.requires_grad


class TestLinearFunctional:
    def test_matches_manual(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        y = F.linear(x, w, b)
        np.testing.assert_allclose(y.data, x.data @ w.data.T, rtol=1e-6)
        y.backward(np.ones_like(y.data))
        np.testing.assert_allclose(w.grad, np.ones((4, 3)).T @ x.data,
                                   rtol=1e-5)
        np.testing.assert_allclose(b.grad, [4, 4, 4])


class TestBatchNormFunctional:
    def test_training_vs_eval(self, rng):
        x = Tensor(rng.normal(2.0, 1.0, size=(8, 3, 4, 4)))
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        y_train = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        assert abs(y_train.data.mean()) < 1e-5
        y_eval = F.batch_norm(x, gamma, beta, np.zeros(3, np.float32),
                              np.ones(3, np.float32), training=False)
        # eval with zero-mean/unit-var running stats is nearly identity
        np.testing.assert_allclose(y_eval.data, x.data, atol=1e-4)

    def test_grad_reaches_gamma_beta(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        y = F.batch_norm(x, gamma, beta, np.zeros(2, np.float32),
                         np.ones(2, np.float32), training=True)
        y.backward(2 * y.data)  # d/dy of sum(y * y)
        assert gamma.grad is not None and beta.grad is not None


class TestPoolingFunctional:
    def test_max_pool_grad(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        y = F.max_pool2d(x, 2)
        y.backward(np.ones_like(y.data))
        assert x.grad.sum() == pytest.approx(4.0)

    def test_avg_pool_grad(self, rng):
        # the models' average pool is global: a 4x4 window over a 4x4 map
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        F.global_avg_pool(x).backward(np.ones((1, 2)))
        np.testing.assert_allclose(x.grad, np.full(x.shape, 1 / 16))

    def test_global_avg_pool(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        y = F.global_avg_pool(x)
        assert y.shape == (2, 3)
        y.backward(np.ones_like(y.data))
        np.testing.assert_allclose(x.grad, np.full(x.shape, 1 / 16))


class TestCrossEntropyFunctional:
    def test_loss_decreases_under_gradient_step(self, rng):
        logits = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        y = rng.integers(0, 5, size=8)
        loss = F.cross_entropy(logits, y)
        loss.backward()
        new_logits = logits.data - 1.0 * logits.grad
        new_loss, _ = __import__(
            "repro.tensor.ops.loss", fromlist=["x"]
        ).cross_entropy_forward(new_logits, y)
        assert new_loss < loss.item()


class TestGatherScatter:
    def test_gather_selects(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 3, 3)))
        idx = np.array([0, 2, 5])
        y = F.gather_channels(x, idx)
        np.testing.assert_allclose(y.data, x.data[:, idx])

    def test_gather_backward(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True)
        F.gather_channels(x, np.array([1, 3])).backward(np.ones((1, 2, 2, 2)))
        np.testing.assert_allclose(x.grad[:, [1, 3]], 1.0)
        np.testing.assert_allclose(x.grad[:, [0, 2]], 0.0)

    def test_scatter_places(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 2, 2)))
        y = F.scatter_channels(x, np.array([1, 3]), 5)
        assert y.shape == (1, 5, 2, 2)
        np.testing.assert_allclose(y.data[:, [1, 3]], x.data)
        np.testing.assert_allclose(y.data[:, [0, 2, 4]], 0.0)

    def test_scatter_backward(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 2, 2)), requires_grad=True)
        F.scatter_channels(x, np.array([0, 4]), 6).backward(
            np.ones((1, 6, 2, 2)))
        np.testing.assert_allclose(x.grad, np.ones_like(x.data))

    def test_gather_scatter_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 2, 2)))
        idx = np.array([0, 2, 4])
        y = F.scatter_channels(F.gather_channels(x, idx), idx, 5)
        np.testing.assert_allclose(y.data[:, idx], x.data[:, idx])
        np.testing.assert_allclose(y.data[:, [1, 3]], 0.0)

    def test_pad_channels(self, rng):
        # zero-padding the channel dim is a scatter into the leading lanes
        x = Tensor(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
        y = F.scatter_channels(x, np.arange(3), 5)
        assert y.shape == (1, 5, 2, 2)
        np.testing.assert_allclose(y.data[:, 3:], 0.0)
        y.backward(np.ones_like(y.data))
        np.testing.assert_allclose(x.grad, np.ones_like(x.data))

    def test_pad_channels_noop_and_error(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 2, 2)))
        same = F.scatter_channels(x, np.arange(3), 3)
        np.testing.assert_array_equal(same.data, x.data)
        with pytest.raises(IndexError):
            F.scatter_channels(x, np.arange(3), 2)

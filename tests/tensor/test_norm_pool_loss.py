"""BatchNorm, pooling, and loss kernels."""

import numpy as np
import pytest

from repro.tensor.ops.loss import (accuracy, cross_entropy_backward,
                                   cross_entropy_forward, softmax)
from repro.tensor.ops.norm import batchnorm_backward, batchnorm_forward
from repro.tensor.ops.pool import (global_avgpool_backward,
                                   global_avgpool_forward, maxpool2d_backward,
                                   maxpool2d_forward)


class TestBatchNorm:
    def test_forward_normalizes(self, rng):
        x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
        gamma, beta = np.ones(4), np.zeros(4)
        rm, rv = np.zeros(4), np.ones(4)
        y, _ = batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, True)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_running_stats_updated_inplace(self, rng):
        x = rng.normal(5.0, 1.0, size=(16, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        rm_id, rv_id = id(rm), id(rv)
        batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, 0.5, 1e-5, True)
        assert id(rm) == rm_id and id(rv) == rv_id
        assert (rm > 2.0).all()  # moved toward 5.0

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        rm = np.array([10.0, -10.0])
        rv = np.ones(2)
        y, _ = batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv,
                                 0.1, 1e-5, False)
        # channel 0 shifted by -10, channel 1 by +10
        assert (y[:, 0] < 0).all()
        assert (y[:, 1] > 0).all()

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(4, 3, 4, 4))
        gamma = rng.normal(1.0, 0.1, size=3)
        beta = rng.normal(size=3)
        dy = rng.normal(size=x.shape)
        rm, rv = np.zeros(3), np.ones(3)
        _, cache = batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(),
                                     0.1, 1e-5, True)
        dx, dgamma, dbeta = batchnorm_backward(dy, cache)
        eps = 1e-6

        def f():
            y, _ = batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(),
                                     0.1, 1e-5, True)
            return (y * dy).sum()

        for arr, ana in [(x, dx), (gamma, dgamma), (beta, dbeta)]:
            flat, fana = arr.reshape(-1), ana.reshape(-1)
            for i in rng.integers(0, flat.size, size=5):
                orig = flat[i]
                flat[i] = orig + eps
                lp = f()
                flat[i] = orig - eps
                lm = f()
                flat[i] = orig
                np.testing.assert_allclose(fana[i], (lp - lm) / (2 * eps),
                                           rtol=1e-3, atol=1e-6)

    def test_backward_gradient_mean_free(self, rng):
        """BN training backward projects out the per-channel mean component."""
        x = rng.normal(size=(8, 2, 3, 3))
        dy = np.ones_like(x)  # constant upstream grad
        _, cache = batchnorm_forward(x, np.ones(2), np.zeros(2), np.zeros(2),
                                     np.ones(2), 0.1, 1e-5, True)
        dx, _, _ = batchnorm_backward(dy, cache)
        np.testing.assert_allclose(dx.sum(axis=(0, 2, 3)), 0, atol=1e-8)


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y, _ = maxpool2d_forward(x, 2)
        np.testing.assert_allclose(y[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_max(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y, mask = maxpool2d_forward(x, 2)
        dx = maxpool2d_backward(np.ones_like(y), mask, 2, x.shape)
        assert dx.sum() == 4.0
        assert dx[0, 0, 1, 1] == 1.0 and dx[0, 0, 0, 0] == 0.0

    def test_gradient_mass_conserved_with_ties(self):
        x = np.zeros((1, 1, 4, 4))  # every window fully tied
        y, mask = maxpool2d_forward(x, 2)
        dx = maxpool2d_backward(np.ones_like(y), mask, 2, x.shape)
        assert dx.sum() == 4.0  # one winner per window, not 4

    def test_ragged_edge_truncated(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        y, mask = maxpool2d_forward(x, 2)
        assert y.shape == (1, 1, 2, 2)
        dx = maxpool2d_backward(np.ones_like(y), mask, 2, (1, 1, 5, 5))
        assert dx.shape == (1, 1, 5, 5)
        assert dx[:, :, 4, :].sum() == 0  # truncated rows get no gradient


    @staticmethod
    def _reference_forward(x, k):
        """The formulation ``maxpool2d_forward`` replaced (reduce over the
        window axes, argmax for the first max), kept as the oracle.  Its
        mask is ``(N, C, Ho, k, Wo, k)``."""
        n, c, h, w = x.shape
        x = x[:, :, : (h // k) * k, : (w // k) * k]
        ho, wo = h // k, w // k
        blocks = x.reshape(n, c, ho, k, wo, k)
        y = blocks.max(axis=(3, 5))
        flat = (blocks == y[:, :, :, None, :, None]) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
        mask = np.zeros_like(flat)
        np.put_along_axis(mask, np.argmax(flat, axis=-1)[..., None], True,
                          axis=-1)
        return y, mask.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)

    @staticmethod
    def _planes(mask, k):
        """The oracle's mask in the kernel's window-major plane layout
        ``(k*k, N, C, Ho, Wo)``: plane ``i*k + j`` is window cell
        ``(i, j)``."""
        n, c, ho, _, wo, _ = mask.shape
        return mask.transpose(3, 5, 0, 1, 2, 4).reshape(k * k, n, c, ho, wo)

    @staticmethod
    def _reference_backward(dy, mask, k, x_shape):
        """``dy`` routed through the oracle's mask; truncated rows and
        columns of a ragged map stay zero."""
        n, c, ho, _, wo, _ = mask.shape
        dx = np.zeros(x_shape, dy.dtype)
        dx[:, :, : ho * k, : wo * k] = (
            mask * dy[:, :, :, None, :, None]).reshape(n, c, ho * k, wo * k)
        return dx

    @staticmethod
    def _inputs(rng, shape):
        raw = rng.normal(size=shape).astype(np.float32)
        relu = np.maximum(raw, 0)       # post-ReLU: most windows hold ties
        relu[0, 0, 0, 0] = -0.0         # equal to +0.0, different bytes
        relu[-1, 0, :2, :2] = -0.0      # a window of -0.0 and +0.0 ties
        relu[-1, 0, 0, 1] = 0.0
        nan = relu.copy()
        nan[-1, -1, 1, 1] = np.nan
        nan[0, -1, :3, :3] = np.nan     # a window holding only NaNs
        return raw, relu, -relu, nan

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("shape", [(4, 3, 12, 12), (2, 5, 7, 11)])
    def test_equals_reference_formulation(self, rng, k, shape):
        """``y`` bytes and the mask, in plane layout, equal the oracle's on
        ties, ``-0.0`` and NaN windows, with and without the mask."""
        for x in self._inputs(rng, shape):
            y_ref, mask_ref = self._reference_forward(x, k)
            y, mask = maxpool2d_forward(x, k)
            assert y.tobytes() == y_ref.tobytes()
            assert mask.dtype == np.bool_
            assert np.array_equal(mask, self._planes(mask_ref, k))
            y_only, no_mask = maxpool2d_forward(x, k, need_mask=False)
            assert no_mask is None and y_only.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("shape", [(4, 3, 12, 12), (2, 5, 7, 11)])
    def test_backward_equals_reference_routing(self, rng, k, shape):
        """``dx`` bytes equal ``dy`` routed through the oracle's mask: the
        sign of every zero, NaN gradients and the zero ragged edge."""
        for x in self._inputs(rng, shape):
            _, mask_ref = self._reference_forward(x, k)
            _, mask = maxpool2d_forward(x, k)
            dy = rng.normal(size=mask.shape[1:]).astype(np.float32)
            dy[0, 0, 0, 0] = -0.0
            dy[-1, -1, -1, -1] = np.nan
            dx = maxpool2d_backward(dy, mask, k, x.shape)
            want = self._reference_backward(dy, mask_ref, k, x.shape)
            assert dx.shape == x.shape and dx.dtype == dy.dtype
            assert dx.tobytes() == want.tobytes()

    def test_forward_only_builds_no_mask(self, rng, monkeypatch):
        """``F.max_pool2d`` under ``no_grad`` and forward-only plans ask for
        ``y`` alone; training asks for the mask."""
        from repro.tensor import Tensor, no_grad
        from repro.tensor import functional as F
        from repro.tensor.ops import pool

        asked = []
        real = pool.maxpool2d_forward

        def spy(x, k, need_mask=True):
            asked.append(need_mask)
            return real(x, k, need_mask)
        monkeypatch.setattr(pool, "maxpool2d_forward", spy)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        with no_grad():
            y_eval = F.max_pool2d(x, 2)
        y_train = F.max_pool2d(x, 2)
        assert asked == [False, True]
        assert np.array_equal(y_eval.data, y_train.data)
        y_train.backward(np.ones_like(y_train.data))
        assert x.grad.sum() == 2 * 3 * 2 * 2

        from repro.nn import vgg11
        from repro.tensor.compile import capture_forward
        model = vgg11(10, width_mult=0.125, input_hw=8, seed=0)
        model.eval()
        xs = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        plan, logits, reason = capture_forward(model, xs)
        assert reason is None, reason
        del asked[:]
        assert np.array_equal(plan.run_forward(xs), logits.data)
        assert asked and not any(asked)


class TestAvgPool:
    """Average pooling; the models' one is global (the window is the map)."""

    def test_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(global_avgpool_forward(x), [[7.5]])

    def test_backward_uniform(self):
        x = np.zeros((1, 1, 4, 4))
        dx = global_avgpool_backward(np.ones((1, 1)), x.shape)
        np.testing.assert_allclose(dx, np.full_like(x, 1 / 16))


class TestGlobalAvgPool:
    def test_forward_backward(self, rng):
        x = rng.normal(size=(3, 4, 5, 5))
        y = global_avgpool_forward(x)
        np.testing.assert_allclose(y, x.mean(axis=(2, 3)))
        dx = global_avgpool_backward(np.ones((3, 4)), x.shape)
        np.testing.assert_allclose(dx, np.full(x.shape, 1 / 25))


class TestCrossEntropy:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(6, 10)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-6)

    def test_loss_of_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss, _ = cross_entropy_forward(logits, np.array([1, 2]))
        assert loss < 1e-6

    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((4, 10))
        loss, _ = cross_entropy_forward(logits, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(loss, np.log(10), rtol=1e-6)

    def test_numerical_stability_large_logits(self):
        logits = np.array([[1e4, 0.0], [0.0, 1e4]])
        loss, probs = cross_entropy_forward(logits, np.array([0, 1]))
        assert np.isfinite(loss)
        assert np.isfinite(probs).all()

    def test_gradient_is_probs_minus_onehot(self, rng):
        logits = rng.normal(size=(5, 4))
        y = np.array([0, 1, 2, 3, 0])
        loss, probs = cross_entropy_forward(logits, y)
        g = cross_entropy_backward(probs, y)
        expect = probs.copy()
        expect[np.arange(5), y] -= 1
        np.testing.assert_allclose(g, expect / 5, rtol=1e-10)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(5, 7))
        y = np.array([0, 1, 2, 3, 4])
        _, probs = cross_entropy_forward(logits, y)
        g = cross_entropy_backward(probs, y)
        np.testing.assert_allclose(g.sum(axis=1), 0, atol=1e-12)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

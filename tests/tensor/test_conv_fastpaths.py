"""Fast-path coverage for the convolution lowering.

Covers the 1x1 pointwise batched-matmul path, the ``need_dx=False``
first-layer skip, the ``need_db=False`` bias-free skip, and the ownership
of the gradients the eager driver returns (fresh arrays, which autograd
takes over without a copy).  Values are held against the float64 oracle.
"""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.ops import conv as conv_ops

from .. import oracle


def _run_with_oracle(x, w, b, stride, pad, need_dx=True, need_db=True):
    """fwd+bwd through the engine and through the float64 oracle; returns
    both ``(y, dx, dw, db)`` tuples."""
    y, ctx = conv_ops.conv2d_forward(x, w, b, stride, pad)
    dy = np.random.default_rng(7).normal(size=y.shape).astype(x.dtype)
    dx, dw, db = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride, pad,
                                          need_dx=need_dx, need_db=need_db)
    y0, cache = oracle.conv_forward(
        x.astype(np.float64), w.astype(np.float64),
        None if b is None else b.astype(np.float64), stride, pad)
    dx0, dw0, db0 = oracle.conv_backward(dy.astype(np.float64), cache)
    return (y, dx, dw, db), (y0, dx0, dw0, db0)


class TestPointwiseFastPath:
    def test_ctx_kind_is_pw(self, rng):
        x = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        y, ctx = conv_ops.conv2d_forward(x, w, None, 1, 0)
        assert ctx.form == "pointwise"

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_the_oracle(self, rng, stride):
        x = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        (y, dx, dw, db), (y0, dx0, dw0, db0) = _run_with_oracle(
            x, w, b, stride, 0)
        np.testing.assert_allclose(y, y0, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dx, dx0, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dw, dw0, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(db, db0, rtol=1e-5, atol=1e-6)

    def test_stride1_ctx_is_input_view(self, rng, monkeypatch):
        """At stride 1 the pw path must not copy the input at all: the
        forward stages nothing, so it asks for its output buffer only."""
        x = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        phases, fresh_alloc = [], conv_ops.fresh_alloc

        def counting(dtype):
            alloc = fresh_alloc(dtype)

            def counted(shape, tag="", phase=""):
                phases.append(phase)
                return alloc(shape, tag, phase)
            return counted

        monkeypatch.setattr(conv_ops, "fresh_alloc", counting)
        _, ctx = conv_ops.conv2d_forward(x, w, None, 1, 0)
        assert phases == ["out"]
        assert ctx.x is x


class TestBackwardSkips:
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_need_dx_false_returns_none(self, rng, k, stride, pad):
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, k, k)).astype(np.float32)
        (_, dx, dw, _), (_, _, dw0, _) = _run_with_oracle(
            x, w, None, stride, pad, need_dx=False)
        assert dx is None
        np.testing.assert_allclose(dw, dw0, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (1, 1, 0)])
    def test_need_db_false_returns_none(self, rng, k, stride, pad):
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, k, k)).astype(np.float32)
        y, ctx = conv_ops.conv2d_forward(x, w, None, stride, pad)
        dy = np.ones_like(y)
        _, _, db = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride,
                                            pad, need_db=False)
        assert db is None

    def test_first_layer_skips_input_grad(self, rng):
        """``first_layer=True`` never materializes dx, even for a grad-
        requiring input tensor."""
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        y = F.conv2d(x, w, None, stride=1, padding=1, first_layer=True)
        y.backward(np.ones(y.shape, dtype=np.float32))
        assert x.grad is None
        assert w.grad is not None

    def test_bias_free_conv_via_functional(self, rng):
        """The functional layer requests the db skip for bias-free convs and
        still produces exact weight/input grads."""
        xd = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        wd = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)

        def grads():
            x = Tensor(xd, requires_grad=True)
            w = Tensor(wd, requires_grad=True)
            y = F.conv2d(x, w, None, stride=1, padding=1)
            y.backward(np.ones(y.shape, dtype=np.float32))
            return x.grad.copy(), w.grad.copy()

        dx, dw = grads()
        _, cache = oracle.conv_forward(xd.astype(np.float64),
                                       wd.astype(np.float64), None, 1, 1)
        dx0, dw0, _ = oracle.conv_backward(np.ones((2, 4, 6, 6)), cache)
        np.testing.assert_allclose(dx, dx0, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dw, dw0, rtol=1e-4, atol=1e-5)


class TestGradientOwnership:
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1),
                                              (1, 1, 0), (1, 2, 0)])
    def test_gradients_are_fresh_arrays(self, rng, k, stride, pad):
        """``F.conv2d`` donates ``dx``, ``dw`` and ``db`` (the array becomes
        the receiver's ``.grad``), which is sound only if none of them
        shares memory with another or with anything the call was given."""
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, k, k)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        y, ctx = conv_ops.conv2d_forward(x, w, b, stride, pad)
        dy = np.ones_like(y)
        grads = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride, pad)
        assert [g.shape for g in grads] == [x.shape, w.shape, b.shape]
        for i, g in enumerate(grads):
            for other in (x, w, b, y, dy) + grads[i + 1:]:
                assert not np.shares_memory(g, other)

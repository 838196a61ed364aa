"""Fast-path coverage for the optimized convolution lowering.

Covers the 1x1 pointwise batched-matmul path, the ``need_dx=False``
first-layer skip, the ``need_db=False`` bias-free skip, and the workspace
ownership contract around the forward context (``release_ctx``).
"""

import numpy as np
import pytest

from repro.tensor import Tensor, workspace
from repro.tensor import functional as F
from repro.tensor.ops import conv as conv_ops
from repro.tensor.workspace import baseline_engine


# These tests cover the optimized engine's fast paths, so they must not
# silently degrade when the suite runs with REPRO_* overrides.
pytestmark = pytest.mark.usefixtures("fresh_pool")


def _run_both_engines(x, w, b, stride, pad, need_dx=True, need_db=True):
    """fwd+bwd under the optimized and the seed engine; returns both tuples."""
    dy = np.random.default_rng(7).normal(
        size=conv_ops.conv2d_forward(x, w, b, stride, pad)[0].shape
    ).astype(x.dtype)

    def run():
        y, ctx = conv_ops.conv2d_forward(x, w, b, stride, pad)
        dx, dw, db = conv_ops.conv2d_backward(
            dy, ctx, x.shape, w, stride, pad,
            need_dx=need_dx, need_db=need_db)
        out = (y.copy(), None if dx is None else dx.copy(),
               dw.copy(), None if db is None else db.copy())
        workspace.release(dx)
        conv_ops.release_ctx(ctx)
        return out

    opt = run()
    with baseline_engine():
        seed = run()
    return opt, seed


class TestPointwiseFastPath:
    def test_ctx_kind_is_pw(self, rng):
        x = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        y, ctx = conv_ops.conv2d_forward(x, w, None, 1, 0)
        assert ctx.form == "pointwise"
        conv_ops.release_ctx(ctx)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_seed_engine(self, rng, stride):
        x = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        (y, dx, dw, db), (y0, dx0, dw0, db0) = _run_both_engines(
            x, w, b, stride, 0)
        np.testing.assert_allclose(y, y0, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dx, dx0, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dw, dw0, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(db, db0, rtol=1e-5, atol=1e-6)

    def test_stride1_ctx_is_input_view(self, rng):
        """At stride 1 the pw path must not copy the input at all: the
        forward stages nothing, so it never asks the pool for a buffer."""
        x = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        stats = workspace.POOL.stats
        asked = stats.hits + stats.misses
        _, ctx = conv_ops.conv2d_forward(x, w, None, 1, 0)
        assert stats.hits + stats.misses == asked
        assert ctx.x is x
        conv_ops.release_ctx(ctx)


class TestBackwardSkips:
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_need_dx_false_returns_none(self, rng, k, stride, pad):
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, k, k)).astype(np.float32)
        (_, dx, dw, _), (_, _, dw0, _) = _run_both_engines(
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
        conv_ops.release_ctx(ctx)

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
        with baseline_engine():
            dx0, dw0 = grads()
        np.testing.assert_allclose(dx, dx0, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dw, dw0, rtol=1e-4, atol=1e-5)


class TestWorkspaceContract:
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1),
                                              (1, 1, 0), (1, 2, 0)])
    def test_all_buffers_returned(self, rng, k, stride, pad):
        """After fwd+bwd+release the pool must have zero buffers lent."""
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, k, k)).astype(np.float32)
        y, ctx = conv_ops.conv2d_forward(x, w, None, stride, pad)
        dy = np.ones_like(y)
        dx, dw, db = conv_ops.conv2d_backward(dy, ctx, x.shape, w,
                                              stride, pad)
        workspace.release(dx)
        conv_ops.release_ctx(ctx)
        assert workspace.POOL.lent_count == 0

    def test_second_call_hits_pool(self, rng):
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)
        for _ in range(2):
            y, ctx = conv_ops.conv2d_forward(x, w, None, 1, 1)
            dx, _, _ = conv_ops.conv2d_backward(np.ones_like(y), ctx,
                                                x.shape, w, 1, 1)
            workspace.release(dx)
            conv_ops.release_ctx(ctx)
        assert workspace.POOL.stats.hits > 0

"""Convolution kernels against a naive loop and the float64 oracle, the
oracle's im2col/col2im against each other, and gradient exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.ops.conv import (conv2d_backward, conv2d_forward,
                                   conv_out_size)

from .. import oracle
from ..oracle import col2im, im2col


def reference_conv(x, w, b, stride, pad):
    """Naive loop convolution for cross-checking."""
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    ho, wo = conv_out_size(h, wd, r, s, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((n, k, ho, wo))
    for i in range(ho):
        for j in range(wo):
            patch = xp[:, :, i * stride:i * stride + r,
                       j * stride:j * stride + s]
            y[:, :, i, j] = np.einsum("ncrs,kcrs->nk", patch, w)
    if b is not None:
        y += b[None, :, None, None]
    return y


class TestForward:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_reference(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        y, _ = conv2d_forward(x, w, b, stride, pad)
        y_loop = reference_conv(x, w, b, stride, pad)
        np.testing.assert_allclose(y, y_loop, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(oracle.conv_forward(x, w, b, stride,
                                                       pad)[0],
                                   y_loop, rtol=1e-10, atol=1e-12)

    def test_1x1_conv(self, rng):
        x = rng.normal(size=(2, 5, 4, 4))
        w = rng.normal(size=(3, 5, 1, 1))
        y, _ = conv2d_forward(x, w, None, 1, 0)
        expect = np.einsum("nchw,kc->nkhw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(y, expect, rtol=1e-10)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        y, _ = conv2d_forward(x, w, None, 1, 1)
        assert y.shape == (1, 2, 5, 5)

    def test_output_size_formula(self):
        assert conv_out_size(32, 32, 3, 3, 1, 1) == (32, 32)
        assert conv_out_size(32, 32, 3, 3, 2, 1) == (16, 16)
        assert conv_out_size(7, 7, 1, 1, 1, 0) == (7, 7)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(2, 4, 3, 3))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_forward(x, w, None, 1, 1)


class TestIm2Col:
    def test_col2im_is_adjoint_of_im2col(self, rng):
        """col2im must be the exact adjoint: <im2col(x), d> == <x, col2im(d)>."""
        x = rng.normal(size=(2, 3, 6, 6))
        for stride, pad in [(1, 1), (2, 0), (2, 1)]:
            cols = im2col(x, 3, 3, stride, pad)
            d = rng.normal(size=cols.shape)
            lhs = (cols * d).sum()
            rhs = (x * col2im(d, x.shape, 3, 3, stride, pad)).sum()
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_im2col_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2 * 8 * 8, 3 * 3 * 3)


class TestBackward:
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
    def test_gradients_match_numerical(self, rng, stride, pad):
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y, cols = conv2d_forward(x, w, b, stride, pad)
        dy = rng.normal(size=y.shape)
        dx, dw, db = conv2d_backward(dy, cols, x.shape, w, stride, pad)
        eps = 1e-6

        def f():
            yy, _ = conv2d_forward(x, w, b, stride, pad)
            return (yy * dy).sum()

        for arr, ana in [(x, dx), (w, dw), (b, db)]:
            flat, fana = arr.reshape(-1), ana.reshape(-1)
            for i in rng.integers(0, flat.size, size=6):
                orig = flat[i]
                flat[i] = orig + eps
                lp = f()
                flat[i] = orig - eps
                lm = f()
                flat[i] = orig
                np.testing.assert_allclose(fana[i], (lp - lm) / (2 * eps),
                                           rtol=1e-4, atol=1e-7)

    def test_need_dx_false_skips_dx(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        y, cols = conv2d_forward(x, w, None, 1, 1)
        dx, dw, db = conv2d_backward(np.ones_like(y), cols, x.shape, w, 1, 1,
                                     need_dx=False)
        assert dx is None
        assert dw.shape == w.shape

    def test_dw_accumulation_linearity(self, rng):
        """dw is linear in dy: dw(2*dy) == 2*dw(dy)."""
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        y, cols = conv2d_forward(x, w, None, 1, 1)
        dy = rng.normal(size=y.shape)
        _, dw1, _ = conv2d_backward(dy, cols, x.shape, w, 1, 1)
        _, dw2, _ = conv2d_backward(2 * dy, cols, x.shape, w, 1, 1)
        np.testing.assert_allclose(dw2, 2 * dw1, rtol=1e-10)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 2), st.integers(0, 1))
@settings(max_examples=20, deadline=None)
def test_property_conv_shapes(n, c, k, stride, pad):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, c, 8, 8))
    w = rng.normal(size=(k, c, 3, 3))
    y, _ = conv2d_forward(x, w, None, stride, pad)
    ho, wo = conv_out_size(8, 8, 3, 3, stride, pad)
    assert y.shape == (n, k, ho, wo)

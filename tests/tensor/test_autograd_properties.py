"""Property-based tests of the autograd engine on composite expressions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import Tensor
from repro.tensor import functional as F


def finite(shape, lo=-3.0, hi=3.0):
    return arrays(np.float64, shape,
                  elements=st.floats(lo, hi, allow_nan=False, width=32))


@given(finite((4, 3)), finite((3, 3)))
@settings(max_examples=25, deadline=None)
def test_sum_rule(a, b):
    """d(f+g) = df + dg: one input reaching an add along two paths."""
    ta = Tensor(a, requires_grad=True)
    F.add(F.relu(ta), F.linear(ta, Tensor(b), None)).backward(
        np.ones((4, 3)))
    np.testing.assert_allclose(ta.grad, (a > 0) + np.ones((4, 3)) @ b,
                               rtol=1e-5, atol=1e-5)


@given(finite((2, 4)), finite((3, 4)))
@settings(max_examples=25, deadline=None)
def test_matmul_chain_grad_shapes(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = F.relu(F.linear(ta, tb, None))
    g = 2.0 * (out.data > 0)
    out.backward(2.0 * np.ones((2, 3)))
    assert ta.grad.shape == a.shape
    assert tb.grad.shape == b.shape
    np.testing.assert_allclose(ta.grad, g @ b, rtol=1e-5, atol=1e-6)


@given(finite((2, 2, 4, 4)))
@settings(max_examples=15, deadline=None)
def test_relu_grad_is_indicator(x):
    tx = Tensor(x, requires_grad=True)
    F.relu(tx).backward(np.ones_like(x))
    np.testing.assert_allclose(tx.grad, (x > 0).astype(float))


@given(finite((3, 5)), st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_cross_entropy_nonnegative_and_grad_sums_zero(logits, label):
    t = Tensor(logits, requires_grad=True)
    y = np.full(3, label)
    loss = F.cross_entropy(t, y)
    assert loss.item() >= -1e-6
    loss.backward()
    np.testing.assert_allclose(t.grad.sum(axis=1), 0.0, atol=1e-6)


@given(finite((2, 3, 4, 4)), st.integers(1, 2))
@settings(max_examples=15, deadline=None)
def test_pool_grad_mass_conservation(x, k):
    """Global average pooling preserves gradient mass; max pooling routes
    it."""
    tx = Tensor(x, requires_grad=True)
    F.global_avg_pool(tx).backward(np.ones(x.shape[:2]))
    np.testing.assert_allclose(tx.grad.sum(), x.shape[0] * x.shape[1],
                               rtol=1e-5)

    ty = Tensor(x, requires_grad=True)
    y = F.max_pool2d(ty, k)
    y.backward(np.ones_like(y.data))
    n_windows = x.shape[0] * x.shape[1] * (4 // k) ** 2
    np.testing.assert_allclose(ty.grad.sum(), n_windows, rtol=1e-5)


@given(finite((2, 6, 3, 3)),
       st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
@settings(max_examples=20, deadline=None)
def test_gather_scatter_adjoint(x, idx):
    """<gather(x), g> == <x, scatter(g)> — exact adjoint pair."""
    idx = np.array(sorted(idx))
    tx = Tensor(x, requires_grad=True)
    g = np.random.default_rng(0).normal(size=(2, len(idx), 3, 3))
    out = F.gather_channels(tx, idx)
    lhs = float((out.data * g).sum())
    out.backward(g)
    rhs = float((x * tx.grad).sum())
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


@given(st.integers(2, 5), st.integers(2, 8))
@settings(max_examples=15, deadline=None)
def test_linear_vs_manual_grad(n, d):
    rng = np.random.default_rng(n * 100 + d)
    x = rng.normal(size=(n, d))
    w = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    dy = rng.normal(size=(n, 3))
    out = F.linear(Tensor(x), w, b)
    out.backward(dy)
    np.testing.assert_allclose(w.grad, dy.T @ x, rtol=1e-6)
    np.testing.assert_allclose(b.grad, dy.sum(axis=0), rtol=1e-6)

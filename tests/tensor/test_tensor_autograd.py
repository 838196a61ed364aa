"""Autograd core: graph construction, backward, broadcasting, no_grad.

``Tensor`` is graph plumbing with no ops of its own, so these tests build
their graphs from ``repro.tensor.functional`` and seed ``backward(g)``.
Where a graph needs a shape no shipped op has (a reduction, a transpose, a
constant operand), it is made from :func:`_node`, a test-local op built the
way ``functional.apply_op`` builds every real one: the tests check what
``Tensor._make`` / ``_accumulate`` / ``backward`` do with it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import Tensor, grad_enabled, no_grad
from repro.tensor import functional as F


def _finite_arrays(shape):
    return arrays(np.float64, shape,
                  elements=st.floats(-10, 10, allow_nan=False, width=32))


def _node(data, parents, *vjps):
    """A test-local op whose backward sends ``vjps[i](g)`` to
    ``parents[i]``."""
    def backward(g):
        for parent, vjp in zip(parents, vjps):
            parent._accumulate(vjp(g))
    return Tensor._make(np.asarray(data), parents, backward)


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        F.add(a, b).backward(np.ones(2))
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])
        a.grad[0] = 7.0  # the fanned-out gradient was copied per parent
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_matmul_backward(self):
        # F.linear is y = x @ w.T
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        F.linear(a, b, None).backward(np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))
        np.testing.assert_allclose(a.grad, [[4, 6], [4, 6]])

    def test_mul_backward(self):
        """Each parent gets its own gradient, in the order it was given."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        _node(a.data * b.data, (a, b), lambda g: g * b.data,
              lambda g: g * a.data).backward(np.ones(2))
        np.testing.assert_allclose(a.grad, [3, 4])
        np.testing.assert_allclose(b.grad, [1, 2])

    def test_sub_neg_div(self):
        """out = (a - b) / b + (-a): a leaf reached along two paths sums
        them, and interior gradients are dropped once used."""
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        d = _node(a.data - b.data, (a, b), lambda g: g, lambda g: -g)
        q = _node(d.data / b.data, (d, b), lambda g: g / b.data,
                  lambda g: -g * d.data / (b.data * b.data))
        n = _node(-a.data, (a,), lambda g: -g)
        F.add(q, n).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [1 / 2 - 1])
        np.testing.assert_allclose(b.grad, [-1 / 2 - (4 - 2) / 4])
        assert d.grad is None and q.grad is None and n.grad is None

    def test_pow_backward(self):
        """The root keeps the seed gradient; its parent gets the closure's."""
        a = Tensor([3.0], requires_grad=True)
        y = _node(a.data ** 2, (a,), lambda g: g * 2 * a.data)
        y.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [6.0])
        np.testing.assert_allclose(y.grad, [1.0])

    def test_radd_rmul_scalars(self):
        """A constant operand is a parent that receives no gradient."""
        a = Tensor([2.0], requires_grad=True)
        c = Tensor(3.0)
        y = _node(c.data + 2.0 * a.data, (c, a), lambda g: g,
                  lambda g: 2.0 * g)
        assert y.requires_grad
        y.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [2.0])
        assert c.grad is None

    def test_rsub_rdiv(self):
        """A node over constants alone records nothing to differentiate."""
        c = Tensor([2.0])
        y = _node(6.0 / c.data + (1.0 - c.data), (c,), lambda g: -6.0 * g)
        assert not y.requires_grad
        assert y._backward is None and y._parents == ()
        np.testing.assert_allclose(y.data, [2.0])


class TestBroadcasting:
    """No op broadcasts, so nothing ever sums a gradient down to fit."""

    def test_broadcast_add_grad_shape(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        with pytest.raises(ValueError):
            F.add(a, b)

    def test_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        y = F.relu(a)
        with pytest.raises(ValueError):
            y.backward(np.ones((2, 5, 3)))
        assert a.grad is None

    def test_scalar_broadcast(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(np.ones((3, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            F.add(a, b)
        with pytest.raises(ValueError):
            F.relu(b).backward(1.0)


class TestReductions:
    def test_sum_axis(self):
        """A read-only broadcast gradient view becomes an owned, writable
        leaf gradient."""
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        s = _node(a.data.sum(axis=0), (a,),
                  lambda g: np.broadcast_to(g, a.shape))
        s.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        assert a.grad.flags.writeable and a.grad.flags.owndata

    def test_sum_keepdims(self):
        """A second touch of a leaf reduces into the array it already
        owns."""
        a = Tensor(np.ones((2, 3)), requires_grad=True)

        def total():
            return _node(a.data.sum(axis=1, keepdims=True), (a,),
                         lambda g: np.broadcast_to(g, a.shape))
        F.add(total(), total()).backward(np.ones((2, 1)))
        first = a.grad
        np.testing.assert_allclose(first, np.full((2, 3), 2.0))
        total().backward(np.ones((2, 1)))
        assert a.grad is first
        np.testing.assert_allclose(a.grad, np.full((2, 3), 3.0))

    def test_mean(self):
        # the loss is a mean over the batch: N equal rows share its gradient
        logits = np.array([[1.0, 2.0, 0.5]])
        one = Tensor(logits, requires_grad=True)
        F.cross_entropy(one, np.array([1])).backward()
        four = Tensor(np.repeat(logits, 4, axis=0), requires_grad=True)
        F.cross_entropy(four, np.full(4, 1)).backward()
        np.testing.assert_allclose(four.grad, np.repeat(one.grad, 4, 0) / 4)

    def test_mean_axis(self):
        a = Tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
        F.global_avg_pool(a).backward(np.ones((2, 3)))
        np.testing.assert_allclose(a.grad, np.full((2, 3, 2, 2), 0.25))


class TestShapeOps:
    def test_reshape_roundtrip(self):
        """``backward(g)`` checks ``g`` against the root's own shape; the
        node maps it back to its parent's."""
        a = Tensor(np.arange(6.0), requires_grad=True)
        r = _node(a.data.reshape(2, 3), (a,), lambda g: g.reshape(6))
        with pytest.raises(ValueError):
            r.backward(np.ones(6))
        r.backward(np.ones((2, 3)))
        assert a.grad.shape == (6,)

    def test_transpose(self):
        """A non-contiguous gradient lands as a contiguous copy."""
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = _node(a.data.T, (a,), lambda g: g.T)
        assert b.shape == (3, 2)
        b.backward(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(a.grad, np.arange(6.0).reshape(3, 2).T)
        assert a.grad.flags.c_contiguous

    def test_getitem(self):
        """Overlapping reads of one leaf accumulate."""
        a = Tensor(np.arange(10.0), requires_grad=True)

        def take(sl):
            def vjp(g):
                full = np.zeros(10)
                full[sl] = g
                return full
            return _node(a.data[sl], (a,), vjp)
        F.add(take(slice(2, 5)), take(slice(3, 6))).backward(np.ones(3))
        np.testing.assert_allclose(a.grad, [0, 0, 1, 2, 2, 1, 0, 0, 0, 0])


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        # y = relu(a) + a  -> dy/da = 2 where a > 0
        a = Tensor([3.0, -1.0], requires_grad=True)
        F.add(F.relu(a), a).backward(np.ones(2))
        np.testing.assert_allclose(a.grad, [2.0, 1.0])

    def test_reused_node(self):
        a = Tensor([2.0], requires_grad=True)
        b = F.relu(a)
        F.add(b, b).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [2.0])

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = F.relu(a)
        assert not b.requires_grad
        assert b._backward is None

    def test_no_grad_restores(self):
        assert grad_enabled()
        with no_grad():
            assert not grad_enabled()
        assert grad_enabled()

    def test_detach(self):
        # a fresh Tensor over the same array is cut from the graph
        a = Tensor([1.0], requires_grad=True)
        d = Tensor(a.data)
        assert not d.requires_grad
        assert d.data is a.data

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        F.relu(a).backward(np.ones(1))
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_backward_twice_accumulates_leaf(self):
        a = Tensor([1.0], requires_grad=True)
        F.relu(a).backward(np.full(1, 2.0))
        F.relu(a).backward(np.full(1, 2.0))
        np.testing.assert_allclose(a.grad, [4.0])

    def test_no_grad_tensor_creation(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestDtype:
    def test_int_input_coerced_to_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_repr_and_props(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert t.ndim == 2 and t.size == 6 and len(t) == 2


def test_tensor_defines_no_op_methods():
    """Every op is a functional call; Tensor arithmetic is refused rather
    than building a node outside the op table."""
    a = Tensor([1.0, 2.0], requires_grad=True)
    for expr in (lambda: a + a, lambda: a * 2.0, lambda: 1.0 - a,
                 lambda: a / a, lambda: -a, lambda: a ** 2, lambda: a @ a,
                 lambda: a[0]):
        with pytest.raises(TypeError):
            expr()
    for name in ("reshape", "transpose", "sum", "mean", "detach"):
        assert not hasattr(a, name), name


def test_add_refuses_mixed_dtypes():
    a = Tensor(np.ones(3, np.float32))
    with pytest.raises(ValueError):
        F.add(a, Tensor(np.ones(3, np.float64)))


@given(_finite_arrays((3, 4)), _finite_arrays((3, 4)))
@settings(max_examples=25, deadline=None)
def test_property_add_grad_is_ones(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    F.add(ta, tb).backward(np.ones_like(a))
    np.testing.assert_allclose(ta.grad, np.ones_like(a))
    np.testing.assert_allclose(tb.grad, np.ones_like(b))


@given(_finite_arrays((2, 5)))
@settings(max_examples=25, deadline=None)
def test_property_mul_grad_matches_operand(a):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(a.copy() + 1.0, requires_grad=True)
    _node(ta.data * tb.data, (ta, tb), lambda g: g * tb.data,
          lambda g: g * ta.data).backward(np.ones_like(a))
    np.testing.assert_allclose(ta.grad, tb.data, rtol=1e-5)
    np.testing.assert_allclose(tb.grad, ta.data, rtol=1e-5)


class TestGraphReleasedAfterBackward:
    """backward() must drop parent links and closures as it walks the tape,
    so the whole graph (and every activation it pins) becomes collectable
    the moment the step's local references go away."""

    def test_interior_nodes_unreachable(self):
        # Tensor defines __slots__ without __weakref__, so reachability is
        # checked through the garbage collector's live-object list instead
        # of weak references.
        import gc

        gc.collect()
        before = {id(o) for o in gc.get_objects() if isinstance(o, Tensor)}

        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 3, 3, 3)).astype(np.float32) * 0.1,
                   requires_grad=True)
        wl = Tensor(rng.standard_normal((6, 8)).astype(np.float32) * 0.1,
                    requires_grad=True)
        bl = Tensor(np.zeros(6, np.float32), requires_grad=True)
        h = F.relu(F.conv2d(x, w, None, padding=1))
        flat = F.global_avg_pool(h)
        logits = F.linear(flat, wl, bl)
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 3]))
        loss.backward()
        assert w.grad is not None
        keep = {id(t) for t in (x, w, wl, bl)}
        del h, flat, logits, loss
        gc.collect()
        leaked = [o for o in gc.get_objects()
                  if isinstance(o, Tensor)
                  and id(o) not in keep and id(o) not in before]
        assert not leaked, \
            "backward() left the autograd graph reachable"

    def test_node_fields_cleared_in_place(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        c = F.add(a, b)
        s = F.relu(c)
        s.backward(np.ones(2))
        for node in (c, s):
            assert node._backward is None
            assert node._parents == ()
        # leaves keep their identity (and their grads)
        np.testing.assert_allclose(a.grad, [1, 1])

"""Workspace pool: ownership contract, reconfiguration invalidation, and
numerical equivalence of the pooled engine with the seed engine.

The acceptance-critical test here trains, runs a full pruning
reconfiguration (which changes every activation shape in the model), and
trains again — once with pooling on and once with pooling off — and
requires bit-comparable parameters.  A stale pooled buffer surviving the
reconfiguration would surface as a shape error or a numerical divergence.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.nn import resnet20
from repro.optim import SGD
from repro.prune import prune_and_reconfigure
from repro.tensor import Tensor, workspace
from repro.tensor import functional as F
from repro.tensor.workspace import (EngineConfig, WorkspacePool,
                                    baseline_engine)

from ..conftest import sparsify_space


@pytest.fixture(autouse=True)
def zeroed_pool_stats(fresh_pool):
    """The optimized engine (pooling on) regardless of REPRO_* env, with an
    empty pool and its counters at zero."""
    workspace.POOL.stats.reset()


class TestPoolMechanics:
    def test_acquire_release_roundtrip(self):
        pool = WorkspacePool()
        a = pool.acquire((4, 5), np.float32)
        assert a.shape == (4, 5) and a.dtype == np.float32
        assert pool.owns(a) and pool.lent_count == 1
        pool.release(a)
        assert not pool.owns(a) and pool.lent_count == 0
        b = pool.acquire((4, 5), np.float32)
        assert b is a, "released buffer must be recycled"
        assert pool.stats.hits == 1 and pool.stats.misses == 1

    def test_overflow_release_counts_eviction(self):
        """A release onto a full free list drops the buffer and says so."""
        pool = WorkspacePool(max_per_key=2)
        bufs = [pool.acquire((8, 8), np.float32) for _ in range(3)]
        for b in bufs:
            pool.release(b)
        assert pool.stats.evictions == 1
        assert pool.stats.bytes_evicted == bufs[0].nbytes
        assert pool.cached_bytes == 2 * bufs[0].nbytes
        # a different key has its own headroom
        c = pool.acquire((4,), np.float32)
        pool.release(c)
        assert pool.stats.evictions == 1
        d = pool.stats.as_dict()
        assert d["evictions"] == 1 and d["bytes_evicted"] == bufs[0].nbytes
        pool.stats.reset()
        assert pool.stats.evictions == pool.stats.bytes_evicted == 0

    def test_release_resolves_views(self):
        pool = WorkspacePool()
        a = pool.acquire((4, 6), np.float32)
        pool.release(a[:, 1:5])
        assert pool.lent_count == 0

    def test_release_foreign_array_is_noop(self):
        pool = WorkspacePool()
        pool.release(np.zeros(3, dtype=np.float32))
        assert pool.lent_count == 0 and not pool._free

    def test_dtype_and_shape_keys_are_distinct(self):
        pool = WorkspacePool()
        a = pool.acquire((3, 3), np.float32)
        pool.release(a)
        b = pool.acquire((3, 3), np.float64)
        assert b is not a and b.dtype == np.float64
        c = pool.acquire((9,), np.float32)
        assert c is not a

    def test_zero_flag(self):
        pool = WorkspacePool()
        a = pool.acquire((8,), np.float32)
        a[:] = 7
        pool.release(a)
        b = pool.acquire((8,), np.float32, zero=True)
        assert b is a and (b == 0).all()

    def test_clear_drops_everything(self):
        pool = WorkspacePool()
        a = pool.acquire((2, 2))
        pool.release(pool.acquire((3, 3)))
        pool.clear()
        assert pool.lent_count == 0 and pool.cached_bytes == 0
        assert not pool.owns(a)
        assert pool.stats.invalidations == 1

    def test_pooling_disabled_bypasses_pool(self):
        with baseline_engine():
            a = workspace.acquire((4, 4))
            assert not workspace.POOL.owns(a)
            workspace.release(a)  # must be a silent no-op


class TestEngineConfig:
    """A mistyped lowering used to select the seed conv silently — and with
    it eager stepping, every capture failing closed."""

    def test_unknown_conv_impl_is_refused(self):
        for good in ("einsum", "im2col"):
            assert EngineConfig(conv_impl=good).conv_impl == good
        with pytest.raises(ValueError, match='"einsum" or "im2col"'):
            EngineConfig(conv_impl="einsun")

    def test_unknown_conv_impl_in_the_environment_fails_the_import(self):
        env = dict(os.environ, REPRO_CONV_IMPL="einsun",
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.tensor.workspace"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert 'ValueError: conv_impl must be "einsum" or "im2col"' \
            in proc.stderr and "einsun" in proc.stderr


def _sparsify_all(model, frac=0.4, seed=0):
    rng = np.random.default_rng(seed)
    g = model.graph
    for sid, sp in g.spaces.items():
        if sp.frozen:
            continue
        kill = rng.random(sp.size) < frac
        kill[0] = False
        sparsify_space(g, sid, kill)


def _train_reconfigure_train(pooled: bool, steps: int = 3):
    """Train -> prune_and_reconfigure -> train; return final parameters."""

    def body():
        rng = np.random.default_rng(3)
        model = resnet20(num_classes=6, width_mult=0.25, input_hw=8, seed=1)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9,
                  weight_decay=1e-4)
        xb = rng.normal(size=(8, 3, 8, 8)).astype(np.float32)
        yb = rng.integers(0, 6, size=8)

        def step():
            logits = model(Tensor(xb))
            loss = F.cross_entropy(logits, yb)
            opt.zero_grad()
            loss.backward()
            opt.step()

        for _ in range(steps):
            step()
        _sparsify_all(model)
        prune_and_reconfigure(model, opt)
        for _ in range(steps):
            step()
        return [p.data.copy() for p in model.parameters()]

    if pooled:
        return body()
    with baseline_engine():
        return body()


class TestReconfigurationInvalidation:
    def test_surgery_invalidates_pool(self):
        model = resnet20(num_classes=6, width_mult=0.25, input_hw=8, seed=1)
        x = Tensor(np.random.default_rng(0)
                   .normal(size=(4, 3, 8, 8)).astype(np.float32))
        loss = F.cross_entropy(model(x), np.array([0, 1, 2, 3]))
        loss.backward()
        assert workspace.POOL.cached_bytes > 0
        before = workspace.POOL.stats.invalidations
        _sparsify_all(model)
        prune_and_reconfigure(model)
        assert workspace.POOL.stats.invalidations == before + 1
        assert workspace.POOL.cached_bytes == 0
        assert workspace.POOL.lent_count == 0

    def test_train_reconfigure_train_matches_unpooled(self):
        """The pooled engine must track the seed copy-semantics engine
        through a full reconfiguration, parameter for parameter.

        Pooling and gradient donation change buffer reuse, not math, so the
        only tolerated differences are float32 reduction-order rounding from
        the different conv lowerings.
        """
        pooled = _train_reconfigure_train(pooled=True)
        unpooled = _train_reconfigure_train(pooled=False)
        assert len(pooled) == len(unpooled)
        for a, b in zip(pooled, unpooled):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=2e-3, atol=2e-5)

    def test_no_buffers_leak_across_steps(self):
        """Interior gradients and staging all return to the pool each step."""
        rng = np.random.default_rng(5)
        model = resnet20(num_classes=6, width_mult=0.25, input_hw=8, seed=1)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        xb = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        yb = rng.integers(0, 6, size=4)
        for _ in range(3):
            logits = model(Tensor(xb))
            loss = F.cross_entropy(logits, yb)
            opt.zero_grad()
            loss.backward()
            opt.step()
            assert workspace.POOL.lent_count == 0


#: id -> ((c, k, hw, r, stride, padding), elements the form keeps pooled from
#: forward to backward as f(n, c, k, hw, r, ho)): the window gather its column
#: tensor (the padded input is already back), a 1x1 conv nothing at stride 1
#: (its columns are the input) and the strided copy of the input otherwise,
#: the unrolled form the restaged input and the unrolled filter ``T``, the span
#: form nothing (its backward re-stages).  26 filters keep a stride-1 3x3 conv
#: with padding 1 on the window gather (``conv_spans``).
def _columns(n, c, k, hw, r, ho):
    return n * c * r * r * ho * ho


CONVS = {
    "gather-s1-p0": ((6, 4, 6, 3, 1, 0), _columns),
    "gather-s1-p1": ((6, 26, 6, 3, 1, 1), _columns),
    "gather-s2-p0": ((6, 4, 7, 3, 2, 0), _columns),
    "gather-s2-p1": ((6, 4, 6, 3, 2, 1), _columns),
    "pointwise-s1": ((6, 4, 6, 1, 1, 0), lambda *a: 0),
    "pointwise-s2": ((6, 4, 6, 1, 2, 0),
                     lambda n, c, k, hw, r, ho: n * c * ho * ho),
    "unrolled": ((6, 4, 2, 3, 1, 1),
                 lambda n, c, k, hw, r, ho:
                 n * hw * hw * c + ho * ho * k * hw * hw * c),
    "span": ((6, 4, 6, 3, 1, 1), lambda *a: 0),
}


def test_every_geometry_takes_the_form_it_is_named_for():
    from repro.tensor.ops.conv import conv_form
    for name, ((c, k, hw, r, stride, padding), _) in CONVS.items():
        assert conv_form(hw, hw, r, r, stride, padding, k) == \
            name.split("-")[0]


def _lent_bytes():
    return sum(buf.nbytes for buf in workspace.POOL._lent.values())


@pytest.mark.parametrize("geometry, kept", list(CONVS.values()),
                         ids=list(CONVS))
class TestConvPoolHygiene:
    """Every conv form holds pooled staging from forward to backward and
    borrows more while backward runs.  The kernel-level callers know only
    ``release_ctx(ctx)`` and ``release(dx)``, so those two calls must reach
    everything, whichever of them are made."""

    N = 5

    def _case(self, geometry):
        from repro.tensor.ops import conv as conv_ops
        c, k, hw, r, stride, padding = geometry
        ho, _ = conv_ops.conv_out_size(hw, hw, r, r, stride, padding)
        rng = np.random.default_rng(3)
        return (rng.standard_normal((self.N, c, hw, hw)).astype(np.float32),
                rng.standard_normal((k, c, r, r)).astype(np.float32),
                rng.standard_normal((self.N, k, ho, ho)).astype(np.float32),
                stride, padding, ho)

    @pytest.mark.parametrize("need_dx", [True, False])
    def test_kernel_level_release_leaves_nothing_checked_out(
            self, geometry, kept, need_dx):
        from repro.tensor.ops import conv as conv_ops
        x, w, dy, stride, padding, ho = self._case(geometry)
        c, k, hw, r = geometry[:4]
        retained = 4 * kept(self.N, c, k, hw, r, ho)

        def round_trip():
            _, ctx = conv_ops.conv2d_forward(x, w, None, stride, padding)
            assert ctx.form == conv_ops.conv_form(hw, hw, r, r, stride,
                                                  padding, k)
            assert _lent_bytes() == retained
            dx, _, _ = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride,
                                                padding, need_dx=need_dx)
            # backward scratch is back already; dx, if any, is the caller's
            base = dx if dx is None or dx.base is None else dx.base
            assert _lent_bytes() == retained + (base.nbytes if need_dx else 0)
            workspace.release(dx)
            conv_ops.release_ctx(ctx)
            assert workspace.POOL.lent_count == 0

        round_trip()
        misses = workspace.POOL.stats.misses
        round_trip()            # entirely on recycled buffers
        assert workspace.POOL.stats.misses == misses

    def test_forward_without_backward_releases_too(self, geometry, kept):
        from repro.tensor.ops import conv as conv_ops
        x, w, _, stride, padding, _ = self._case(geometry)
        _, ctx = conv_ops.conv2d_forward(x, w, None, stride, padding)
        conv_ops.release_ctx(ctx)
        assert workspace.POOL.lent_count == 0

    @pytest.mark.parametrize("first_layer", [False, True])
    def test_autograd_and_no_grad_paths_release_too(self, geometry, kept,
                                                    first_layer):
        from repro.tensor import no_grad
        x, w, dy, stride, padding, ho = self._case(geometry)
        c, k, hw, r = geometry[:4]
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = F.conv2d(xt, wt, None, stride, padding, first_layer=first_layer)
        assert _lent_bytes() == 4 * kept(self.N, c, k, hw, r, ho)
        out.backward(dy)
        assert (xt.grad is None) == first_layer and wt.grad is not None
        assert workspace.POOL.lent_count == 0
        with no_grad():
            F.conv2d(xt, wt, None, stride, padding)     # immediate release
        assert workspace.POOL.lent_count == 0

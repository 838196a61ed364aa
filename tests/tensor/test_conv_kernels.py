"""Property tests of the staged general-conv kernel set (ops.conv.ConvKernels).

One kernel set serves the plan builder and the sparse gate's probe, so its
contract is checked here once, over generated shapes and dead masks: the
dense kernels equal the eager einsum kernels bitwise in both buffer layouts;
the live-channel kernels skip only exact zeros and otherwise compute the
dense values; they match dense *bitwise* exactly where the gate's parity
probe says they do; and the probe returns every pooled buffer, also when a
kernel raises.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.costmodel.time import SPARSE_GEMM
from repro.tensor import Tensor, sparse, workspace
from repro.tensor.ops import conv as conv_ops
from repro.tensor.ops.conv import ConvKernels


@pytest.fixture(autouse=True)
def einsum_sparse_engine():
    """The kernel set is the einsum lowering; pin it (the seed CI leg flips
    the eager reference to im2col) and arm the gate with a zero gain bar so
    its verdicts are its parity probes."""
    cfg = workspace.config
    saved = (cfg.pooling, cfg.conv_impl, cfg.sparse_compute,
             cfg.sparse_min_gain)
    cfg.pooling, cfg.conv_impl = True, "einsum"
    cfg.sparse_compute, cfg.sparse_min_gain = True, 0.0
    yield
    sparse.clear()
    sparse.STATS.reset()
    SPARSE_GEMM.reset()
    (cfg.pooling, cfg.conv_impl, cfg.sparse_compute,
     cfg.sparse_min_gain) = saved


@st.composite
def conv_cases(draw, dead=False):
    r = draw(st.sampled_from([3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(2 if dead else 1, 6))
    k = draw(st.integers(2 if dead else 1, 6))
    lo = max(1, r - 2 * padding)
    h = draw(st.integers(lo, lo + 5))
    w = draw(st.integers(lo, lo + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((k, c, r, r)) * 0.2).astype(np.float32)
    ho, wo = conv_ops.conv_out_size(h, w, r, r, stride, padding)
    dy = rng.standard_normal((n, k, ho, wo)).astype(np.float32)
    if not dead:
        return x, wt, dy, stride, padding
    in_dead = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)))
    out_dead = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    assume(not in_dead.all() and not out_dead.all())
    assume(in_dead.any() or out_dead.any())
    # the state the guards admit: dead weight groups, the dy rows of dead
    # outputs and the x channels of dead inputs are all exactly zero
    wt[:, in_dead] = 0.0
    wt[out_dead] = 0.0
    dy[:, out_dead] = 0.0
    x[:, in_dead] = 0.0
    return x, wt, dy, stride, padding, in_dead, out_dead


def _private(dtype):
    return lambda shape, tag, phase: np.empty(shape, dtype)


def _eager(x, w, dy, stride, padding):
    y, ctx = conv_ops.conv2d_forward(x, w, None, stride, padding)
    dx, dw, _ = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride,
                                         padding, need_db=False)
    out = y.copy(), dw.copy(), dx.copy()
    workspace.release(dx)
    conv_ops.release_ctx(ctx)
    return out


@given(conv_cases(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_dense_kernels_equal_eager(case, remat):
    x, w, dy, stride, padding = case
    y, dw, dx = _eager(x, w, dy, stride, padding)
    ks = ConvKernels(x.shape, w, stride, padding, x.dtype,
                     _private(x.dtype), remat=remat)
    for _ in range(2):          # twice: staging state survives a replay
        ks.fwd(x)
        assert np.array_equal(ks.y4, y)
        n, k = dy.shape[:2]
        assert np.array_equal(ks.dw(x, dy.reshape(n, k, -1)), dw)
        assert np.array_equal(ks.dx(dy), dx)


def _probe_dy(ks, x, out_dead):
    """The gradient the gate's probe uses: the layer's own output with the
    dead rows zero (what training produces)."""
    ks.fwd(x)
    g = ks.y4.copy()
    g[:, out_dead] = 0.0
    return g, sparse.index_runs(np.flatnonzero(
        g.reshape(g.shape[0], g.shape[1], -1).any(axis=(0, 2))))


@given(conv_cases(dead=True), st.booleans())
@settings(max_examples=40, deadline=None)
def test_live_kernels_compute_the_dense_result(case, remat):
    """What the live kernels skip is exactly zero and what they keep is the
    dense value up to BLAS accumulation order (whether the low bits agree
    too is shape-dependent — the next test pins that to the gate)."""
    x, w, dy, stride, padding, in_dead, out_dead = case
    ds = sparse.DeadSet.from_masks(in_dead, out_dead)
    ks = ConvKernels(x.shape, w, stride, padding, x.dtype,
                     _private(x.dtype), dead=ds, remat=remat)
    n, k = dy.shape[:2]
    g3 = dy.reshape(n, k, -1)
    close = dict(rtol=1e-4, atol=1e-5)
    # Forward skipping needs only the dead weights zero, whatever the dead
    # channels of x hold.
    x_dirty = x.copy()
    x_dirty[:, in_dead] = 1.0
    ks.fwd(x_dirty)
    y = ks.y4.copy()
    ks.fwd_live(x_dirty)
    np.testing.assert_allclose(ks.y4, y, **close)
    assert not ks.y4[:, out_dead].any()
    # dw: the *measured* zero rows are the compaction (ReLU-sparse); they
    # may exceed the published dead set.
    g3[:, 0] = 0.0
    dropped = ~g3.any(axis=(0, 2))
    rows = sparse.index_runs(np.flatnonzero(~dropped))
    dw = ks.dw(x, g3).copy()
    out = np.full_like(w, np.nan)               # out= is fully overwritten
    assert ks.dw_live(x, g3, rows, out) is out
    np.testing.assert_allclose(out, dw, **close)
    assert not out[dropped].any() and not out[:, in_dead].any()
    assert np.array_equal(ks.dw_live(x, g3, rows), out)
    if ks.dx_live is not None:
        dx = ks.dx(dy).copy()
        np.testing.assert_allclose(ks.dx_live(dy), dx, **close)
        assert not ks.dx_live(dy)[:, in_dead].any()
    # the dense kernels of a dual-layout set still work after live ones ran
    ks.fwd(x_dirty)
    assert np.array_equal(ks.y4, y)
    assert np.array_equal(ks.dw(x, g3), dw)


def _published(case):
    x, w, dy, stride, padding, in_dead, out_dead = case
    wt = Tensor(w)
    sparse.clear()
    SPARSE_GEMM.reset()
    sparse.publish([(wt, in_dead, out_dead)])
    return wt


@given(conv_cases(dead=True))
@settings(max_examples=40, deadline=None)
def test_live_bit_equality_agrees_with_probe_verdicts(case):
    """Compaction changes GEMM shapes, and BLAS may pair accumulators (or
    pick a kernel) differently for them, so bit-equality of a live kernel
    with its dense twin is shape-dependent.  The gate's parity verdicts
    must be the truth about the kernels a plan would run."""
    x, w, dy, stride, padding, in_dead, out_dead = case
    wt = _published(case)
    baseline = workspace.POOL.lent_count
    sparse.conv_gate_for(wt.data, x, stride, padding)
    assert workspace.POOL.lent_count == baseline
    verdict = {d["path"]: d["parity"] for d in SPARSE_GEMM.decisions}
    assert "fwd" in verdict
    ks = ConvKernels(x.shape, w, stride, padding, x.dtype,
                     _private(x.dtype), dead=sparse.dead_set_for(wt.data),
                     remat=True)
    g, rows = _probe_dy(ks, x, out_dead)
    y = ks.y4.copy()
    ks.fwd_live(x)
    assert np.array_equal(ks.y4, y) == verdict["fwd"]
    if "dw" in verdict:
        g3 = g.reshape(g.shape[0], g.shape[1], -1)
        dw = ks.dw(x, g3).copy()
        assert np.array_equal(ks.dw_live(x, g3, rows), dw) == verdict["dw"]
    if "dx" in verdict:
        dx = ks.dx(g).copy()
        assert np.array_equal(ks.dx_live(g), dx) == verdict["dx"]


@given(conv_cases(dead=True), st.sampled_from(["_put_ch", "_take_block"]))
@settings(max_examples=10, deadline=None)
def test_probe_returns_pooled_buffers_when_a_kernel_raises(case, victim):
    x, w, dy, stride, padding, in_dead, out_dead = case
    wt = _published(case)
    baseline = workspace.POOL.lent_count

    def boom(*args):
        raise RuntimeError("injected kernel failure")

    original = getattr(conv_ops, victim)
    setattr(conv_ops, victim, boom)
    try:
        with pytest.raises(RuntimeError, match="injected"):
            sparse.conv_gate_for(wt.data, x, stride, padding)
    finally:
        setattr(conv_ops, victim, original)
    assert workspace.POOL.lent_count == baseline

"""Property tests of the staged conv kernel set (ops.conv.ConvKernels).

One kernel set serves eager and the plan builder, so its contract is checked
here once, over generated shapes, in all four forms (window gather, 1x1, unrolled, span) on both sides of the
predicates that choose between them.  *Buffer lifetimes*: the eager driver
(built per call over fresh arrays, nothing rematerialised) equals, bitwise,
the same kernels in the planned layout — ``remat=True``, every point-lived
phase carved from one shared scratch region that is dirtied between kernel
calls — so a buffer read after the lifetime its phase declares shows up as a
NaN.  *Values*: every form agrees with the float64 im2col reference in
``tests/oracle.py`` and with finite differences.
"""

import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.tensor.ops import conv as conv_ops
from repro.tensor.ops.conv import ConvKernels

from .. import oracle


@st.composite
def conv_cases(draw):
    r = draw(st.sampled_from([3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    # A stride-1 same-size conv this narrow takes the span form; enough more
    # filters put it on the other side of ``conv_spans``.
    if conv_ops.conv_spans(k, r, r, stride, padding) and \
            draw(st.booleans()):
        k += conv_ops._SPAN_MACS_PER_RUN // (r - 1)
    lo = max(1, r - 2 * padding)
    h = draw(st.integers(lo, lo + 5))
    w = draw(st.integers(lo, lo + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((k, c, r, r)) * 0.2).astype(np.float32)
    ho, wo = conv_ops.conv_out_size(h, w, r, r, stride, padding)
    dy = rng.standard_normal((n, k, ho, wo)).astype(np.float32)
    return x, wt, dy, stride, padding


class _SharedScratch:
    """``alloc`` in the memory planner's layout: the point-lived phases
    (``"fwd"``, ``"a"``, ``"b"``) each carve from the start of one region, so
    forward staging, ``dw`` scratch and ``dx`` scratch overlap one another as
    they do with other ops' scratch in an arena; ``dirty()`` stands in for
    those other ops.  ``"span"``, ``"out"`` and ``"dx"`` buffers are private
    — as is everything with ``shared=False``, which drives ``remat=False``
    (eager's kernels) over private buffers.  ``"ab"`` buffers (what
    ``stage_dy`` writes for ``dw`` and ``dx`` to read) are dirtied too,
    except between those calls (``inside_backward``).  Records every
    ``(shape, phase)`` requested."""

    def __init__(self, dtype, shared=True, nbytes=1 << 23):
        self.dtype = np.dtype(dtype)
        self.region = np.empty(nbytes if shared else 0, np.uint8)
        self.cursor = dict.fromkeys(("fwd", "a", "b") if shared else (), 0)
        self.requests, self.whole_backward = [], []

    def __call__(self, shape, tag, phase):
        self.requests.append((shape, phase))
        if phase not in self.cursor:
            buf = np.full(shape, np.nan, self.dtype)
            if phase == "ab":
                self.whole_backward.append(buf)
            return buf
        lo = self.cursor[phase]
        hi = lo + int(np.prod(shape)) * self.dtype.itemsize
        assert hi <= self.region.size
        self.cursor[phase] = -(-hi // 64) * 64
        return self.region[lo:hi].view(self.dtype).reshape(shape)

    def dirty(self, inside_backward=False):
        self.region.fill(0xFF)                  # every float a NaN
        if not inside_backward:
            for buf in self.whole_backward:
                buf.fill(np.nan)


def _stage_dy(ks, alloc, dy):
    """Ahead of ``dw``/``dx``, as every driver does: run the form's shared
    staging of ``dy``, if it has one, with everything else dirty around it."""
    alloc.dirty()
    if ks.stage_dy is not None:
        ks.stage_dy(dy)
        alloc.dirty(inside_backward=True)


def _eager(x, w, dy, stride, padding, b=None, need_dx=True, form=None):
    """``(y, dw, dx, db)`` through the eager driver: kernels of the expected
    ``form`` built for the call over fresh arrays."""
    y, ctx = conv_ops.conv2d_forward(x, w, b, stride, padding)
    assert form in (None, ctx.form)
    dx, dw, db = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride,
                                          padding, need_dx=need_dx,
                                          need_db=b is not None)
    assert (dx is not None) == need_dx
    return y, dw, dx, db


def _assert_close_to_oracle(x, w, b, dy, stride, padding, y, dw, dx, db):
    """Values against the float64 im2col reference, which shares no code
    with the forms."""
    def f64(a):
        return None if a is None else a.astype(np.float64)
    y0, cache = oracle.conv_forward(f64(x), f64(w), f64(b), stride, padding)
    dx0, dw0, db0 = oracle.conv_backward(f64(dy), cache)
    close = dict(rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(y, y0, **close)
    np.testing.assert_allclose(dw, dw0, **close)
    if dx is not None:
        np.testing.assert_allclose(dx, dx0, **close)
    if b is not None:
        np.testing.assert_allclose(db, db0, **close)


@given(conv_cases(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_dense_kernels_equal_eager(case, remat):
    x, w, dy, stride, padding = case
    y, dw, dx, _ = _eager(x, w, dy, stride, padding)
    _assert_close_to_oracle(x, w, None, dy, stride, padding, y, dw, dx, None)
    alloc = _SharedScratch(x.dtype, shared=remat)
    ks = ConvKernels(x.shape, w, stride, padding, x.dtype, alloc, remat=remat)
    ks.backward(alloc)
    for _ in range(2):          # twice: staging state survives a replay
        alloc.dirty()
        ks.fwd(x)
        assert np.array_equal(ks.y4, y)
        n, k = dy.shape[:2]
        _stage_dy(ks, alloc, dy)
        assert np.array_equal(ks.dw(x, dy.reshape(n, k, -1)), dw)
        alloc.dirty(inside_backward=True)
        assert np.array_equal(ks.dx(dy), dx)


# -- the two weight-gradient forms --------------------------------------------

#: (c, k, hw) of a 3x3/pad-1 conv on each side of ``dw_folds``: few input
#: channels on a large map keep the per-sample slab, a wide layer on a small
#: map folds (4x4 is the smallest map that still takes the window-gather form,
#: and only with more filters than ``conv_spans`` admits).
PER_SAMPLE, FOLDED = (4, 26, 12), (32, 32, 4)


def _case(c, k, hw, n, r=3, padding=1, dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, hw, hw)).astype(dtype)
    w = (rng.standard_normal((k, c, r, r)) * 0.2).astype(dtype)
    ho, wo = conv_ops.conv_out_size(hw, hw, r, r, 1, padding)
    dy = rng.standard_normal((n, k, ho, wo)).astype(dtype)
    return x, w, dy


@pytest.mark.parametrize("n", [1, 32, 7])            # batch-1, full, tail
@pytest.mark.parametrize("remat", [False, True])
@pytest.mark.parametrize("shape, folds", [(PER_SAMPLE, False), (FOLDED, True)])
def test_dw_forms_equal_eager_on_both_sides_of_the_predicate(shape, folds, n,
                                                             remat):
    c, k, hw = shape
    x, w, dy = _case(c, k, hw, n)
    assert conv_ops.dw_folds(k, c * 9, hw * hw) == folds
    _, dw, _, _ = _eager(x, w, dy, 1, 1, form="gather")
    alloc = _SharedScratch(x.dtype, shared=remat)
    ks = ConvKernels(x.shape, w, 1, 1, x.dtype, alloc, remat=remat)
    assert not any(ph in "ab" for _, ph in alloc.requests)  # stage 1: forward
    ks.backward(alloc)
    # The (N, K, CRS) slab exists only on the per-sample side — at every N,
    # because the predicate never sees N.
    assert (((n, k, c * 9), "a") in alloc.requests) == (not folds)
    # Without remat the backward reads the forward's column tensor, so the
    # phase that names its lifetime has to say so.
    assert ((n, c, 3, 3, hw, hw), "fwd" if remat else "span") \
        in alloc.requests
    g3 = dy.reshape(n, k, -1)
    ks.fwd(x)
    alloc.dirty()
    assert np.array_equal(ks.dw(x, g3), dw)


@pytest.mark.parametrize("hw", [1, 2])
@pytest.mark.parametrize("r, padding", [(3, 1), (1, 0)])
def test_folded_dw_matches_finite_differences(hw, r, padding):
    """At 1x1 / 2x2 spatial a 1x1 conv's fold is one GEMM over N*P and a 3x3
    conv is unrolled; check both against the definition, not against the
    forms they replaced."""
    c, k, n = 12, 10, 3
    x, w, dy = _case(c, k, hw, n, r, padding, dtype=np.float64)
    assert conv_ops.dw_folds(k, c * r * r, hw * hw)
    y, ctx = conv_ops.conv2d_forward(x, w, None, 1, padding)
    _, dw, _ = conv_ops.conv2d_backward(dy, ctx, x.shape, w, 1, padding,
                                        need_dx=False, need_db=False)
    eps, num = 1e-6, np.empty_like(w)
    for idx in np.ndindex(w.shape):
        wp, wm = w.copy(), w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        yp, cp = conv_ops.conv2d_forward(x, wp, None, 1, padding)
        ym, cm = conv_ops.conv2d_forward(x, wm, None, 1, padding)
        num[idx] = ((yp - ym) * dy).sum() / (2 * eps)
    np.testing.assert_allclose(dw, num, rtol=1e-6, atol=1e-8)


# -- the R = S = 1 case ---------------------------------------------------------

@st.composite
def pointwise_cases(draw):
    """1x1 / padding-0 convs on both sides of ``dw_folds``: wide layers on
    tiny maps fold, narrow ones on large maps keep the per-sample slab."""
    stride = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([1, 32, 7]))            # batch-1, full, tail
    folds = draw(st.booleans())
    ch, hws = (st.integers(8, 20), st.integers(1, 3)) if folds \
        else (st.integers(1, 5), st.integers(6, 9))
    c, k, h, w = draw(ch), draw(ch), draw(hws), draw(hws)
    ho, wo = conv_ops.conv_out_size(h, w, 1, 1, stride, 0)
    assume(conv_ops.dw_folds(k, c, ho * wo) == folds)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((k, c, 1, 1)) * 0.2).astype(np.float32)
    b = rng.standard_normal(k).astype(np.float32) \
        if draw(st.booleans()) else None
    dy = rng.standard_normal((n, k, ho, wo)).astype(np.float32)
    return x, wt, b, dy, stride


@given(pointwise_cases(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_pointwise_kernels_equal_eager(case, remat):
    """``fwd`` / ``dw`` / ``db`` / ``dx`` of the 1x1 case in the planned
    layout equal the eager driver bitwise, ``out=`` and returned, whatever
    ``remat`` says, and both agree with the oracle; the staging is a view at
    stride 1 and one forward-to-backward buffer otherwise — never a
    re-gather."""
    x, w, b, dy, stride = case
    y, dw, dx, db = _eager(x, w, dy, stride, 0, b, form="pointwise")
    _assert_close_to_oracle(x, w, b, dy, stride, 0, y, dw, dx, db)
    alloc = _SharedScratch(x.dtype)
    ks = ConvKernels(x.shape, w, stride, 0, x.dtype, alloc, bias=b,
                     remat=remat)
    ks.backward(alloc)
    phases = [ph for _, ph in alloc.requests]
    assert "fwd" not in phases
    assert phases.count("span") == (stride > 1)
    n, k = dy.shape[:2]
    g3 = dy.reshape(n, k, -1)
    for _ in range(2):          # twice: staging state survives a replay
        alloc.dirty()
        ks.fwd(x)
        assert np.array_equal(ks.y4, y)
        alloc.dirty()
        assert np.array_equal(ks.dw(x, g3), dw)
        if b is not None:
            assert np.array_equal(ks.db(dy), db)
        alloc.dirty()
        got = ks.dx(dy)
        assert np.array_equal(got, dx)
        got += 1.0              # a consumer accumulated into the donated dx


def test_a_replay_binds_no_pointwise_weight_gradient(monkeypatch):
    """Over half the convs of a bottleneck ResNet are stride-1 1x1s, whose
    ``dw`` GEMM reads the input itself: a plan binds it once, on the input
    slab, so a warm replay builds no ``_DwGemm`` kernel at all — and its
    gradients stay those of the first replay."""
    from repro.nn import ResNet
    from repro.tensor.compile import capture_training_step
    model = ResNet([1, 1], [16, 32], True, 10, input_hw=8, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 10, size=4)
    plan, loss, _, reason = capture_training_step(model, x, y)
    assert reason is None, reason
    loss.backward()
    forms = [f[-1] for f in plan.conv_forms()]
    assert forms.count("pointwise") * 2 > len(forms)
    for p in model.parameters():
        p.grad = None
    plan.run(x, y)
    first = [np.array(p.grad, copy=True) for p in model.parameters()]
    calls = []
    kernel = conv_ops._DwGemm.kernel
    monkeypatch.setattr(conv_ops._DwGemm, "kernel",
                        lambda self, mat: calls.append(mat) or
                        kernel(self, mat))
    for p in model.parameters():
        p.grad = None
    plan.run(x, y)
    assert calls == []
    for p, g in zip(model.parameters(), first):
        assert np.array_equal(p.grad, g)


# -- the map-smaller-than-window case ------------------------------------------------

#: (r, padding, h, w): 3x3 on 1x1 / 1x2 / 2x1 / 2x2 / 1x4 maps and 5x5 on 3x3 /
#: 4x4 / 2x5 maps unroll — on the 4-wide and 5-wide ones some tap/pixel pairs
#: fall outside the filter, so T keeps structural zeros — and so do 3x3 on 3x3
#: and 5x5 on 5x5, the maps equal to the window; 3x3 on 3x4 / 4x4 and 5x5 on
#: 5x6 are past the boundary.
UNROLLED = [(3, 1, 1, 1), (3, 1, 1, 2), (3, 1, 2, 1), (3, 1, 2, 2),
            (3, 1, 1, 4), (5, 2, 3, 3), (5, 2, 4, 4), (5, 2, 2, 5),
            (3, 1, 3, 3), (5, 2, 5, 5)]
GEOMETRIES = UNROLLED + [(3, 1, 3, 4), (3, 1, 4, 4), (5, 2, 5, 6)]


def _overlapping(r, padding, size):
    """Taps of one filter axis that meet the map at some output position."""
    out = size + 2 * padding - r + 1
    return np.array([any(0 <= i + a - padding < size for i in range(out))
                     for a in range(r)])


@st.composite
def small_map_cases(draw):
    r, padding, h, w = draw(st.sampled_from(GEOMETRIES))
    n = draw(st.sampled_from([1, 7, 32]))            # batch-1, tail, full
    c, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((k, c, r, r)) * 0.2).astype(np.float32)
    b = rng.standard_normal(k).astype(np.float32) \
        if draw(st.booleans()) else None
    dy = rng.standard_normal((n, k, h, w)).astype(np.float32)
    return x, wt, b, dy, padding


@given(small_map_cases(), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_unrolled_kernels_equal_eager_on_both_sides_of_the_predicate(
        case, remat, need_dx):
    """On both sides of ``conv_unrolls``: the kernels in the planned layout
    equal the eager driver bitwise (``out=`` and returned, with and without
    ``dx``, whatever ``remat`` says), eager agrees with the oracle, and a tap that never overlaps the map gets an exactly-zero
    gradient."""
    x, w, b, dy, padding = case
    (n, c, h, wd), (k, r) = x.shape, w.shape[::2]
    unrolls = (r, padding, h, wd) in UNROLLED
    assert conv_ops.conv_unrolls(h, wd, r, r, 1) == unrolls
    form = "unrolled" if unrolls else "span"        # at most six filters
    y, dw, dx, db = _eager(x, w, dy, 1, padding, b, need_dx, form)

    alloc = _SharedScratch(x.dtype, shared=remat)
    ks = ConvKernels(x.shape, w, 1, padding, x.dtype, alloc, bias=b,
                     remat=remat)
    ks.backward(alloc, need_dx)
    assert ks.form == form
    g3 = dy.reshape(n, k, -1)
    for _ in range(2):          # twice: staging state survives a replay
        alloc.dirty()
        ks.fwd(x)
        assert np.array_equal(ks.y4, y)
        _stage_dy(ks, alloc, dy)
        assert np.array_equal(ks.dw(x, g3), dw)
        if b is not None:
            assert np.array_equal(ks.db(dy), db)
        if need_dx:
            alloc.dirty(inside_backward=True)
            got = ks.dx(dy)
            assert np.array_equal(got, dx)
            got += 1.0          # a consumer accumulated into the donated dx
        else:
            assert ks.dx is None

    never = ~np.outer(_overlapping(r, padding, h),
                      _overlapping(r, padding, wd))
    if (h, wd) == (1, 1):       # a 1x1 map only ever meets the centre tap
        assert never.sum() == r * r - 1
    assert not dw[:, :, never].any()
    _assert_close_to_oracle(x, w, b, dy, 1, padding, y, dw, dx, db)


def _assert_matches_finite_differences(form, c, k, h, w, r, padding, n=2):
    """``dw`` and ``dx`` of the eager conv (float64) against the definition."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((k, c, r, r)) * 0.2
    dy = rng.standard_normal((n, k, h, w))

    def loss(x_, w_):
        y, ctx = conv_ops.conv2d_forward(x_, w_, None, 1, padding)
        assert ctx.form == form
        return (y * dy).sum()

    def numeric(arr, f):
        eps, num = 1e-6, np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            hi, lo = arr.copy(), arr.copy()
            hi[idx] += eps
            lo[idx] -= eps
            num[idx] = (f(hi) - f(lo)) / (2 * eps)
        return num

    _, ctx = conv_ops.conv2d_forward(x, wt, None, 1, padding)
    dx, dw, _ = conv_ops.conv2d_backward(dy, ctx, x.shape, wt, 1, padding,
                                         need_db=False)
    np.testing.assert_allclose(dw, numeric(wt, lambda v: loss(x, v)),
                               rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(dx, numeric(x, lambda v: loss(v, wt)),
                               rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("r, padding, h, w", UNROLLED)
def test_unrolled_form_matches_finite_differences(r, padding, h, w):
    _assert_matches_finite_differences("unrolled", 3, 4, h, w, r, padding)


def test_the_unroll_predicate_never_reads_the_batch():
    """Batch growth, tail batches and shards must not flip the form: the
    predicates have no ``N`` to read, and the kernel set built at any batch
    size reports the same form and asks for no ``(N, K, C*R*S)`` slab or
    column tensor."""
    assert list(inspect.signature(conv_ops.conv_unrolls).parameters) == \
        ["h", "w", "r", "s", "stride"]
    assert list(inspect.signature(conv_ops.conv_spans).parameters) == \
        ["k", "r", "s", "stride", "padding"]
    assert not conv_ops.conv_unrolls(2, 2, 3, 3, 2)     # stride 1 only
    c, k, hw = 16, 16, 2
    for n in (1, 7, 32):
        x, w, _ = _case(c, k, hw, n)
        alloc = _SharedScratch(x.dtype)
        ks = ConvKernels(x.shape, w, 1, 1, x.dtype, alloc)
        ks.backward(alloc)
        assert ks.form == "unrolled"
        shapes = [shape for shape, _ in alloc.requests]
        assert (n, k, c * 9) not in shapes
        assert (n, c, 3, 3, hw, hw) not in shapes


# -- the whole-row-run case ----------------------------------------------------------

SPAN_MACS = conv_ops._SPAN_MACS_PER_RUN
#: (r, padding, h, w, k): same-size stride-1 convs with ``K*(S-1)`` at, below
#: and above the constant of ``conv_spans`` (above stays with the window
#: gather), on square and non-square maps — one lower than the window is
#: high — for 3x3 and 5x5 filters.
SPANS = [(3, 1, 4, 4, 5), (3, 1, 3, 4, 2), (3, 1, 2, 8, 4),
         (3, 1, 6, 9, SPAN_MACS // 2), (3, 1, 5, 4, SPAN_MACS // 2 - 1),
         (3, 1, 4, 6, SPAN_MACS // 2 + 1), (5, 2, 6, 7, SPAN_MACS // 4),
         (5, 2, 5, 6, 3), (5, 2, 6, 6, SPAN_MACS // 4 + 1)]


@st.composite
def span_cases(draw):
    r, padding, h, w, k = draw(st.sampled_from(SPANS))
    # batch-1, tail, full, and more than one block of the forward
    n = draw(st.sampled_from([1, 7, 32, conv_ops._SPAN_BLOCK + 8]))
    c = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((k, c, r, r)) * 0.2).astype(np.float32)
    b = rng.standard_normal(k).astype(np.float32) \
        if draw(st.booleans()) else None
    dy = rng.standard_normal((n, k, h, w)).astype(np.float32)
    return x, wt, b, dy, padding


@given(span_cases(), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_span_kernels_equal_eager_on_both_sides_of_the_predicate(
        case, remat, need_dx):
    """On both sides of ``conv_spans``: the kernels in the planned layout
    equal the eager driver bitwise (``out=`` and returned, with and without
    ``dx``, whatever ``remat`` says) and eager agrees with the oracle.
    Everything the planned layout shares is NaN between
    calls, so a garbage column of the padded-width grid (``yq``, ``dxq``,
    ``dyc``) read into a result, or staging read past its phase, shows."""
    x, w, b, dy, padding = case
    (n, c, h, wd), (k, r) = x.shape, w.shape[::2]
    spans = k * (r - 1) <= SPAN_MACS
    assert conv_ops.conv_spans(k, r, r, 1, padding) == spans
    form = "span" if spans else "gather"
    y, dw, dx, db = _eager(x, w, dy, 1, padding, b, need_dx, form)
    _assert_close_to_oracle(x, w, b, dy, 1, padding, y, dw, dx, db)

    alloc = _SharedScratch(x.dtype, shared=remat)
    ks = ConvKernels(x.shape, w, 1, padding, x.dtype, alloc, bias=b,
                     remat=remat)
    assert not any(ph in ("a", "b", "ab") for _, ph in alloc.requests)
    ks.backward(alloc, need_dx)
    assert ks.form == form
    phases = {ph for _, ph in alloc.requests}
    if spans:       # nothing lives from forward to backward; dyc feeds both
        assert "span" not in phases and ("ab" in phases) == need_dx
    assert (ks.stage_dy is not None) == (spans and need_dx)
    g3 = dy.reshape(n, k, -1)

    def check_dx():
        got = ks.dx(dy)
        assert np.array_equal(got, dx)
        got += 1.0              # a consumer accumulated into the donated dx
        alloc.dirty(inside_backward=True)

    # twice (staging state survives a replay): dw then dx as a serial thunk
    # runs them, dx then dw as a level schedule does
    for dx_first in (False, True):
        alloc.dirty()
        ks.fwd(x)
        assert np.array_equal(ks.y4, y)
        _stage_dy(ks, alloc, dy)
        if need_dx and dx_first:
            check_dx()
        assert np.array_equal(ks.dw(x, g3), dw)
        alloc.dirty(inside_backward=True)
        if need_dx and not dx_first:
            check_dx()
        assert (ks.dx is None) == (not need_dx)
        _stage_dy(ks, alloc, dy)
        assert np.array_equal(ks.dw(x, g3), dw)
        if b is not None:
            assert np.array_equal(ks.db(dy), db)


@pytest.mark.parametrize("r, padding, h, w, k", SPANS[:3] + SPANS[6:8])
def test_span_form_matches_finite_differences(r, padding, h, w, k):
    _assert_matches_finite_differences("span", 3, k, h, w, r, padding)


#: id -> (c, k, hw, r, stride, padding): one geometry per form and side of
#: the stride and padding branches.  26 filters keep a stride-1 3x3 conv
#: with padding 1 on the window gather (``conv_spans``).
FORM_GEOMETRIES = {
    "gather-s1-p0": (6, 4, 6, 3, 1, 0),
    "gather-s1-p1": (6, 26, 6, 3, 1, 1),
    "gather-s2-p0": (6, 4, 7, 3, 2, 0),
    "gather-s2-p1": (6, 4, 6, 3, 2, 1),
    "pointwise-s1": (6, 4, 6, 1, 1, 0),
    "pointwise-s2": (6, 4, 6, 1, 2, 0),
    "unrolled": (6, 4, 2, 3, 1, 1),
    "span": (6, 4, 6, 3, 1, 1),
}


def test_every_geometry_takes_the_form_it_is_named_for():
    for name, (c, k, hw, r, stride, padding) in FORM_GEOMETRIES.items():
        assert conv_ops.conv_form(hw, hw, r, r, stride, padding, k) == \
            name.split("-")[0]

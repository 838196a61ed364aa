"""Vectorized 2-D convolution kernels.

A *gather-once, GEMM-everywhere* lowering, stated once as the kernel set
:class:`ConvKernels` and driven three ways: per call by eager
:func:`conv2d_forward` / :func:`conv2d_backward` (fresh arrays, as NumPy
allocates them) and once per plan by the plan builder
(:mod:`repro.tensor.compile`, buffers from the plan's arena).  A conv takes
one of four forms, each one class, looked up in :data:`FORMS` by
:func:`conv_form` of its geometry: the window gather
(:class:`_GatherKernels`), the 1x1 case (:class:`_PointwiseKernels` — over
half the layers of a bottleneck ResNet), the unrolled form for maps no
larger than the filter window (:class:`_UnrolledKernels` — the tail of a
CIFAR VGG, the last stage of a small-input ResNet) and the span form for
narrow stride-1 same-size convs on larger maps (:class:`_SpanKernels` — the
first two stages of a CIFAR ResNet, whose cost is the gather's short runs,
not its GEMMs).  The predicates that choose — :func:`conv_unrolls` and
:func:`conv_spans` the form, :func:`dw_folds` the weight-gradient shape —
are closed-form and ``N``-free, each derived where it is defined, and every
form is written exactly once, so eager, captured and planned convs are
bit-identical by construction.

What the tests hold bitwise is the buffer-lifetime property, the per-call
driver's fresh arrays against the planned layout (``remat=True``, shared
scratch); the *values* are held against finite differences and the float64
column-matrix reference in ``tests/oracle.py``, which shares no code with
the forms.

Layout conventions (PyTorch-compatible):
  activations ``(N, C, H, W)``, filters ``(K, C, R, S)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view



def conv_out_size(h: int, w: int, r: int, s: int, stride: int,
                  padding: int) -> Tuple[int, int]:
    """Spatial output size of a convolution."""
    ho = (h + 2 * padding - r) // stride + 1
    wo = (w + 2 * padding - s) // stride + 1
    return ho, wo


def _is_pointwise(r: int, s: int, padding: int) -> bool:
    return r == 1 and s == 1 and padding == 0


def dw_folds(k: int, crs: int, p: int) -> bool:
    """Which of the two weight-gradient forms a conv uses.

    ``True``: batch-folded — one GEMM ``dy (K, N*P) @ cols (N*P, C*R*S)``
    after restaging ``dy`` and the columns channel-major.  ``False``:
    per-sample — ``N`` GEMMs into an ``(N, K, C*R*S)`` slab, then a sum over
    the batch.  The slab costs ``K*CRS`` elements a sample, the restage
    ``P*(CRS + K)``; folding wins once the slab is the bigger of the two
    (wide layers at small spatial size, where the per-sample GEMMs degenerate
    towards rank-``P`` outer products), and loses on narrow layers with large
    feature maps.

    The two forms sum the batch in different orders, so it has one reader,
    :class:`_DwGemm`, through which every ``dw`` kernel (the gather's, the
    span's and the 1x1's) goes.  It deliberately ignores ``N``: batch growth, tail batches and
    data-parallel shards must never flip the form mid-run.
    """
    return k * crs > p * (crs + k)


def conv_unrolls(h: int, w: int, r: int, s: int, stride: int) -> bool:
    """Whether a conv takes the unrolled form (:class:`_UnrolledKernels`):
    the input map is no larger than the filter window, so most taps of most
    windows only ever see padding — 3x3 on 1x1, 1x2, 2x2 and 3x3 maps.  One
    GEMM against the unrolled filter does the ``H*W*Ho*Wo`` tap/pixel
    products that can be nonzero, where the window gather pays ``R*S*Ho*Wo``
    a channel pair (36 against 16 on a 2x2 map, 9 against 1 on 1x1) and runs
    them as ``N`` GEMMs with ``Ho*Wo`` columns each.  At ``H*W == R*S`` the
    two do the same MACs (81 a channel pair on 3x3) and the unrolled form
    still wins — it has no gather at all (measured 1.0-4.5x fwd+bwd at 12-256
    channels, N = 32 and 96).  Like
    :func:`dw_folds` it is closed-form and ignores ``N`` (the form changes
    the reduction order); its one reader is :func:`conv_form`."""
    return stride == 1 and h * w <= r * s


#: extra MACs a sample the span form may pay for each gather run it saves
#: (measured, see :func:`conv_spans`)
_SPAN_MACS_PER_RUN = 48

#: samples per pass of the span form's forward: its staging stays the size a
#: training batch makes it (and in cache) when an evaluation batch is 8x that
_SPAN_BLOCK = 32


def conv_spans(k: int, r: int, s: int, stride: int, padding: int) -> bool:
    """Whether a conv takes the span form (:class:`_SpanKernels`): stride 1,
    output the size of the input (``R = S = 2p + 1 > 1``) and few enough
    filters.  The window gather copies ``R*S*Ho`` runs of ``Wo`` floats per
    sample and channel and a copy costs per *run* (~8 ns whatever its
    length); the span form copies ``R*S`` runs of the flattened padded map
    and multiplies on the padded-width grid instead.  Each of the
    ``R*S*(Ho - 1)`` runs saved per channel costs it the ``Wp - Wo = S - 1``
    garbage columns of one output row, ``K*(S - 1)`` extra MACs a sample, so
    the form pays while that product is small.  The constant is measured
    (docs/ARCHITECTURE.md §4 has the sweep): conv by conv the form wins to
    48 filters and breaks even at 64, but over a whole run its
    ``Wp/Wo``-wider column tensors compete with everything else for cache
    and memory — at 32 filters on 16x16 maps eager VGG-13 steps got 7-14 %
    slower and the resident set 4 % larger — so the line is drawn at 24.
    Closed-form and ``N``-free like :func:`conv_unrolls`; its one reader is
    :func:`conv_form`."""
    return (stride == 1 and r == 2 * padding + 1 == s and r > 1
            and k * (s - 1) <= _SPAN_MACS_PER_RUN)


def conv_form(h: int, w: int, r: int, s: int, stride: int, padding: int,
              k: int) -> str:
    """Which form a conv takes — the key :class:`ConvKernels` looks its class
    up by in :data:`FORMS`: ``"pointwise"``, ``"unrolled"``, ``"span"`` or
    ``"gather"``."""
    if _is_pointwise(r, s, padding):
        return "pointwise"
    if conv_unrolls(h, w, r, s, stride):
        return "unrolled"
    return "span" if conv_spans(k, r, s, stride, padding) else "gather"


def _windows(xp: np.ndarray, r: int, s: int, stride: int) -> np.ndarray:
    wdw = sliding_window_view(xp, (r, s), axis=(2, 3))
    if stride > 1:
        wdw = wdw[:, :, ::stride, ::stride]
    return wdw


def _to_pixel_major(a4: np.ndarray, a2: np.ndarray) -> None:
    """``(N, C, H, W)`` -> ``a2 (N, H*W*C)``."""
    n, c, h, w = a4.shape
    np.copyto(a2.reshape(n, h, w, c), a4.transpose(0, 2, 3, 1))


def _to_channel_major(a2: np.ndarray, a4: np.ndarray, bias4=None) -> None:
    """``(N, H*W*C)`` -> ``a4 (N, C, H, W)``, adding ``bias4`` on the way."""
    n, c, h, w = a4.shape
    src = a2.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    if bias4 is None:
        np.copyto(a4, src)
    else:
        np.add(src, bias4, out=a4)


class _Gather:
    """One window gather: ``(N, C, H, W)`` source -> column tensor ``cols6``,
    staged through the padded buffer ``pad`` (``None`` gathers straight from
    the source).

    ``cols6`` is sample-major, ``(N, C, R, S, Ho, Wo)``, and :attr:`mat` its
    batched-GEMM operand view ``(N, C*R*S, P)`` — or, with ``cmajor``,
    channel-major, ``(C, R, S, N, Ho, Wo)``, and :attr:`mat` the
    ``(C*R*S, N*P)`` operand of the batch-folded weight-gradient GEMM, so a
    backward re-gather lands in the layout that GEMM reads with no second
    pass.  Either way the trailing ``Wo`` axis is stride-1 in the source.

    ``dense(src)`` gathers.  ``rezero`` clears the padded borders on every
    call — needed when the buffer is shared scratch; otherwise the owner
    zeroes it once.
    """

    __slots__ = ("dense", "mat")

    def __init__(self, cols6: np.ndarray, pad: Optional[np.ndarray],
                 src_shape: tuple, r: int, s: int, stride: int, ph: int,
                 pw: int, rezero: bool, cmajor: bool = False) -> None:
        n, c, h, w = src_shape
        ho, wo = cols6.shape[4:]
        # window view (N, C, Ho, Wo, R, S) -> the column tensor's axis order
        axes = (1, 4, 5, 0, 2, 3) if cmajor else (0, 1, 4, 5, 2, 3)
        self.mat = cols6.reshape(c * r * s, n * ho * wo) if cmajor \
            else cols6.reshape(n, c * r * s, ho * wo)
        if pad is None:
            def dense(src: np.ndarray) -> None:
                np.copyto(cols6, _windows(src, r, s, stride).transpose(axes))
        else:
            core = pad[:, :, ph:ph + h, pw:pw + w]
            wdwT = _windows(pad, r, s, stride).transpose(axes)
            if rezero and (ph or pw):
                def dense(src: np.ndarray) -> None:
                    pad.fill(0)
                    np.copyto(core, src)
                    np.copyto(cols6, wdwT)
            else:
                def dense(src: np.ndarray) -> None:
                    np.copyto(core, src)
                    np.copyto(cols6, wdwT)
        self.dense = dense


class _Span:
    """Padded staging ``pad (N, ch, Hp, Wp)`` of an ``(N, ch, H, W)`` source,
    read as the flat map ``(N, ch, Hp*Wp)``: on the padded-width grid
    ``t = i*Wp + j`` tap ``(r, s)`` of every window is the one flat offset
    ``r*Wp + s``, so a whole tap plane is a single run of
    ``q = H*Wp - (S - 1)`` floats (the last one ends on the last padded
    element).  Columns ``j >= W`` of the grid hold wrapped-around garbage —
    finite, and never read into a result.

    ``stage(src)`` zeroes the borders and copies the interior (every call:
    the staging is point-lived scratch); ``gather(src)`` stages, then copies
    the ``R*S`` runs of each channel into ``cols (N, ch*R*S, q)``;
    :attr:`centre` is the centre tap's run as a view, ``(N, ch, q)`` — the
    source itself on the grid, exact zeros in the garbage columns.
    """

    __slots__ = ("stage", "gather", "centre")

    def __init__(self, pad: np.ndarray, src_shape: tuple, r: int, s: int,
                 p: int, cols: Optional[np.ndarray] = None) -> None:
        n, ch, h, w = src_shape
        hp, wp = pad.shape[2:]
        q = h * wp - (s - 1)
        core = pad[:, :, p:p + h, p:p + w]
        lo = p * wp + p
        self.centre = pad.reshape(n, ch, hp * wp)[:, :, lo:lo + q]

        def stage(src: np.ndarray) -> None:
            pad.fill(0)
            np.copyto(core, src)
        self.stage = stage
        self.gather = None
        if cols is not None:
            sn, sc, sh, sw = pad.strides
            taps = as_strided(pad, (n, ch, r, s, q), (sn, sc, sh, sw, sw),
                              writeable=False)
            cols5 = cols.reshape(n, ch, r, s, q)

            def gather(src: np.ndarray) -> None:
                stage(src)
                np.copyto(cols5, taps)
            self.gather = gather


class _DwGemm:
    """The weight-gradient contraction of ``dy (N, K, P)`` with staged
    columns, in the form :func:`dw_folds` picks from ``(K, CRS, P)`` — the
    one place the two forms are written, for every form that gathers and
    the 1x1 case alike.

    *Per-sample*: ``N`` GEMMs ``dy (K, P) @ cols^T (P, CRS)`` into the
    ``(N, K, CRS)`` slab, summed over the batch.  *Batch-folded*: ``dy`` and
    the columns restaged channel-major into ``dyT (K, N, P)`` /
    ``colsT (CRS, N, P)``, then one GEMM over ``N*P``; with ``cmajor`` the
    columns arrive channel-major already (a backward re-gather lands there)
    and no ``colsT`` exists.  Construction requests the scratch, all phase
    ``"a"``.
    """

    __slots__ = ("fold", "n", "k", "crs", "p", "dyT", "colsT", "slab")

    def __init__(self, n: int, k: int, crs: int, p: int, alloc,
                 tags=("dyT", "colsT", "bwd"), cmajor: bool = False) -> None:
        self.n, self.k, self.crs, self.p = n, k, crs, p
        self.fold = dw_folds(k, crs, p)
        self.dyT = self.colsT = self.slab = None
        if self.fold:
            self.dyT = alloc((k, n, p), tags[0], "a")
            if not cmajor:
                self.colsT = alloc((crs, n, p), tags[1], "a")
        else:
            self.slab = alloc((n, k, crs), tags[2], "a")

    def kernel(self, mat: np.ndarray):
        """``run(g3, out2=None)`` returns the ``(K, CRS)`` gradient of
        ``g3`` against the columns ``mat`` — ``(N, CRS, P)``, or
        ``(CRS, N*P)`` when they arrive channel-major — written into
        ``out2`` if given."""
        n, k, crs, p = self.n, self.k, self.crs, self.p
        if not self.fold:
            slab, rhs = self.slab, mat.transpose(0, 2, 1)

            def run(g3: np.ndarray, out2=None) -> np.ndarray:
                np.matmul(g3, rhs, out=slab)
                return np.add.reduce(slab, axis=0, out=out2)
            return run

        dyT = self.dyT
        lhs = dyT.reshape(k, n * p)
        if self.colsT is None:
            buf, rhs = None, mat.T
        else:
            buf, src = self.colsT, mat.transpose(1, 0, 2)
            rhs = buf.reshape(crs, n * p).T

        def run(g3: np.ndarray, out2=None) -> np.ndarray:
            if buf is not None:
                np.copyto(buf, src)
            np.copyto(dyT, g3.transpose(1, 0, 2))
            return np.matmul(lhs, rhs, out=out2)
        return run


# -- the kernel set ----------------------------------------------------------------

class ConvKernels:
    """The conv lowering as kernels over caller-supplied buffers:
    each form stated once, driven by eager :func:`conv2d_forward` /
    :func:`conv2d_backward` and by the plan builder
    (:mod:`repro.tensor.compile`).  ``ConvKernels(...)`` builds the class
    :data:`FORMS` registers under :func:`conv_form` of the geometry;
    :attr:`form` names it.

    Built from the input shape, the filter array ``w`` and optional ``bias``
    (their identity must be stable for the kernels' life), stride/padding/
    dtype and an ``alloc(shape, tag, phase)`` callback that supplies every
    buffer, in **two stages**, so a driver that runs the passes apart (eager)
    holds backward scratch only while backward runs: construction requests
    the forward buffers and builds ``fwd(x)``, which fills :attr:`y4` (bias
    included); :meth:`backward`, handed ``alloc`` again (the kernels keep no
    reference to it), requests the backward scratch and builds
    ``dw(x, g3)`` — the ``(K, C, R, S)`` weight gradient of ``g3 = dy (N, K,
    P)``, a fresh array — and, with ``need_dx``, ``dx(g)``, the input
    gradient.  ``db(g)`` is the bias gradient.
    A form whose ``dw`` and ``dx`` read common staging of ``dy`` builds
    ``stage_dy(g)`` as well, to run before both; it is ``None`` wherever the
    two share nothing.
    ``phase`` names a buffer's lifetime, which each driver maps to storage:

    ========  ===========================================  ==================
    phase     lifetime                                     plan (planner on)
    ========  ===========================================  ==================
    ``out``   the output activation                        value slab
    ``fwd``   inside ``fwd``                               point-lived
    ``span``  ``fwd`` to the own backward                  fwd..bwd slab
    ``a``     inside ``stage_dy`` + ``dw``                 early backward tick
    ``b``     inside ``dx``                                late backward tick
    ``ab``    written by ``stage_dy``, read by ``dw`` and  both backward ticks
              ``dx``
    ``dx``    handed to the input's producer               grad slab
    ========  ===========================================  ==================

    Eager ignores the phase: every request is a fresh array, which NumPy
    frees with its last reference — forward-only staging when the driver
    drops ``fwd``, the rest with the kernel set (``ctx``) or, for ``dx``,
    with the gradient it was donated as.  Every ``sliding_window_view``,
    reshape and transpose is precomputed over those buffers: a plan replays
    bare kernel calls, eager performs the same numpy operations on fresh
    arrays.  ``backward=False`` (forward-only plans) says no second stage
    follows, so nothing need outlive ``fwd``.

    ``remat=True`` (the memory planner's layout: forward staging is
    point-lived scratch shared with other ops) changes :class:`_GatherKernels`
    only, ``row_stable=True`` (forward-only serving plans)
    :class:`_UnrolledKernels` only; see there.
    """

    #: the :func:`conv_form` this class is registered under in :data:`FORMS`
    form = ""

    def __new__(cls, x_shape: tuple, w: np.ndarray, stride: int,
                padding: int, *args, **kwargs):
        if not cls.form:
            cls = FORMS[conv_form(*x_shape[2:], *w.shape[2:], stride, padding,
                                  w.shape[0])]
        return super().__new__(cls)

    def __init__(self, x_shape: tuple, w: np.ndarray, stride: int,
                 padding: int, dtype, alloc, *, bias=None,
                 remat: bool = False, backward: bool = True,
                 row_stable: bool = False) -> None:
        self.x_shape, self.w, self.stride, self.padding = \
            x_shape, w, stride, padding
        self.dtype, self.remat = dtype, remat
        self.b4 = None if bias is None else bias[None, :, None, None]
        (_, _, h, wd), (k, _, r, s) = x_shape, w.shape
        #: ``(n, c, h, w, k, r, s, ho, wo)``
        self.dims = (*x_shape, k, r, s,
                     *conv_out_size(h, wd, r, s, stride, padding))
        self.dw = self.dx = self.stage_dy = None
        self._forward(alloc, backward, row_stable)

    def _forward(self, alloc, backward: bool, row_stable: bool) -> None:
        """First stage: request forward buffers; set ``y4`` and ``fwd``."""
        raise NotImplementedError

    def backward(self, alloc, need_dx: bool = True) -> None:
        """Second stage: request the backward scratch; set ``dw`` and, with
        ``need_dx``, ``dx`` (and ``stage_dy``, if they share)."""
        raise NotImplementedError

    @staticmethod
    def db(g: np.ndarray) -> np.ndarray:
        """Bias gradient of ``dy (N, K, Ho, Wo)``, a fresh array."""
        return g.sum(axis=(0, 2, 3))


class _GatherKernels(ConvKernels):
    """The window gather.  ``fwd`` copies the sliding windows of the (padded)
    input into one column tensor in batched-GEMM layout,
    ``(N, C*R*S, Ho*Wo)``, and computes ``y`` as a single batched matrix
    product against the flattened filter bank — no output transpose, because
    the contraction lands directly in NCHW order.  The gather is paid once:
    ``dw`` contracts ``dy`` with the same columns (:class:`_DwGemm`), and
    ``dx`` gathers ``dy`` instead — the transposed-convolution form at unit
    stride (~2x faster than patch-scatter), the strided scatter-add form
    otherwise.

    Without ``remat`` the backward GEMM reads the forward's column tensor
    directly (``"span"``), through a channel-major restage when ``dw`` folds.
    With it the forward staging is point-lived: padded borders are re-zeroed
    per step and the backward re-stages ``x`` and re-gathers the identical
    windows into its own phase-``"a"`` scratch instead of keeping the column
    tensor (RxS times the feature map) alive across the step — channel-major
    when ``dw`` folds, so the re-gather lands in the layout the folded GEMM
    reads.
    """

    form = "gather"

    def _forward(self, alloc, backward: bool, row_stable: bool) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        w, padding, b4, remat = self.w, self.padding, self.b4, self.remat
        p, crs = ho * wo, c * r * s
        w3 = w.reshape(k, crs)

        # Request order is part of the arena layout (the planner breaks size
        # ties by it).
        cols6 = alloc((n, c, r, s, ho, wo), "cols_f",
                      "fwd" if remat else "span")
        y4 = self.y4 = alloc((n, k, ho, wo), "y", "out")
        y3 = y4.reshape(n, k, p)
        xp = None
        if padding:
            xp = alloc((n, c, h + 2 * padding, wd + 2 * padding), "xp", "fwd")
            if not remat:
                xp.fill(0)
        self.xp = xp
        gx = self.gx = _Gather(cols6, xp, self.x_shape, r, s, self.stride,
                               padding, padding, remat)
        gather, cols3 = gx.dense, gx.mat

        def fwd(x: np.ndarray) -> None:
            gather(x)
            np.matmul(w3, cols3, out=y3)
            if b4 is not None:
                np.add(y4, b4, out=y4)
        self.fwd = fwd

    def backward(self, alloc, need_dx: bool = True) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        w, remat = self.w, self.remat
        stride, padding, gx, xp = self.stride, self.padding, self.gx, self.xp
        p, crs = ho * wo, c * r * s

        # -- dw (phase "a") ------------------------------------------------
        gemm = _DwGemm(n, k, crs, p, alloc, cmajor=remat)
        if remat:
            cols_b6 = alloc((c, r, s, n, ho, wo) if gemm.fold
                            else (n, c, r, s, ho, wo), "cols_b", "a")
            xpb = alloc(xp.shape, "xpb", "a") if xp is not None else None
            gb = _Gather(cols_b6, xpb, self.x_shape, r, s, stride, padding,
                         padding, True, cmajor=gemm.fold)
            regather = gb.dense
        else:
            gb, regather = gx, (lambda x: None)
        dense = gemm.kernel(gb.mat)

        def dw(x: np.ndarray, g3: np.ndarray) -> np.ndarray:
            regather(x)
            return dense(g3).reshape(k, c, r, s)
        self.dw = dw
        if not need_dx:
            return

        # -- dx (phase "b") ------------------------------------------------
        if stride == 1 and r > padding and s > padding:
            # Transposed convolution, ``dx = conv(pad(dy, R-1-p), flip(w))``
            # — the exact adjoint of the forward correlation — as one batched
            # GEMM landing in dx.  (An einsum of the same contraction
            # measures faster alone, but its multi-megabyte temporary per
            # call loses once the whole step competes for cache.)
            pr, ps = r - 1 - padding, s - 1 - padding
            wf4 = alloc((c, k, r, s), "wf", "b")
            wf2 = wf4.reshape(c, k * r * s)
            dx3 = alloc((n, c, h * wd), "grad", "dx")
            dx4 = dx3.reshape(n, c, h, wd)
            dyc6 = alloc((n, k, r, s, h, wd), "dyc", "b")
            dyp = None
            if pr or ps:
                dyp = alloc((n, k, ho + 2 * pr, wo + 2 * ps), "dyp", "b")
                if not remat:
                    dyp.fill(0)
            gy = _Gather(dyc6, dyp, (n, k, ho, wo), r, s, 1, pr, ps, remat)
            wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gather_dy, dyc3 = gy.dense, gy.mat

            def dx(g: np.ndarray) -> np.ndarray:
                gather_dy(g)
                np.copyto(wf4, wflip)
                np.matmul(wf2, dyc3, out=dx3)
                return dx4
        else:
            # Strided scatter-add: per-patch gradients in one batched GEMM,
            # then R*S strided slice additions into the padded dx, of which
            # the caller gets the interior view.
            w3T = w.reshape(k, crs).T
            dcols = alloc((n, crs, p), "dcols", "b")
            d6 = dcols.reshape(n, c, r, s, ho, wo)
            dxp = alloc((n, c, h + 2 * padding, wd + 2 * padding), "dxp",
                        "dx")
            dx_view = dxp[:, :, padding:padding + h, padding:padding + wd] \
                if padding else dxp

            def dx(g: np.ndarray) -> np.ndarray:
                np.matmul(w3T, g.reshape(n, k, p), out=dcols)
                # Scatter-adds accumulate, so the zeroed state is restored
                # per call.
                dxp.fill(0)
                for ri in range(r):
                    h_end = ri + stride * ho
                    for si in range(s):
                        w_end = si + stride * wo
                        dxp[:, :, ri:h_end:stride, si:w_end:stride] += \
                            d6[:, :, ri, si]
                return dx_view
        self.dx = dx


class _PointwiseKernels(ConvKernels):
    """A 1x1 filter at padding 0.  Its column tensor *is* the (strided)
    input, so staging is a reshape view per call at stride 1 and one strided
    copy into a ``"span"`` buffer otherwise (kept for ``dw``, never
    re-gathered, so the GEMM sees contiguous memory), and ``dx`` is the
    direct ``W^T @ dy`` GEMM, stored into a zero-filled buffer at
    stride > 1."""

    form = "pointwise"

    def _forward(self, alloc, backward: bool, row_stable: bool) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        stride, b4 = self.stride, self.b4
        p = ho * wo
        w2 = self.w.reshape(k, c)
        y4 = self.y4 = alloc((n, k, ho, wo), "y", "out")
        y3 = y4.reshape(n, k, p)
        self.xm = None
        if stride > 1:
            xm4 = alloc((n, c, ho, wo), "span", "span")
            xm = self.xm = xm4.reshape(n, c, p)

            def stage(x: np.ndarray) -> np.ndarray:
                np.copyto(xm4, x[:, :, ::stride, ::stride])
                return xm
        else:
            def stage(x: np.ndarray) -> np.ndarray:
                return x.reshape(n, c, p)

        def fwd(x: np.ndarray) -> None:
            np.matmul(w2, stage(x), out=y3)
            if b4 is not None:
                np.add(y4, b4, out=y4)
        self.fwd = fwd

    def backward(self, alloc, need_dx: bool = True) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        stride, p = self.stride, ho * wo
        # the staged input stands in for the column tensor
        gemm = _DwGemm(n, k, c, p, alloc, tags=("bwd",) * 3)
        # At stride 1 the GEMM reads x itself: it is bound on first sight of
        # an input array and kept while the same array comes back (a plan's
        # stable input slab), so replays do not rebuild it.
        rebind = self.xm is None
        bound = [None, None if rebind else gemm.kernel(self.xm)]

        def dw(x: np.ndarray, g3: np.ndarray) -> np.ndarray:
            if rebind and bound[0] is not x:
                bound[:] = x, gemm.kernel(x.reshape(n, c, p))
            return bound[1](g3).reshape(k, c, 1, 1)
        self.dw = dw
        if not need_dx:
            return

        w2t = self.w.reshape(k, c).T
        if stride > 1:
            tmp3 = alloc((n, c, p), "bwd", "b")
            tmp4 = tmp3.reshape(n, c, ho, wo)
            dx_buf = alloc((n, c, h, wd), "grad", "dx")

            def dx(g: np.ndarray) -> np.ndarray:
                np.matmul(w2t, g.reshape(n, k, p), out=tmp3)
                # Only the strided lanes are written; the rest must be zero
                # even after a consumer accumulated into dx last step.
                dx_buf.fill(0)
                dx_buf[:, :, ::stride, ::stride] = tmp4
                return dx_buf
        else:
            dx3 = alloc((n, c, p), "grad", "dx")
            dx4 = dx3.reshape(n, c, h, wd)

            def dx(g: np.ndarray) -> np.ndarray:
                np.matmul(w2t, g.reshape(n, k, p), out=dx3)
                return dx4
        self.dx = dx


#: source elements per copy when staging filter taps (see ``_toeplitz``)
_STAGE_BLOCK = 1 << 16


class _UnrolledKernels(ConvKernels):
    """The input map is smaller than the filter window (:func:`conv_unrolls`;
    stride 1): the conv is the dense layer ``y2 = x2 @ T.T``,
    ``dT = g2.T @ x2``, ``dx2 = g2 @ T`` — three single GEMMs with ``M = N``.

    Layout is pixel-major and tap-major with channels innermost.  Activations
    are restaged ``(N, H*W*C)`` (as small as the map).  The filter taps that
    can overlap the map are staged as ``(taps, K, C)`` and unrolled into
    ``T (Ho*Wo*K, H*W*C)`` in contiguous ``C``-runs::

        T[(i, j, k), (u, v, c)] = w[k, c, u - i + p, v - j + p]

    (zero where that tap lies outside the filter); the fold back onto the
    taps is the adjoint of the unrolling.  A ``K``-innermost layout computes
    the same thing but pays a full ``(K, C, R, S) <-> (R, S, C, K)`` filter
    transpose each way, which measured over twice a GEMM at 256 channels
    (3 ms against 0.4 ms here).

    ``x2`` and ``T`` are ``"span"``-lived — ``T`` is batch-independent,
    unlike a column tensor, so keeping it costs ``H*W*Ho*Wo`` filter planes
    however large ``N`` grows.  ``dw`` and ``dx`` share no scratch: each
    restages ``dy`` for itself.
    ``row_stable=True`` takes the forward product one sample at a time, as
    ``ops.basic.linear_forward`` does: a GEMM folded over the batch is not
    bit-stable across ``N`` (BLAS blocks by M).
    """

    form = "unrolled"

    def _forward(self, alloc, backward: bool, row_stable: bool) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        padding, b4 = self.padding, self.b4
        pk, hwc = ho * wo * k, h * wd * c
        # Output row i reads input row u through tap a = u - i + p: a window
        # of H taps starting at p - i.  Over all i that is the extended tap
        # range [p - Ho + 1, p + H); its part inside [0, R) is every tap
        # that ever overlaps the map.
        a0, b0 = padding - ho + 1, padding - wo + 1
        self.taps_shape = (ho + h - 1, wo + wd - 1, k, c)
        rows = slice(max(a0, 0), min(padding + h, r))
        cols = slice(max(b0, 0), min(padding + wd, s))
        #: the overlapping taps, as an index into (K, C, R, S) ...
        self.filt = (slice(None), slice(None), rows, cols)
        #: ... and into the extended tap range
        self.ext = (slice(rows.start - a0, rows.stop - a0),
                    slice(cols.start - b0, cols.stop - b0))
        self.span = (rows.stop - rows.start, cols.stop - cols.start)

        kept = "span" if backward else "fwd"
        taps = alloc(self.taps_shape, "taps", "fwd")
        x2 = self.x2 = alloc((n, hwc), "x2", kept)
        T = self.T = alloc((pk, hwc), "T", kept)
        y2 = alloc((n, pk), "y2", "fwd")
        y4 = self.y4 = alloc((n, k, ho, wo), "y", "out")
        unroll, TT = self._toeplitz(taps, T), T.T
        lhs, prod = (x2[:, None, :], y2[:, None, :]) if row_stable \
            else (x2, y2)

        def fwd(x: np.ndarray) -> None:
            _to_pixel_major(x, x2)
            unroll()
            np.matmul(lhs, TT, out=prod)
            _to_channel_major(y2, y4, b4)
        self.fwd = fwd

    def _toeplitz(self, taps: np.ndarray, T: np.ndarray):
        """``run()`` stages the overlapping taps of ``w`` into ``taps``
        (extended range) and unrolls them into ``T``; like :class:`_Gather`,
        every view is taken here, once."""
        n, c, h, wd, k, r, s, ho, wo = self.dims
        src = self.w[self.filt].transpose(2, 3, 0, 1)
        dst = taps[self.ext]
        # A few filters per copy, so each source block is read from memory
        # once and its tap planes from cache; one transposed copy of the
        # whole filter streams it once per tap (2x slower at 256 channels).
        kb = max(1, _STAGE_BLOCK // (c * r * s))
        blocks = [(dst[:, :, k0:k0 + kb], src[:, :, k0:k0 + kb])
                  for k0 in range(0, k, kb)]
        T6 = T.reshape(ho, wo, k, h, wd, c)
        # (Ho, Wo, K, C, H, W), window i' starting at extended tap row i'
        wdw = sliding_window_view(taps, (h, wd), axis=(0, 1))
        wdwT = wdw[::-1, ::-1].transpose(0, 1, 2, 4, 5, 3)
        clear = self.span != self.taps_shape[:2]    # T has structural zeros

        def run() -> None:
            if clear:
                taps.fill(0)
            for blk, src_blk in blocks:
                np.copyto(blk, src_blk)
            np.copyto(T6, wdwT)
        return run

    def _fold(self, dT: np.ndarray, dtaps: np.ndarray):
        """``run()`` returns the ``(K, C, R, S)`` weight gradient of ``dT``, a
        fresh array: its blocks scatter-added back
        onto the extended taps ``dtaps`` — the adjoint of the unrolling —
        then the overlapping ones restored to filter layout, with exact
        zeros for taps that never overlap the map."""
        n, c, h, wd, k, r, s, ho, wo = self.dims
        dT6 = dT.reshape(ho, wo, k, h, wd, c)
        adds = [(dtaps[ho - 1 - i:ho - 1 - i + h, wo - 1 - j:wo - 1 - j + wd],
                 dT6[i, j].transpose(1, 2, 0, 3))
                for i in range(ho) for j in range(wo)]
        grad = dtaps[self.ext].transpose(2, 3, 0, 1)
        filt = self.filt

        def run() -> np.ndarray:
            dtaps.fill(0)
            for window, blk in adds:
                np.add(window, blk, out=window)
            out = np.zeros((k, c, r, s), dT.dtype)
            np.copyto(out[filt], grad)
            return out
        return run

    def backward(self, alloc, need_dx: bool = True) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        x2, T = self.x2, self.T
        pk, hwc = T.shape
        g2a = alloc((n, pk), "g2", "a")
        dT = alloc(T.shape, "dT", "a")
        dtaps = alloc(self.taps_shape, "dtaps", "a")
        fold, g2aT = self._fold(dT, dtaps), g2a.T

        def dw(x: np.ndarray, g3: np.ndarray) -> np.ndarray:
            _to_pixel_major(g3.reshape(n, k, ho, wo), g2a)
            np.matmul(g2aT, x2, out=dT)
            return fold()
        self.dw = dw
        if not need_dx:
            return

        g2b = alloc((n, pk), "g2", "b")
        dx2 = alloc((n, hwc), "dx2", "b")
        dx4 = alloc((n, c, h, wd), "grad", "dx")

        def dx(g: np.ndarray) -> np.ndarray:
            _to_pixel_major(g, g2b)
            np.matmul(g2b, T, out=dx2)
            _to_channel_major(dx2, dx4)
            return dx4
        self.dx = dx


class _SpanKernels(ConvKernels):
    """A stride-1 conv whose output is the size of its input, with few enough
    filters (:func:`conv_spans`), computed on the *padded-width grid*
    (:class:`_Span`): the GEMMs of the window gather over ``q`` columns
    instead of ``Ho*Wo`` — ``Wp/Wo`` the MACs — fed by ``R*S`` copies a
    sample and channel instead of ``R*S*Ho``.

    ``fwd`` gathers ``x``, multiplies ``W (K, C*R*S) @ cols (C*R*S, q)`` per
    sample and copies the ``Wo`` valid columns of each row out (bias added on
    the way) — :data:`_SPAN_BLOCK` samples at a time, through one block of
    staging (per-sample GEMMs: the bits do not depend on the blocking).  The
    backward gathers once: the columns of ``dy`` feed the
    transposed-convolution GEMM of ``dx`` as in the gather form *and* the
    weight gradient, ``dw_flip (K*R*S, C) = sum_n dyc[n] @ x_q[n].T`` with
    ``x_q`` the centre run of the re-staged ``x`` (a 1x copy; its zeros
    cancel the garbage columns of ``dyc``) and ``dw[k, c, r, s] =
    dw_flip[(k, R-1-r, S-1-s), c]``.  The gather is its own kernel,
    ``stage_dy`` (phase ``"ab"``), which runs before ``dw`` and ``dx`` and
    leaves them independent of each other.  With no ``dx`` wanted
    nothing gathers ``dy``: ``dw`` contracts its centre run with the
    re-gathered columns of ``x`` (``C*R*S`` rows, not ``K*R*S``).  Either
    way the contraction goes through :class:`_DwGemm`.  Nothing outlives
    ``fwd``, so ``remat`` changes nothing here.
    """

    form = "span"

    def _forward(self, alloc, backward: bool, row_stable: bool) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        p, b4 = self.padding, self.b4
        hp, wp = self.padded = (h + 2 * p, wd + 2 * p)
        q = self.q = h * wp - (s - 1)
        nb = min(n, _SPAN_BLOCK)
        cols = alloc((nb, c * r * s, q), "cols_f", "fwd")
        xp = alloc((nb, c, hp, wp), "xp", "fwd")
        yq = alloc((nb, k, h * wp), "yq", "fwd")
        y4 = self.y4 = alloc((n, k, ho, wo), "y", "out")
        w2 = self.w.reshape(k, c * r * s)
        blocks = []
        for lo in range(0, n, nb):
            m = min(nb, n - lo)
            blocks.append((
                slice(lo, lo + m),
                _Span(xp[:m], (m, c, h, wd), r, s, p, cols[:m]).gather,
                cols[:m], yq[:m, :, :q],
                yq[:m].reshape(m, k, h, wp)[..., :wo], y4[lo:lo + m]))

        def fwd(x: np.ndarray) -> None:
            for rows, gather, cols_m, prod, valid, y_m in blocks:
                gather(x[rows])
                np.matmul(w2, cols_m, out=prod)
                if b4 is None:
                    np.copyto(y_m, valid)
                else:
                    np.add(valid, b4, out=y_m)
        self.fwd = fwd

    def backward(self, alloc, need_dx: bool = True) -> None:
        n, c, h, wd, k, r, s, ho, wo = self.dims
        p, q, (hp, wp) = self.padding, self.q, self.padded
        xpb = alloc((n, c, hp, wp), "xpb", "a")
        dyp = alloc((n, k, hp, wp), "dyp", "a")
        if not need_dx:
            cols = alloc((n, c * r * s, q), "cols_b", "a")
            gx, gy = _Span(xpb, self.x_shape, r, s, p, cols), \
                _Span(dyp, (n, k, ho, wo), r, s, p)
            gemm = _DwGemm(n, k, c * r * s, q, alloc).kernel(cols)

            def dw(x: np.ndarray, g3: np.ndarray) -> np.ndarray:
                gx.gather(x)
                gy.stage(g3.reshape(n, k, ho, wo))
                return gemm(gy.centre).reshape(k, c, r, s)
            self.dw = dw
            return

        dyc = alloc((n, k * r * s, q), "dyc", "ab")
        gx, gy = _Span(xpb, self.x_shape, r, s, p), \
            _Span(dyp, (n, k, ho, wo), r, s, p, dyc)
        gemm = _DwGemm(n, k * r * s, c, q, alloc).kernel(gx.centre)
        dwf = alloc((k, r, s, c), "dwf", "a")
        dwf2, unflip = dwf.reshape(-1, c), \
            dwf[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        dtype = self.dtype
        self.stage_dy = gy.gather

        def dw(x: np.ndarray, g3: np.ndarray) -> np.ndarray:
            gx.stage(x)
            gemm(dyc, dwf2)
            out = np.empty((k, c, r, s), dtype)
            np.copyto(out, unflip)
            return out
        self.dw = dw

        wf4 = alloc((c, k, r, s), "wf", "b")
        wf2 = wf4.reshape(c, k * r * s)
        wflip = self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dxq = alloc((n, c, h * wp), "dxq", "b")
        dx4 = alloc((n, c, h, wd), "grad", "dx")
        prod, valid = dxq[:, :, :q], dxq.reshape(n, c, h, wp)[..., :wd]

        def dx(g: np.ndarray) -> np.ndarray:
            np.copyto(wf4, wflip)
            np.matmul(wf2, dyc, out=prod)
            np.copyto(dx4, valid)
            return dx4
        self.dx = dx


#: :func:`conv_form` -> the class that states the form: a new form is one
#: class, one entry here and its line in :func:`conv_form` — no driver edits
FORMS = {cls.form: cls
         for cls in (_GatherKernels, _PointwiseKernels, _UnrolledKernels,
                     _SpanKernels)}


# -- the eager driver ----------------------------------------------------------------

def fresh_alloc(dtype):
    """``alloc(shape, tag, phase)`` that returns a new array per request,
    whatever its phase: the storage of the eager driver, which holds a
    kernel set for one call."""
    return lambda shape, tag="", phase="": np.empty(shape, dtype)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                   stride: int, padding: int
                   ) -> Tuple[np.ndarray, object]:
    """Forward convolution.  Returns ``(y, ctx)``.

    ``ctx`` is the kernel set of the conv's form that computed ``y``, built
    for this call over fresh arrays and kept, opaque, for
    :func:`conv2d_backward`; its buffers live as long as it does.
    """
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"filters expect {w.shape[1]}")
    alloc = fresh_alloc(x.dtype)
    ctx = ConvKernels(x.shape, w, stride, padding, x.dtype, alloc, bias=b)
    ctx.fwd(x)
    # ``fwd`` runs once per call: dropping it frees the forward-only staging
    # (phase ``"fwd"``) before the next conv allocates its own.
    ctx.fwd = None
    # Driver state: dw(x, g3) reads x where the form staged nothing, and the
    # kernels keep no reference to their allocator (a plan's holds its builder).
    ctx.x, ctx.alloc = x, alloc
    return ctx.y4, ctx


def conv2d_backward(dy: np.ndarray, ctx,
                    x_shape: Tuple[int, int, int, int], w: np.ndarray,
                    stride: int, padding: int, need_dx: bool = True,
                    need_db: bool = True
                    ) -> Tuple[Optional[np.ndarray], np.ndarray,
                               Optional[np.ndarray]]:
    """Backward convolution.

    Returns ``(dx, dw, db)``, each a fresh array the caller owns.  ``dx`` is
    ``None`` when ``need_dx`` is false (first layer of a network); ``db`` is
    ``None`` when ``need_db`` is false (bias-free convs — every conv
    followed by BN).  The backward scratch is the second stage of ``ctx``,
    which knows the geometry the other arguments restate.
    """
    ctx.backward(ctx.alloc, need_dx)
    if ctx.stage_dy is not None:
        ctx.stage_dy(dy)
    n, k = dy.shape[:2]
    dw = ctx.dw(ctx.x, dy.reshape(n, k, -1))
    db = ctx.db(dy) if need_db else None
    dx = ctx.dx(dy) if need_dx else None
    return dx, dw, db


def release_ctx(ctx) -> None:
    """No-op kept for ``benchmarks/e2e``, which calls it after a conv's
    backward, until ROADMAP item 1 removes the call.  Nothing in ``src/``
    calls it."""

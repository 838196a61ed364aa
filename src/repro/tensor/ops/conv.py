"""Vectorized 2-D convolution kernels.

Two lowerings are provided, selected by ``workspace.config.conv_impl``:

``"einsum"`` (default, the optimized engine)
    A *gather-once, GEMM-everywhere* lowering.  The forward pass copies the
    sliding windows of the (padded) input into one pooled column tensor in
    batched-GEMM layout, ``(N, C*R*S, Ho*Wo)``, then computes ``y`` as a
    single batched matrix product against the flattened filter bank — no
    output transpose, because the contraction lands directly in NCHW order.
    The gather is paid exactly once per layer per step: backward reuses the
    same column tensor, so

    - ``dw`` contracts ``dy`` with those columns (the seed engine
      re-gathered the windows here a second time) in one of two forms:
      *per-sample* — ``N`` GEMMs ``dy (K, P) @ cols^T (P, C*R*S)`` into an
      ``(N, K, C*R*S)`` slab, summed over the batch — or *batch-folded* —
      ``dy`` and the columns restaged channel-major, then one GEMM
      ``dy (K, N*P) @ cols (N*P, C*R*S)``.  :func:`dw_folds` picks the form
      from ``(K, C*R*S, P)`` alone, and every driver of this lowering reads
      it;
    - ``dx`` for unit stride is the transposed convolution of ``dy`` with
      the spatially flipped filters, expressed as a window contraction —
      ~2x faster than the patch-scatter formulation; strided convs compute
      per-patch gradients with one batched GEMM and scatter-add them in
      ``R*S`` strided slice additions.

    That window gather is one of three forms.  1x1 convolutions skip all of
    it: they are batched ``(K,C)`` x ``(N,C,H*W)`` matrix products in both
    directions, with the same two ``dw`` forms against the staged input.
    And a conv whose input map is smaller than its filter window
    (:func:`conv_unrolls`: 3x3 on 2x2 or 1x1 — the tail of a CIFAR VGG) is
    treated as the dense layer it is: the taps that can overlap the map are
    unrolled into one Toeplitz matrix ``T`` and forward, ``dw`` and ``dx``
    are three single GEMMs over the whole batch against it (:class:`_Unroll`)
    — no window gather, no multiply by padding zeros, no per-sample GEMMs
    with four or one columns.  Two closed-form, ``N``-free predicates choose
    (:func:`conv_unrolls` the form, :func:`dw_folds` the weight-gradient
    shape of the other two), and both are read by exactly two drivers: the
    eager functions below and :class:`ConvKernels`.  All staging buffers
    come from the :mod:`repro.tensor.workspace` pool.

``"im2col"`` (the seed engine, kept for A/B benchmarking)
    Patches are extracted into a column matrix and multiplied against the
    flattened filter bank; the column matrix is retained for backward.

1x1 convolutions (over half the layers of a bottleneck ResNet) take a fast
path in both lowerings: the "patch tensor" is just a (strided) view of the
input, so no window extraction happens at all.

Compiled step plans do not call these per-step functions: they bind
:class:`ConvKernels`, the same einsum lowering — all three forms — staged
over preallocated buffers (bit-identical by construction, and the one place
its dense and live-channel forms are written).  The functions here stay as
they are — the independent eager reference every plan is compared against.

The second value returned by :func:`conv2d_forward` is an opaque context
consumed by :func:`conv2d_backward`; callers that pool buffers must release
it via :func:`release_ctx` once backward has run (or immediately under
``no_grad``).

Layout conventions (PyTorch-compatible):
  activations ``(N, C, H, W)``, filters ``(K, C, R, S)``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import workspace as ws
from ..workspace import config


def conv_out_size(h: int, w: int, r: int, s: int, stride: int,
                  padding: int) -> Tuple[int, int]:
    """Spatial output size of a convolution."""
    ho = (h + 2 * padding - r) // stride + 1
    wo = (w + 2 * padding - s) // stride + 1
    return ho, wo


def im2col(x: np.ndarray, r: int, s: int, stride: int,
           padding: int) -> np.ndarray:
    """Extract convolution patches as a matrix.

    Returns an array of shape ``(N*Ho*Wo, C*R*S)``.  The returned matrix is a
    contiguous copy (the GEMM needs contiguity anyway); the patch extraction
    itself is a strided view.
    """
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (N, C, Ho', Wo', R, S) where Ho' spans all window starts
    windows = sliding_window_view(x, (r, s), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    n_, c_, ho, wo = windows.shape[:4]
    # -> (N, Ho, Wo, C, R, S) -> (N*Ho*Wo, C*R*S)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n_ * ho * wo, c_ * r * s)
    return np.ascontiguousarray(cols)


def col2im(dcols: np.ndarray, x_shape: Tuple[int, int, int, int], r: int,
           s: int, stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col` — scatter-add patch gradients back.

    ``dcols`` has shape ``(N*Ho*Wo, C*R*S)``.
    """
    n, c, h, w = x_shape
    ho, wo = conv_out_size(h, w, r, s, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    dxp = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    # (N, Ho, Wo, C, R, S)
    d6 = dcols.reshape(n, ho, wo, c, r, s).transpose(0, 3, 4, 5, 1, 2)
    # now (N, C, R, S, Ho, Wo); accumulate each (r, s) offset as one strided add
    for ri in range(r):
        h_end = ri + stride * ho
        for si in range(s):
            w_end = si + stride * wo
            dxp[:, :, ri:h_end:stride, si:w_end:stride] += d6[:, :, ri, si]
    if padding > 0:
        return dxp[:, :, padding:padding + h, padding:padding + w]
    return dxp


def _is_pointwise(r: int, s: int, padding: int) -> bool:
    return r == 1 and s == 1 and padding == 0


def dw_folds(k: int, crs: int, p: int) -> bool:
    """Which of the two weight-gradient forms a conv uses (einsum lowering).

    ``True``: batch-folded — one GEMM ``dy (K, N*P) @ cols (N*P, C*R*S)``
    after restaging ``dy`` and the columns channel-major.  ``False``:
    per-sample — ``N`` GEMMs into an ``(N, K, C*R*S)`` slab, then a sum over
    the batch.  The slab costs ``K*CRS`` elements a sample, the restage
    ``P*(CRS + K)``; folding wins once the slab is the bigger of the two
    (wide layers at small spatial size, where the per-sample GEMMs degenerate
    towards rank-``P`` outer products), and loses on narrow layers with large
    feature maps.

    The two forms sum the batch in different orders, so both drivers — eager
    and :class:`ConvKernels` (dense, live and 1x1) — read this one predicate,
    which is what keeps them bit-identical.  It deliberately ignores ``N``:
    batch growth, tail batches and data-parallel shards must never flip the
    form mid-run.
    """
    return k * crs > p * (crs + k)


def conv_unrolls(h: int, w: int, r: int, s: int, stride: int) -> bool:
    """Whether a conv takes the unrolled form (einsum lowering): the input
    map is smaller than the filter window, so most taps of most windows only
    ever see padding — 3x3 on 1x1, 1x2 and 2x2 maps, the tail of a CIFAR VGG.
    Such a conv is a dense layer over the whole map: one GEMM against the
    unrolled (Toeplitz) filter does the ``H*W*Ho*Wo`` tap/pixel products that
    can be nonzero, where the window gather pays ``R*S*Ho*Wo`` a channel pair
    (36 against 16 on a 2x2 map, 9 against 1 on 1x1) and runs them as ``N``
    GEMMs with ``Ho*Wo`` columns each.

    Like :func:`dw_folds` it is closed-form, ignores ``N`` (the form changes
    the reduction order, and batch growth, tails and shards must never flip
    it mid-run) and is read by the two drivers of the lowering only — eager
    and :class:`ConvKernels`.
    """
    return stride == 1 and h * w < r * s


def conv_form(h: int, w: int, r: int, s: int, stride: int,
              padding: int) -> str:
    """Which of the three einsum forms a conv takes: ``"pointwise"``,
    ``"unrolled"`` or ``"gather"`` (only the last has live-channel kernels)."""
    if _is_pointwise(r, s, padding):
        return "pointwise"
    return "unrolled" if conv_unrolls(h, w, r, s, stride) else "gather"


def dw_folded(dym: np.ndarray, cols3: np.ndarray, dyT: np.ndarray,
              colsT: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
    """Batch-folded weight gradient of ``dy (N, K, P)`` against sample-major
    columns ``(N, CRS, P)``: restage both channel-major into the caller's
    ``dyT (K, N, P)`` / ``colsT (CRS, N, P)``, then one GEMM over ``N*P``
    into ``out (K, CRS)`` (a fresh array when ``None``)."""
    k, crs = dyT.shape[0], colsT.shape[0]
    np.copyto(dyT, dym.transpose(1, 0, 2))
    np.copyto(colsT, cols3.transpose(1, 0, 2))
    return np.matmul(dyT.reshape(k, -1), colsT.reshape(crs, -1).T, out=out)


def _dw_einsum(dym: np.ndarray, cols3: np.ndarray) -> np.ndarray:
    """Eager ``(K, CRS)`` weight gradient in the form :func:`dw_folds`
    selects; every staging buffer is pooled."""
    n, k, p = dym.shape
    crs = cols3.shape[1]
    if dw_folds(k, crs, p):
        dyT = ws.acquire((k, n, p), dym.dtype)
        colsT = ws.acquire((crs, n, p), dym.dtype)
        dw = dw_folded(dym, cols3, dyT, colsT)
        ws.release(colsT)
        ws.release(dyT)
        return dw
    dwn = ws.acquire((n, k, crs), dym.dtype)
    np.matmul(dym, cols3.transpose(0, 2, 1), out=dwn)
    dw = dwn.sum(axis=0)
    ws.release(dwn)
    return dw


def _pad_into_workspace(x: np.ndarray, padding: int) -> np.ndarray:
    """Copy ``x`` into a pooled padded buffer (zeroed border strips only —
    cheaper than a full memset + interior copy)."""
    n, c, h, w = x.shape
    p = padding
    xp = ws.acquire((n, c, h + 2 * p, w + 2 * p), x.dtype)
    xp[:, :, :p, :] = 0
    xp[:, :, h + p:, :] = 0
    xp[:, :, p:h + p, :p] = 0
    xp[:, :, p:h + p, w + p:] = 0
    xp[:, :, p:h + p, p:w + p] = x
    return xp


def _windows(xp: np.ndarray, r: int, s: int, stride: int) -> np.ndarray:
    wdw = sliding_window_view(xp, (r, s), axis=(2, 3))
    if stride > 1:
        wdw = wdw[:, :, ::stride, ::stride]
    return wdw


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                   stride: int, padding: int
                   ) -> Tuple[np.ndarray, tuple]:
    """Forward convolution.  Returns ``(y, ctx)``.

    ``ctx`` is an opaque context kept for :func:`conv2d_backward` — the
    column matrix for the im2col lowering, the (padded) input for the einsum
    lowering.  Release it with :func:`release_ctx` once backward has
    consumed it.
    """
    n, c, h, wd = x.shape
    k, c2, r, s = w.shape
    if c != c2:
        raise ValueError(f"channel mismatch: input has {c}, filters expect {c2}")
    ho, wo = conv_out_size(h, wd, r, s, stride, padding)

    if _is_pointwise(r, s, padding):
        if config.conv_impl == "einsum":
            # Batched matmul: (K,C) x (N,C,Ho*Wo).  A strided input is
            # staged through a pooled buffer so the GEMM sees contiguous
            # memory; at stride 1 the reshape is a zero-copy view.
            if stride > 1:
                xm4 = ws.acquire((n, c, ho, wo), x.dtype)
                np.copyto(xm4, x[:, :, ::stride, ::stride])
                xm = xm4.reshape(n, c, ho * wo)
            else:
                xm = x.reshape(n, c, ho * wo)
            y = np.matmul(w.reshape(k, c), xm).reshape(n, k, ho, wo)
            if b is not None:
                y += b[None, :, None, None]
            return y, ("pw", xm)
        xs = x[:, :, ::stride, ::stride] if stride > 1 else x
        cols = np.ascontiguousarray(
            xs.transpose(0, 2, 3, 1)).reshape(n * ho * wo, c)
        return _gemm_forward(cols, w, b, n, k, ho, wo), ("cols", cols)

    if config.conv_impl == "einsum":
        if conv_unrolls(h, wd, r, s, stride):
            return _unrolled_forward(x, w, b, padding)
        # Gather the windows once into a pooled (N, C, R, S, Ho, Wo) column
        # tensor: the trailing Wo axis is stride-1 in the source view, so
        # the copy runs in long contiguous spans, and the flattened
        # (N, C*R*S, Ho*Wo) layout feeds batched GEMMs in both passes with
        # the output already in NCHW order (no transpose on y).
        if padding > 0:
            xp = _pad_into_workspace(x, padding)
        else:
            xp = x
        wdw = _windows(xp, r, s, stride)          # (N, C, Ho, Wo, R, S)
        cols6 = ws.acquire((n, c, r, s, ho, wo), x.dtype)
        np.copyto(cols6, wdw.transpose(0, 1, 4, 5, 2, 3))
        if padding > 0:
            ws.release(xp)
        y = np.matmul(w.reshape(k, c * r * s),
                      cols6.reshape(n, c * r * s, ho * wo)
                      ).reshape(n, k, ho, wo)
        if b is not None:
            y += b[None, :, None, None]
        return y, ("cols6", cols6)

    cols = im2col(x, r, s, stride, padding)            # (N*Ho*Wo, C*R*S)
    return _gemm_forward(cols, w, b, n, k, ho, wo), ("cols", cols)


def _gemm_forward(cols: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                  n: int, k: int, ho: int, wo: int) -> np.ndarray:
    """Seed GEMM lowering: ``cols @ W.T`` plus layout restore."""
    w_mat = w.reshape(k, -1)                           # (K, C*R*S)
    y = cols @ w_mat.T                                 # (N*Ho*Wo, K)
    if b is not None:
        y += b
    y = y.reshape(n, ho, wo, k).transpose(0, 3, 1, 2)  # (N, K, Ho, Wo)
    return np.ascontiguousarray(y)


def conv2d_backward(dy: np.ndarray, ctx: tuple,
                    x_shape: Tuple[int, int, int, int], w: np.ndarray,
                    stride: int, padding: int, need_dx: bool = True,
                    need_db: bool = True
                    ) -> Tuple[Optional[np.ndarray], np.ndarray,
                               Optional[np.ndarray]]:
    """Backward convolution.

    Returns ``(dx, dw, db)``.  ``dx`` is ``None`` when ``need_dx`` is false
    (first layer of a network); ``db`` is ``None`` when ``need_db`` is false
    (bias-free convs — every conv followed by BN).  ``dx`` may be a pooled
    buffer — the caller must consume it synchronously and pass it to
    ``workspace.release``.  ``ctx`` is not released here (it may be reused;
    the autograd layer owns its lifetime).
    """
    n, c, h, wd = x_shape
    k, _, r, s = w.shape
    kind, saved = ctx

    if kind == "pw":
        # 1x1 fast path: batched matmul against the staged (N,C,Ho*Wo) input.
        xm = saved
        ho, wo = dy.shape[2], dy.shape[3]
        dym = dy.reshape(n, k, ho * wo)
        dw = _dw_einsum(dym, xm).reshape(k, c, 1, 1)
        db = dy.sum(axis=(0, 2, 3)) if need_db else None
        dx = None
        if need_dx:
            w2t = w.reshape(k, c).T
            if stride > 1:
                tmp = ws.acquire((n, c, ho * wo), dy.dtype)
                np.matmul(w2t, dym, out=tmp)
                dx = ws.acquire(x_shape, dy.dtype, zero=True)
                dx[:, :, ::stride, ::stride] = tmp.reshape(n, c, ho, wo)
                ws.release(tmp)
            else:
                dxm = ws.acquire((n, c, ho * wo), dy.dtype)
                np.matmul(w2t, dym, out=dxm)
                dx = dxm.reshape(n, c, h, wd)
        return dx, dw, db

    if kind == "unr":
        return _unrolled_backward(dy, saved, x_shape, w, padding, need_dx,
                                  need_db)

    if kind == "cols6":
        # The forward gather is reused: dw is a pure GEMM against the saved
        # column tensor (the pool keeps it alive until the autograd layer
        # calls release_ctx after this returns).
        cols6 = saved
        ho, wo = dy.shape[2], dy.shape[3]
        dym = dy.reshape(n, k, ho * wo)
        dw = _dw_einsum(dym, cols6.reshape(n, c * r * s, ho * wo)) \
            .reshape(k, c, r, s)
        db = dy.sum(axis=(0, 2, 3)) if need_db else None
        dx = None
        if need_dx:
            if stride == 1 and r > padding and s > padding:
                dx = _tconv_dx(dy, w, x_shape, padding)
            else:
                dx = _dx_scatter(dy, w, x_shape, stride, padding)
        return dx, dw, db

    # -- seed im2col lowering ---------------------------------------------
    cols = saved
    # dy: (N, K, Ho, Wo) -> (N*Ho*Wo, K)
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(-1, k)
    dw = (dy_mat.T @ cols).reshape(k, c, r, s)
    db = dy_mat.sum(axis=0)
    dx = None
    if need_dx:
        dcols = dy_mat @ w.reshape(k, c * r * s)       # (N*Ho*Wo, C*R*S)
        if _is_pointwise(r, s, padding):
            ho, wo = conv_out_size(h, wd, r, s, stride, padding)
            d4 = dcols.reshape(n, ho, wo, c).transpose(0, 3, 1, 2)
            if stride > 1:
                dx = np.zeros(x_shape, dtype=dcols.dtype)
                dx[:, :, ::stride, ::stride] = d4
            else:
                dx = np.ascontiguousarray(d4)
        else:
            dx = col2im(dcols, x_shape, r, s, stride, padding)
    return dx, dw, db


def _tconv_dx(dy: np.ndarray, w: np.ndarray,
              x_shape: Tuple[int, int, int, int], padding: int) -> np.ndarray:
    """Input gradient for unit stride: transposed convolution via the same
    gather-once batched-GEMM lowering as the forward pass.

    ``dx = conv(pad(dy, R-1-p), flip(w))`` — the exact adjoint of the
    forward correlation.  The windows of the padded ``dy`` are gathered into
    a pooled column tensor and contracted with the flipped filters in one
    batched GEMM whose output lands directly in the (pooled) ``dx``.  Every
    staging buffer is pooled: an einsum formulation of the same contraction
    measures faster in isolation but allocates a multi-megabyte internal
    temporary per call, which loses badly once the whole training step is
    competing for cache.  Requires ``padding < R`` (true for every conv in
    the repo's model zoo); callers fall back to :func:`_dx_scatter`
    otherwise.
    """
    n, c, h, wd = x_shape
    k, _, r, s = w.shape
    ho, wo = dy.shape[2], dy.shape[3]
    pr, ps = r - 1 - padding, s - 1 - padding
    if pr or ps:
        dyp = ws.acquire((n, k, ho + 2 * pr, wo + 2 * ps), dy.dtype)
        dyp[:, :, :pr, :] = 0
        dyp[:, :, ho + pr:, :] = 0
        dyp[:, :, pr:ho + pr, :ps] = 0
        dyp[:, :, pr:ho + pr, wo + ps:] = 0
        dyp[:, :, pr:ho + pr, ps:wo + ps] = dy
    else:
        dyp = dy
    dyw = sliding_window_view(dyp, (r, s), axis=(2, 3))
    dyc6 = ws.acquire((n, k, r, s, h, wd), dy.dtype)
    np.copyto(dyc6, dyw.transpose(0, 1, 4, 5, 2, 3))
    if pr or ps:
        ws.release(dyp)
    # (C, K*R*S): flipped filters with the contraction axis flattened.
    wf = np.ascontiguousarray(
        w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c, k * r * s)
    dx = ws.acquire((n, c, h, wd), dy.dtype)
    np.matmul(wf, dyc6.reshape(n, k * r * s, h * wd),
              out=dx.reshape(n, c, h * wd))
    ws.release(dyc6)
    return dx


def _dx_scatter(dy: np.ndarray, w: np.ndarray,
                x_shape: Tuple[int, int, int, int], stride: int,
                padding: int) -> np.ndarray:
    """Input gradient: per-patch gradients then RS strided scatter-add.

    Returns a view into a pooled padded buffer when padding > 0; the caller
    releases it (``workspace.release`` resolves views to their base).
    """
    n, c, h, wd = x_shape
    k, _, r, s = w.shape
    ho, wo = dy.shape[2], dy.shape[3]
    hp, wp = h + 2 * padding, wd + 2 * padding
    # Per-patch gradients in one batched GEMM: (C*R*S, K) x (N, K, Ho*Wo).
    dcols = ws.acquire((n, c * r * s, ho * wo), dy.dtype)
    np.matmul(w.reshape(k, c * r * s).T, dy.reshape(n, k, ho * wo),
              out=dcols)
    d6 = dcols.reshape(n, c, r, s, ho, wo)
    dxp = ws.acquire((n, c, hp, wp), dy.dtype, zero=True)
    for ri in range(r):
        h_end = ri + stride * ho
        for si in range(s):
            w_end = si + stride * wo
            dxp[:, :, ri:h_end:stride, si:w_end:stride] += d6[:, :, ri, si]
    ws.release(dcols)
    if padding > 0:
        return dxp[:, :, padding:padding + h, padding:padding + wd]
    return dxp


# -- the unrolled form -----------------------------------------------------------

#: source elements per copy when staging filter taps (see ``toeplitz``)
_STAGE_BLOCK = 1 << 16


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


class _Unroll:
    """The unrolled form (:func:`conv_unrolls`) of one conv geometry at
    stride 1: index ranges plus the two data movements that are not a GEMM,
    each bound to the caller's buffers — eager binds pooled ones per call,
    :class:`ConvKernels` planned ones once — so both run the same copies and
    the same additions.

    Layout is pixel-major and tap-major with channels innermost.  Activations
    are restaged ``(N, H*W*C)`` (as small as the map).  :meth:`toeplitz`
    stages the filter taps that can overlap the map as ``(taps, K, C)`` and
    unrolls them into ``T (Ho*Wo*K, H*W*C)`` in contiguous ``C``-runs::

        T[(i, j, k), (u, v, c)] = w[k, c, u - i + p, v - j + p]

    (zero where that tap lies outside the filter), after which the conv is
    ``y2 = x2 @ T.T``, ``dT = g2.T @ x2`` and ``dx2 = g2 @ T`` — three single
    GEMMs with ``M = N``.  :meth:`fold` is the adjoint of the unrolling.  A
    ``K``-innermost layout computes the same thing but pays a full
    ``(K, C, R, S) <-> (R, S, C, K)`` filter transpose each way, which
    measured over twice a GEMM at 256 channels (3 ms against 0.4 ms here).
    """

    __slots__ = ("dims", "taps_shape", "t_shape", "filt", "ext",
                 "sparse_t", "sparse_dw")

    def __init__(self, x_shape: tuple, w_shape: tuple, padding: int) -> None:
        n, c, h, wd = x_shape
        k, _, r, s = w_shape
        ho, wo = conv_out_size(h, wd, r, s, 1, padding)
        self.dims = (c, h, wd, k, r, s, ho, wo)
        self.t_shape = (ho * wo * k, h * wd * c)
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
        span = (rows.stop - rows.start, cols.stop - cols.start)
        #: T has structural zeros / dw has taps that are exactly zero
        self.sparse_t = span != self.taps_shape[:2]
        self.sparse_dw = span != (r, s)

    def toeplitz(self, w: np.ndarray, taps: np.ndarray, T: np.ndarray):
        """``run()`` stages the overlapping taps of ``w`` into ``taps``
        (extended range) and unrolls them into ``T``; like :class:`_Gather`,
        every view is taken here, once."""
        c, h, wd, k, r, s, ho, wo = self.dims
        src = w[self.filt].transpose(2, 3, 0, 1)
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
        clear = self.sparse_t

        def run() -> None:
            if clear:
                taps.fill(0)
            for blk, src_blk in blocks:
                np.copyto(blk, src_blk)
            np.copyto(T6, wdwT)
        return run

    def fold(self, dT: np.ndarray, dtaps: np.ndarray):
        """``run(out=None)`` returns the ``(K, C, R, S)`` weight gradient of
        ``dT`` (written into ``out`` if given): its blocks scatter-added back
        onto the extended taps ``dtaps`` — the adjoint of the unrolling —
        then the overlapping ones restored to filter layout, with exact
        zeros for taps that never overlap the map."""
        c, h, wd, k, r, s, ho, wo = self.dims
        dT6 = dT.reshape(ho, wo, k, h, wd, c)
        adds = [(dtaps[ho - 1 - i:ho - 1 - i + h, wo - 1 - j:wo - 1 - j + wd],
                 dT6[i, j].transpose(1, 2, 0, 3))
                for i in range(ho) for j in range(wo)]
        grad = dtaps[self.ext].transpose(2, 3, 0, 1)
        filt, clear = self.filt, self.sparse_dw

        def run(out: Optional[np.ndarray] = None) -> np.ndarray:
            dtaps.fill(0)
            for window, blk in adds:
                np.add(window, blk, out=window)
            if out is None:
                out = np.zeros((k, c, r, s), dT.dtype)
            elif clear:
                out.fill(0)
            np.copyto(out[filt], grad)
            return out
        return run


def _unrolled_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                      padding: int) -> Tuple[np.ndarray, tuple]:
    """Eager forward of the unrolled form; the context keeps the restaged
    input and ``T`` (both pooled) for :func:`_unrolled_backward`."""
    n = x.shape[0]
    k = w.shape[0]
    u = _Unroll(x.shape, w.shape, padding)
    ho, wo = u.dims[-2:]
    x2 = ws.acquire((n, u.t_shape[1]), x.dtype)
    _to_pixel_major(x, x2)
    taps = ws.acquire(u.taps_shape, x.dtype)
    T = ws.acquire(u.t_shape, x.dtype)
    u.toeplitz(w, taps, T)()
    ws.release(taps)
    y2 = ws.acquire((n, u.t_shape[0]), x.dtype)
    np.matmul(x2, T.T, out=y2)
    y = np.empty((n, k, ho, wo), x.dtype)
    _to_channel_major(y2, y, None if b is None else b[None, :, None, None])
    ws.release(y2)
    return y, ("unr", (x2, T))


def _unrolled_backward(dy: np.ndarray, saved: tuple, x_shape: tuple,
                       w: np.ndarray, padding: int, need_dx: bool,
                       need_db: bool) -> tuple:
    """Eager ``(dx, dw, db)`` of the unrolled form; ``dx`` is pooled, and
    everything else acquired here is released here."""
    x2, T = saved
    n = x_shape[0]
    u = _Unroll(x_shape, w.shape, padding)
    g2 = ws.acquire((n, u.t_shape[0]), dy.dtype)
    _to_pixel_major(dy, g2)
    dT = ws.acquire(u.t_shape, dy.dtype)
    np.matmul(g2.T, x2, out=dT)
    dtaps = ws.acquire(u.taps_shape, dy.dtype)
    dw = u.fold(dT, dtaps)()
    ws.release(dtaps)
    ws.release(dT)
    db = dy.sum(axis=(0, 2, 3)) if need_db else None
    dx = None
    if need_dx:
        dx2 = ws.acquire(x2.shape, dy.dtype)
        np.matmul(g2, T, out=dx2)
        dx = ws.acquire(x_shape, dy.dtype)
        _to_channel_major(dx2, dx)
        ws.release(dx2)
    ws.release(g2)
    return dx, dw, db


# -- staged conv kernel set -----------------------------------------------------

def _prefix(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """Contiguous leading view of ``buf`` reshaped to ``shape``."""
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def _take_ch(dst: np.ndarray, src: np.ndarray, runs) -> None:
    """Gather run-selected channels (axis 1) of ``src`` into compact ``dst``."""
    for d0, s0, ln in runs:
        dst[:, d0:d0 + ln] = src[:, s0:s0 + ln]


def _put_ch(dst: np.ndarray, src: np.ndarray, live_runs, dead_runs) -> None:
    """Scatter compact channels back to the dense layout; dead channels get
    the exact zeros the dense GEMM would produce."""
    for _, s0, ln in dead_runs:
        dst[:, s0:s0 + ln] = 0
    for d0, s0, ln in live_runs:
        dst[:, s0:s0 + ln] = src[:, d0:d0 + ln]


def _take_block(dst: np.ndarray, src: np.ndarray, row_runs, col_runs) -> None:
    """Gather the run-selected (axis 0 x axis 1) block of a filter tensor."""
    for dr, sr, nr in row_runs:
        for dc, sc, nc in col_runs:
            dst[dr:dr + nr, dc:dc + nc] = src[sr:sr + nr, sc:sc + nc]


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

    ``dense(src)`` gathers every channel.  ``live(src)`` (built when ``runs``
    is given) copies the run-selected channels into the *prefix* of the same
    padded buffer and gathers into the prefix of the same column tensor
    (:attr:`mat_l`), so both layouts run on one worst-case-dense allocation.
    ``rezero`` clears the padded borders on every dense call — needed when
    the buffer is shared scratch or alternates between layouts (stale border
    bytes of the other layout are the one way the two could diverge);
    otherwise the owner zeroes it once.  ``live`` always clears them.
    """

    __slots__ = ("dense", "live", "mat", "mat_l")

    def __init__(self, cols6: np.ndarray, pad: Optional[np.ndarray],
                 src_shape: tuple, r: int, s: int, stride: int, ph: int,
                 pw: int, rezero: bool, runs=None,
                 cmajor: bool = False) -> None:
        n, c, h, w = src_shape
        ho, wo = cols6.shape[4:]
        # window view (N, C, Ho, Wo, R, S) -> the column tensor's axis order
        axes = (1, 4, 5, 0, 2, 3) if cmajor else (0, 1, 4, 5, 2, 3)

        def operand(cols: np.ndarray, ch: int) -> np.ndarray:
            if cmajor:
                return cols.reshape(ch * r * s, n * ho * wo)
            return cols.reshape(n, ch * r * s, ho * wo)

        self.mat = operand(cols6, c)
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
        self.live = self.mat_l = None
        if runs is not None:
            cl = sum(ln for _, _, ln in runs)
            pad_l = _prefix(pad, (n, cl) + pad.shape[2:])
            core_l = pad_l[:, :, ph:ph + h, pw:pw + w]
            wdwT_l = _windows(pad_l, r, s, stride).transpose(axes)
            cols6_l = _prefix(cols6, (cl, r, s, n, ho, wo) if cmajor
                              else (n, cl, r, s, ho, wo))
            self.mat_l = operand(cols6_l, cl)
            borders = bool(ph or pw)

            def live(src: np.ndarray) -> None:
                if borders:
                    pad.fill(0)
                _take_ch(core_l, src, runs)
                np.copyto(cols6_l, wdwT_l)
            self.live = live


class ConvKernels:
    """The einsum conv lowering as preplanned kernels: stated once, driven by
    the plan builder (:mod:`repro.tensor.compile`) and by the sparse gate's
    calibration probe (:mod:`repro.tensor.sparse`).  With the eager functions
    above it is one of the two readers of :func:`conv_unrolls` and
    :func:`dw_folds`.

    Built from the input shape, the filter array ``w`` and optional ``bias``
    (their identity must be stable for the kernels' life), stride/padding/
    dtype and an ``alloc(shape, tag, phase)`` callback that supplies every
    buffer.  ``phase`` names the buffer's lifetime class: ``"fwd"`` forward
    staging, ``"span"`` forward staging the own backward still reads,
    ``"out"`` the output activation, ``"a"``/``"b"`` early (weight-gradient)
    and late (input-gradient) backward scratch, ``"dx"`` the gradient handed
    to the input's producer.  Every ``sliding_window_view``, reshape and
    transpose is precomputed over those buffers; a kernel call performs the
    same numpy operations on the same values as :func:`conv2d_forward` /
    :func:`conv2d_backward`, so results are bit-identical to eager.

    Dense kernels: ``fwd(x)`` fills :attr:`y4` (bias included);
    ``dw(x, g3, out=None)`` returns the ``(K, C, R, S)`` weight gradient
    (written into ``out`` if given), per-sample or batch-folded as
    :func:`dw_folds` says — ``dw_live`` always takes the same form, or it
    could not match ``dw`` bitwise; ``db(g, out=None)`` the bias gradient;
    ``dx(g)`` returns the input gradient — the transposed-convolution form at
    unit stride, the strided scatter-add form otherwise.

    :attr:`form` says which of three forms the set is (:func:`conv_form`);
    the above describes ``"gather"``.  The other two are degenerate cases
    with the same ``fwd`` / ``dw`` / ``db`` / ``dx`` surface, every buffer
    still from ``alloc``, no live-channel variants (a ``dead`` set is
    refused) and nothing for ``remat`` to change:

    ``"pointwise"`` — a 1x1 filter at padding 0.  Its column tensor *is* the
    (strided) input, so staging is a reshape view per call at stride 1 and
    one strided copy into a ``"span"`` buffer otherwise (kept for ``dw``,
    never re-gathered), and ``dx`` is the direct ``W^T @ dy`` GEMM, stored
    into a zero-filled buffer at stride > 1.

    ``"unrolled"`` — the input map is smaller than the filter window
    (:func:`conv_unrolls`).  ``fwd`` restages ``x`` pixel-major and builds
    the unrolled filter ``T`` (:class:`_Unroll`), both ``"span"``-lived —
    ``T`` is batch-independent, unlike a column tensor, so keeping it costs
    ``H*W*Ho*Wo`` filter planes however large ``N`` grows — and ``y``,
    ``dw`` and ``dx`` are one GEMM each over the whole batch.  ``dw`` and
    ``dx`` share no scratch (a level schedule runs them side by side).
    ``row_stable=True`` (forward-only serving plans) takes the forward
    product one sample at a time, as ``ops.basic.linear_forward`` does: a
    GEMM folded over the batch is not bit-stable across ``N``, and the other
    two forms are per-sample products already.

    With a ``dead`` set (:class:`repro.tensor.sparse.DeadSet`) the live-channel
    variants exist as well, on contiguous prefix views of the *same*
    worst-case-dense buffers — sparse saves FLOPs and gather bandwidth, not
    bytes, which is what makes a per-step fallback to the dense kernels free.
    ``fwd_live(x)`` skips dead input channels and dead filters (exact while
    the dead weight groups are zero, whatever ``x`` holds);
    ``dw_live(x, g3, row_runs, out=None)`` compacts the GEMM to the rows of
    ``g3`` listed in ``row_runs`` and the live input channels (exact iff the
    dropped rows of ``g3`` and the dead channels of ``x`` are zero);
    ``dx_live(g)`` (transposed-convolution form only) shrinks the GEMM
    *reduction* dimension, where BLAS accumulator pairing can change low bits,
    so callers engage it only where a parity probe passed.  Callers own those
    guards; the kernels only compute.

    ``remat=True`` marks the forward staging as point-lived scratch shared
    with other ops (the memory planner's layout): padded borders are
    re-zeroed per step and the backward re-stages ``x`` and re-gathers the
    identical windows into its own phase-``"a"`` scratch instead of keeping
    the column tensor (RxS times the feature map) alive across the step —
    channel-major when ``dw`` folds, so the re-gather lands in the layout the
    folded GEMM reads.  Without it the backward GEMM reads the forward's
    column tensor directly, through a channel-major restage when ``dw`` folds
    (a dual-layout set still re-gathers: the forward may have staged the
    other layout).
    """

    def __init__(self, x_shape: tuple, w: np.ndarray, stride: int,
                 padding: int, dtype, alloc, *, bias=None, dead=None,
                 remat: bool = False, backward: bool = True,
                 need_dx: bool = True, row_stable: bool = False) -> None:
        n, c, h, wd = x_shape
        k, _, r, s = w.shape
        ho, wo = conv_out_size(h, wd, r, s, stride, padding)
        p, crs = ho * wo, c * r * s
        self.fwd_live = self.dw_live = self.dx_live = None
        self.dw = self.dx = None
        b4 = None if bias is None else bias[None, :, None, None]
        #: which of the three forms these kernels are (:func:`conv_form`)
        self.form = conv_form(h, wd, r, s, stride, padding)
        if self.form != "gather":
            if dead is not None:
                raise ValueError(
                    f"the {self.form} lowering has no live-channel form")
            if self.form == "pointwise":
                self._pointwise(x_shape, w.reshape(k, c), b4, stride,
                                (ho, wo), alloc, backward, need_dx)
            else:
                self._unrolled(x_shape, w, b4, padding, alloc, backward,
                               need_dx, row_stable)
            return
        hp, wp = h + 2 * padding, wd + 2 * padding
        live = dead is not None
        rezero = remat or live
        w3 = w.reshape(k, crs)
        in_live_runs = out_live_runs = None
        if live:
            kl, cl = dead.out_live.size, dead.in_live.size
            in_live_runs, out_live_runs = dead.in_live_runs, dead.out_live_runs

        # Request order is part of the arena layout (the planner breaks size
        # ties by it), so both variants keep the order they always had.
        cols6 = alloc((n, c, r, s, ho, wo), "cols_f", "fwd")
        xp = None
        if live:
            # The live gather needs contiguous staging even at padding == 0
            # (a channel gather cannot be a view).
            xp = alloc((n, c, hp, wp), "xp", "fwd")
            yl = alloc((n, kl, p), "sp.yl", "fwd")
        y4 = self.y4 = alloc((n, k, ho, wo), "y", "out")
        y3 = y4.reshape(n, k, p)
        if not live and padding:
            xp = alloc((n, c, hp, wp), "xp", "fwd")
            if not rezero:
                xp.fill(0)
        gx = _Gather(cols6, xp, x_shape, r, s, stride, padding, padding,
                     rezero, in_live_runs)

        gather, cols3 = gx.dense, gx.mat

        def fwd(x: np.ndarray) -> None:
            gather(x)
            np.matmul(w3, cols3, out=y3)
            if b4 is not None:
                np.add(y4, b4, out=y4)
        self.fwd = fwd
        if live:
            wl = np.empty((kl, cl * r * s), dtype)
            wl4 = wl.reshape(kl, cl, r, s)

            def fwd_live(x: np.ndarray) -> None:
                gx.live(x)
                _take_block(wl4, w, out_live_runs, in_live_runs)
                np.matmul(wl, gx.mat_l, out=yl)
                _put_ch(y3, yl, out_live_runs, dead.out_dead_runs)
                if b4 is not None:
                    np.add(y4, b4, out=y4)
            self.fwd_live = fwd_live
        if not backward:
            return

        # -- dw (phase "a") ------------------------------------------------
        # One of two forms, chosen by dw_folds from (K, CRS, P) alone; the
        # (N, K, CRS) slab exists only on the per-sample side.
        fold = dw_folds(k, crs, p)
        if fold:
            dyT = alloc((k, n, p), "dyT", "a")
            dy2 = dyT.reshape(k, n * p)
        else:
            dwn = alloc((n, k, crs), "bwd", "a")
        if live:
            if not fold:
                dym = alloc((n, k, p), "sp.dym", "a")
            red = alloc((k, crs), "sp.red", "a")
        if remat:
            cols_b6 = alloc((c, r, s, n, ho, wo) if fold
                            else (n, c, r, s, ho, wo), "cols_b", "a")
            xpb = alloc(xp.shape, "xpb", "a") if xp is not None else None
            gb = _Gather(cols_b6, xpb, x_shape, r, s, stride, padding,
                         padding, True, in_live_runs, cmajor=fold)
        else:
            gb = gx
        regather = gb.dense if rezero else (lambda x: None)

        def flat(out: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if out is None else out.reshape(k, crs)

        def finish(dw2: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
            return dw2.reshape(k, c, r, s) if out is None else out

        if fold:
            if not remat:
                # gb is the forward's sample-major gather; the folded GEMM
                # reads its columns through a channel-major restage.
                colsT = alloc((crs, n, p), "colsT", "a")

            def folded(gather, mat: np.ndarray, rows: int):
                """``(stage, rhs)``: ``stage(x)`` leaves the columns of ``x``
                in ``rhs``, the ``(N*P, rows)`` operand of the folded GEMM."""
                if remat:
                    return gather, mat.T
                buf = _prefix(colsT, (rows, n, p))
                src = mat.transpose(1, 0, 2)

                def stage(x: np.ndarray) -> None:
                    gather(x)
                    np.copyto(buf, src)
                return stage, buf.reshape(rows, n * p).T

            stage, rhs = folded(regather, gb.mat, crs)

            def dw(x: np.ndarray, g3: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
                stage(x)
                np.copyto(dyT, g3.transpose(1, 0, 2))
                return finish(np.matmul(dy2, rhs, out=flat(out)), out)
        else:
            colsT = gb.mat.transpose(0, 2, 1)

            def dw(x: np.ndarray, g3: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
                regather(x)
                np.matmul(g3, colsT, out=dwn)
                return finish(np.add.reduce(dwn, axis=0, out=flat(out)), out)
        self.dw = dw
        if live:
            crs_l = cl * r * s
            if fold:
                stage_l, rhs_l = folded(gb.live, gb.mat_l, crs_l)
            else:
                colsT_l = gb.mat_l.transpose(0, 2, 1)

            def dw_live(x: np.ndarray, g3: np.ndarray, row_runs,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
                km = sum(ln for _, _, ln in row_runs)
                red_m = _prefix(red, (km, crs_l))
                if fold:
                    stage_l(x)
                    dyT_m = _prefix(dyT, (km, n, p))
                    for d0, s0, ln in row_runs:
                        dyT_m[d0:d0 + ln] = g3[:, s0:s0 + ln] \
                            .transpose(1, 0, 2)
                    np.matmul(dyT_m.reshape(km, n * p), rhs_l, out=red_m)
                else:
                    gb.live(x)
                    dym_m = _prefix(dym, (n, km, p))
                    _take_ch(dym_m, g3, row_runs)
                    dwn_m = _prefix(dwn, (n, km, crs_l))
                    np.matmul(dym_m, colsT_l, out=dwn_m)
                    np.add.reduce(dwn_m, axis=0, out=red_m)
                red4 = red_m.reshape(km, cl, r, s)
                if out is None:
                    out = np.zeros((k, c, r, s), dtype)
                else:
                    out.fill(0)
                for dk, sk, nk in row_runs:
                    for dc, sc, nc in in_live_runs:
                        out[sk:sk + nk, sc:sc + nc] = red4[dk:dk + nk,
                                                           dc:dc + nc]
                return out
            self.dw_live = dw_live
        if not need_dx:
            return

        # -- dx (phase "b") ------------------------------------------------
        if stride == 1 and r > padding and s > padding:
            # Transposed convolution (the eager _tconv_dx): windows of the
            # padded dy against the spatially flipped filters.
            pr, ps = r - 1 - padding, s - 1 - padding
            wf4 = alloc((c, k, r, s), "wf", "b")
            wf2 = wf4.reshape(c, k * r * s)
            dx3 = alloc((n, c, h * wd), "grad", "dx")
            dx4 = dx3.reshape(n, c, h, wd)
            dyc6 = alloc((n, k, r, s, h, wd), "dyc", "b")
            dyp = None
            if live or pr or ps:
                dyp = alloc((n, k, ho + 2 * pr, wo + 2 * ps), "dyp", "b")
                if not rezero:
                    dyp.fill(0)
            gy = _Gather(dyc6, dyp, (n, k, ho, wo), r, s, 1, pr, ps, rezero,
                         out_live_runs)
            wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gather_dy, dyc3 = gy.dense, gy.mat

            def dx(g: np.ndarray) -> np.ndarray:
                gather_dy(g)
                np.copyto(wf4, wflip)
                np.matmul(wf2, dyc3, out=dx3)
                return dx4
            if live:
                dxl = alloc((n, cl, h * wd), "sp.dxl", "b")
                wfl2 = _prefix(wf4, (cl, kl * r * s))
                wfl4 = wfl2.reshape(cl, kl, r, s)

                def dx_live(g: np.ndarray) -> np.ndarray:
                    gy.live(g)
                    _take_block(wfl4, wflip, in_live_runs, out_live_runs)
                    np.matmul(wfl2, gy.mat_l, out=dxl)
                    _put_ch(dx3, dxl, in_live_runs, dead.in_dead_runs)
                    return dx4
                self.dx_live = dx_live
        else:
            # Strided scatter-add (the eager _dx_scatter); dense only — no
            # compacted form is calibrated for the scatter lowering.
            w3T = w3.T
            dcols = alloc((n, crs, p), "dcols", "b")
            d6 = dcols.reshape(n, c, r, s, ho, wo)
            dxp = alloc((n, c, hp, wp), "dxp", "dx")
            dx_view = dxp[:, :, padding:padding + h, padding:padding + wd] \
                if padding else dxp

            def dx(g: np.ndarray) -> np.ndarray:
                np.matmul(w3T, g.reshape(n, k, p), out=dcols)
                # Scatter-adds accumulate, so the zeroed state is restored
                # per step — eager pays the same memset in its pool acquire.
                dxp.fill(0)
                for ri in range(r):
                    h_end = ri + stride * ho
                    for si in range(s):
                        w_end = si + stride * wo
                        dxp[:, :, ri:h_end:stride, si:w_end:stride] += \
                            d6[:, :, ri, si]
                return dx_view
        self.dx = dx


    @staticmethod
    def db(g: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Bias gradient of ``dy (N, K, Ho, Wo)`` (into ``out`` if given)."""
        return g.sum(axis=(0, 2, 3), out=out)

    def _pointwise(self, x_shape: tuple, w2: np.ndarray, b4, stride: int,
                   out_hw: tuple, alloc, backward: bool, need_dx: bool
                   ) -> None:
        """The R = S = 1, padding-0 kernels (see the class docstring)."""
        n, c, h, wd = x_shape
        k = w2.shape[0]
        ho, wo = out_hw
        p = ho * wo
        y4 = self.y4 = alloc((n, k, ho, wo), "y", "out")
        y3 = y4.reshape(n, k, p)
        if stride > 1:
            xm4 = alloc((n, c, ho, wo), "span", "span")
            xm = xm4.reshape(n, c, p)

            def stage(x: np.ndarray) -> np.ndarray:
                np.copyto(xm4, x[:, :, ::stride, ::stride])
                return xm

            def staged(x: np.ndarray) -> np.ndarray:
                return xm
        else:
            def stage(x: np.ndarray) -> np.ndarray:
                return x.reshape(n, c, p)
            staged = stage

        def fwd(x: np.ndarray) -> None:
            np.matmul(w2, stage(x), out=y3)
            if b4 is not None:
                np.add(y4, b4, out=y4)
        self.fwd = fwd
        if not backward:
            return

        # Same two weight-gradient forms, same predicate, as the RxS lowering,
        # against the staged input in place of a column tensor.
        fold = dw_folds(k, c, p)
        if fold:
            dyT = alloc((k, n, p), "bwd", "a")
            xT = alloc((c, n, p), "bwd", "a")
        else:
            dwn = alloc((n, k, c), "bwd", "a")

        def dw(x: np.ndarray, g3: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
            out2 = None if out is None else out.reshape(k, c)
            if fold:
                dw2 = dw_folded(g3, staged(x), dyT, xT, out2)
            else:
                np.matmul(g3, staged(x).transpose(0, 2, 1), out=dwn)
                dw2 = np.add.reduce(dwn, axis=0, out=out2)
            return dw2.reshape(k, c, 1, 1) if out is None else out
        self.dw = dw
        if not need_dx:
            return

        w2t = w2.T
        if stride > 1:
            tmp3 = alloc((n, c, p), "bwd", "b")
            tmp4 = tmp3.reshape(n, c, ho, wo)
            dx_buf = alloc((n, c, h, wd), "grad", "dx")

            def dx(g: np.ndarray) -> np.ndarray:
                np.matmul(w2t, g.reshape(n, k, p), out=tmp3)
                # Only the strided lanes are written; the rest must be the
                # zeros of eager's zero-filled acquire even after a consumer
                # accumulated into this buffer last step.
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

    def _unrolled(self, x_shape: tuple, w: np.ndarray, b4, padding: int,
                  alloc, backward: bool, need_dx: bool, row_stable: bool
                  ) -> None:
        """The map-smaller-than-window kernels (see the class docstring)."""
        n, c, h, wd = x_shape
        k = w.shape[0]
        u = _Unroll(x_shape, w.shape, padding)
        ho, wo = u.dims[-2:]
        pk, hwc = u.t_shape
        kept = "span" if backward else "fwd"
        taps = alloc(u.taps_shape, "taps", "fwd")
        x2 = alloc((n, hwc), "x2", kept)
        T = alloc(u.t_shape, "T", kept)
        y2 = alloc((n, pk), "y2", "fwd")
        y4 = self.y4 = alloc((n, k, ho, wo), "y", "out")
        unroll, TT = u.toeplitz(w, taps, T), T.T
        # One GEMM over the batch is not row-stable (BLAS blocks by M); the
        # serving lowering takes one product per sample, as linear does.
        lhs, prod = (x2[:, None, :], y2[:, None, :]) if row_stable \
            else (x2, y2)

        def fwd(x: np.ndarray) -> None:
            _to_pixel_major(x, x2)
            unroll()
            np.matmul(lhs, TT, out=prod)
            _to_channel_major(y2, y4, b4)
        self.fwd = fwd
        if not backward:
            return

        # The parts share no scratch (a level schedule runs them side by
        # side): each restages dy for itself.
        g2a = alloc((n, pk), "g2", "a")
        dT = alloc(u.t_shape, "dT", "a")
        dtaps = alloc(u.taps_shape, "dtaps", "a")
        fold, g2aT = u.fold(dT, dtaps), g2a.T

        def dw(x: np.ndarray, g3: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
            _to_pixel_major(g3.reshape(n, k, ho, wo), g2a)
            np.matmul(g2aT, x2, out=dT)
            return fold(out)
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


def release_ctx(ctx: Optional[tuple]) -> None:
    """Return a forward context's staging buffers to the workspace pool.

    Safe to call unconditionally: contexts that hold plain input views or
    unpooled column matrices are ignored by the pool.
    """
    if ctx is not None:
        kind, saved = ctx
        if kind == "unr":
            x2, T = saved
            ws.release(x2)
            ws.release(T)
        else:
            ws.release(saved)

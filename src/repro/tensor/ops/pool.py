"""Pooling kernels: max pooling and global average pooling, the two the
paper's models use.

Max pooling is restricted to the non-overlapping case (``kernel == stride``)
used by every model in the paper (VGG 2x2/2, ResNet stem 3x3/2 is replaced by
stride-2 convolutions in the CIFAR variants; the ImageNet stem uses a 2x2/2
approximation — see ``repro.nn.resnet``).  Non-overlapping windows let both
passes be pure reshapes, the fastest possible NumPy formulation.  Every
ResNet ends in global average pooling; no model uses a windowed average.

Backward-pass gradient buffers are drawn from the
:mod:`repro.tensor.workspace` pool: they are consumed synchronously by
``Tensor._accumulate`` and released by the autograd layer right after, so
every iteration reuses the previous iteration's allocations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import workspace as ws


def maxpool2d_forward(x: np.ndarray, k: int, need_mask: bool = True
                      ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Non-overlapping ``k x k`` max pool.  Returns ``(y, argmax_mask)``.

    ``y`` is a running ``np.maximum`` over the ``k*k`` strided views that
    pick one window position each — elementwise passes over contiguous
    output, where a reduction over the two short window axes pays its setup
    per output element.  The mask marks the *first* max of each window in
    row-major window order, so gradient mass is conserved under ties (sum of
    mask per window == 1): a position is marked when it equals ``y`` and its
    window is still free.  ``need_mask=False`` (forward-only callers) skips
    the mask and returns ``None`` for it.
    """
    n, c, h, w = x.shape
    if h % k or w % k:
        # truncate ragged edge (matches PyTorch's default floor behaviour)
        x = x[:, :, : (h // k) * k, : (w // k) * k]
        n, c, h, w = x.shape
    ho, wo = h // k, w // k
    blocks = x.reshape(n, c, ho, k, wo, k)
    cells = [(i, j) for i in range(k) for j in range(k)]
    y = blocks[:, :, :, 0, :, 0].copy()
    for i, j in cells[1:]:
        np.maximum(y, blocks[:, :, :, i, :, j], out=y)
    if not need_mask:
        return y, None
    mask = np.empty(blocks.shape, dtype=bool)
    free = np.ones(y.shape, dtype=bool)
    for i, j in cells:
        m = mask[:, :, :, i, :, j]
        np.equal(blocks[:, :, :, i, :, j], y, out=m)
        m &= free
        free ^= m
    # A window whose max is NaN equals nothing; it keeps its first cell.
    mask[:, :, :, 0, :, 0] |= free
    return y, mask


def maxpool2d_backward(dy: np.ndarray, mask: np.ndarray, k: int,
                       x_shape: Tuple[int, int, int, int]) -> np.ndarray:
    n, c, h, w = x_shape
    ho, wo = dy.shape[2], dy.shape[3]
    dblocks = ws.acquire((n, c, ho, k, wo, k), dy.dtype)
    np.multiply(mask, dy[:, :, :, None, :, None], out=dblocks)
    dx = dblocks.reshape(n, c, ho * k, wo * k)
    if dx.shape[2] != h or dx.shape[3] != w:
        full = ws.acquire(x_shape, dy.dtype, zero=True)
        full[:, :, : dx.shape[2], : dx.shape[3]] = dx
        ws.release(dblocks)
        return full
    return dx


def global_avgpool_forward(x: np.ndarray) -> np.ndarray:
    """Spatial mean: ``(N, C, H, W) -> (N, C)``."""
    return x.mean(axis=(2, 3))


def global_avgpool_backward(dy: np.ndarray,
                            x_shape: Tuple[int, int, int, int]) -> np.ndarray:
    n, c, h, w = x_shape
    out = ws.acquire(x_shape, dy.dtype)
    out[:] = dy[:, :, None, None]
    out *= 1.0 / (h * w)
    return out

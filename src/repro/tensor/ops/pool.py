"""Pooling kernels: max pooling and global average pooling, the two the
paper's models use.

Max pooling is restricted to the non-overlapping case (``kernel == stride``)
used by every model in the paper (VGG 2x2/2, ResNet stem 3x3/2 is replaced by
stride-2 convolutions in the CIFAR variants; the ImageNet stem uses a 2x2/2
approximation — see ``repro.nn.resnet``).  Every ResNet ends in global
average pooling; no model uses a windowed average.

Non-overlapping windows make each window cell ``(i, j)`` one strided view
of the input.  A training forward restages the input once into
window-major planes ``(k*k, N, C, Ho, Wo)`` and runs every later pass —
the running max, the first-max mask — over contiguous planes; the mask
keeps that plane layout, and the backward multiplies each mask plane by
``dy`` straight into its cell of ``dx``.  Elementwise passes over strided
views cost several times a contiguous one (a strided mask build was 5.5x
the mask-free forward), while one restaging copy costs about one pass.  The
mask-free forward (``no_grad``) has nothing to amortise the copy over and
keeps the strided running max.

The backward's ``dx`` is drawn from the :mod:`repro.tensor.workspace` pool:
it is consumed synchronously by ``Tensor._accumulate`` and released by the
autograd layer right after, so every iteration reuses the previous
iteration's allocation.  The forward's planes are a transient of the call.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import workspace as ws


def maxpool2d_forward(x: np.ndarray, k: int, need_mask: bool = True
                      ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Non-overlapping ``k x k`` max pool.  Returns ``(y, mask)``.

    With ``need_mask`` (a backward follows) ``x`` is restaged once into
    window-major planes ``(k*k, N, C, Ho, Wo)``, plane ``i*k + j`` holding
    window cell ``(i, j)`` of every window, and every later pass reads
    contiguous planes: ``y`` is a running ``np.maximum`` over them, and the
    mask, a bool array of the same plane layout, marks the *first* max of
    each window in row-major cell order, so gradient mass is conserved under
    ties (the mask sums to 1 per window): a cell is marked when it equals
    ``y`` and its window is still free.  A window whose max is NaN equals
    nothing and keeps its first cell.

    ``need_mask=False`` (``no_grad`` forwards: BN recalibration, evaluation,
    serving) returns ``(y, None)`` from the running max over the ``k*k``
    strided views of ``x`` directly: with no mask to build, restaging costs
    more than it saves.  Both paths take the same maxima in the same order,
    so ``y`` is bitwise the same.
    """
    n, c, h, w = x.shape
    ho, wo = h // k, w // k
    if h % k or w % k:
        # truncate ragged edge (matches PyTorch's default floor behaviour)
        x = x[:, :, : ho * k, : wo * k]
    blocks = x.reshape(n, c, ho, k, wo, k)
    if not need_mask:
        cells = [blocks[:, :, :, i, :, j] for i in range(k) for j in range(k)]
        y = cells[0].copy()
        for cell in cells[1:]:
            np.maximum(y, cell, out=y)
        return y, None
    planes = np.empty((k * k, n, c, ho, wo), x.dtype)
    np.copyto(planes.reshape(k, k, n, c, ho, wo),
              blocks.transpose(3, 5, 0, 1, 2, 4))
    y = planes[0].copy()
    for plane in planes[1:]:
        np.maximum(y, plane, out=y)
    mask = np.equal(planes, y)
    free = ~mask[0]
    for m in mask[1:]:
        m &= free
        free ^= m
    # A window whose max is NaN equals nothing; it keeps its first cell.
    mask[0] |= free
    return y, mask


def maxpool2d_backward(dy: np.ndarray, mask: np.ndarray, k: int,
                       x_shape: Tuple[int, int, int, int]) -> np.ndarray:
    """Route ``dy`` to the cells ``mask`` marks: plane ``i*k + j`` of the
    mask times ``dy`` is written straight into window cell ``(i, j)`` of
    ``dx``, one contiguous-read pass per cell and no temporary.  The rows
    and columns a ragged map truncated get exactly zero."""
    n, c, h, w = x_shape
    ho, wo = dy.shape[2], dy.shape[3]
    dx = ws.acquire(x_shape, dy.dtype, zero=h != ho * k or w != wo * k)
    dblocks = dx[:, :, : ho * k, : wo * k].reshape(n, c, ho, k, wo, k)
    for cell, m in enumerate(mask):
        np.multiply(m, dy, out=dblocks[:, :, :, cell // k, :, cell % k])
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

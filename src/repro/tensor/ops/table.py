"""The pass-through op table: one row per op that needs no preplanned buffers.

A row states an op once — its forward kernel, what that saves for backward,
its backward kernel, and per input whether the gradient is donated or copied
— and both drivers are derived from it: the eager wrapper
(:func:`repro.tensor.functional.apply_op`) and the plan builder's single
pass-through builder (``repro.tensor.compile._PlanBuilder._from_row``).
Adding such an op is a kernel plus one row here; an op whose plan thunks
should write into preplanned buffers (conv, BN, ReLU, linear) gets a kernel
under this package and a buffer-mapping builder in ``compile.py`` instead.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

import numpy as np

from . import loss as _loss
from . import pool as _pool


class Op(NamedTuple):
    """One pass-through op: its two kernels and its gradient hand-over."""

    #: ``forward(*inputs, attrs, save) -> (y, saved)`` over raw arrays;
    #: ``saved`` is whatever ``backward`` needs, and ``save`` is false when
    #: no backward can follow (``no_grad``, forward-only plans)
    forward: Callable
    #: ``backward(g, saved, attrs)`` -> one gradient per input
    backward: Callable
    #: per input: ``True`` — the gradient is a fresh kernel-produced array of
    #: the input's exact shape and dtype and is handed over without a copy;
    #: ``False`` — it may alias ``g`` and is copied on first touch
    donate: Tuple[bool, ...]


def _max_pool_fwd(x, k, save):
    y, mask = _pool.maxpool2d_forward(x, k, need_mask=save)
    return y, (mask, x.shape)


def _pad_channels_fwd(x, total, save):
    n, c, h, w = x.shape
    out = np.zeros((n, total, h, w), dtype=x.dtype)
    out[:, :c] = x
    return out, c


def _gather_channels_bwd(g, x_shape, idx):
    full = np.zeros(x_shape, dtype=g.dtype)
    full[:, idx] = g
    return (full,)


def _scatter_channels_fwd(x, attrs, save):
    idx, total = attrs
    n, _, h, w = x.shape
    out = np.zeros((n, total, h, w), dtype=x.dtype)
    out[:, idx] = x
    return out, None


def _cross_entropy_fwd(logits, targets, save):
    loss, probs = _loss.cross_entropy_forward(logits, targets)
    return np.asarray(loss, dtype=logits.dtype), probs


#: op kind (the name capture records) -> row.  ``attrs`` per kind: the static
#: arguments the eager wrapper passes — pool kernel size, ``(old, new)``
#: shapes of a reshape, channel ``total`` / ``idx`` / ``(idx, total)``, the
#: integer targets of the loss.
OPS: Dict[str, Op] = {
    "add": Op(lambda a, b, _, save: (a + b, None),
              lambda g, _s, _a: (g, g), (False, False)),
    "reshape": Op(lambda x, shapes, save: (x.reshape(shapes[1]), None),
                  lambda g, _s, shapes: (g.reshape(shapes[0]),), (False,)),
    "max_pool2d": Op(
        _max_pool_fwd,
        lambda g, saved, k: (_pool.maxpool2d_backward(g, saved[0], k,
                                                      saved[1]),),
        (True,)),
    "avg_pool2d": Op(
        lambda x, k, save: (_pool.avgpool2d_forward(x, k), x.shape),
        lambda g, x_shape, k: (_pool.avgpool2d_backward(g, k, x_shape),),
        (True,)),
    "global_avg_pool": Op(
        lambda x, _, save: (_pool.global_avgpool_forward(x), x.shape),
        lambda g, x_shape, _: (_pool.global_avgpool_backward(g, x_shape),),
        (True,)),
    "pad_channels": Op(_pad_channels_fwd,
                       lambda g, c, _: (g[:, :c],), (False,)),
    "gather_channels": Op(
        lambda x, idx, save: (np.ascontiguousarray(x[:, idx]), x.shape),
        _gather_channels_bwd, (False,)),
    "scatter_channels": Op(
        _scatter_channels_fwd,
        lambda g, _s, attrs: (np.ascontiguousarray(g[:, attrs[0]]),),
        (False,)),
    "cross_entropy": Op(
        _cross_entropy_fwd,
        lambda g, probs, targets: (
            _loss.cross_entropy_backward(probs, targets) * g,),
        (True,)),
}

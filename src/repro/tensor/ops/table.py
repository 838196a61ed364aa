"""The op table: one row per op, the single statement both drivers read.

A row states an op once — its forward kernel, what that saves for backward,
its backward kernel, per input whether the gradient is donated or copied,
and optionally the buffers its plan thunks write into — and both drivers are
derived from it: the eager wrapper (:func:`repro.tensor.functional.apply_op`)
and the plan builder's row driver (``repro.tensor.compile._PlanBuilder.
_from_row``).  Adding an op is a kernel plus one row here.

Every kernel takes ``bufs`` last.  Eager passes ``None``, and the kernel
allocates fresh arrays as its ``out=None`` form always has.  A
plan passes what the row's build-time ``buffers`` stage returned.  That stage
runs once per captured record, is a function of the input shapes and dtypes,
the attrs, whether a backward follows and the builder-wide ``row_stable``,
and requests every planned buffer in a fixed order through ``alloc(shape,
tag, phase, dtype)`` (the phases are listed at
``repro.tensor.compile._PlanBuilder._allocator``).  A row without the stage
gets ``None`` in both drivers.

The convolution is the one op that is not a row: its kernel set picks a form
from the shapes, gates live-channel kernels on a published dead set, splits
its backward for level scheduling and stages ``dy`` for both halves, so
eager and plan drive :class:`repro.tensor.ops.conv.ConvKernels` directly.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import basic as _basic
from . import loss as _loss
from . import norm as _norm
from . import pool as _pool


class Op(NamedTuple):
    """One op: its two kernels, its gradient hand-over and its buffers."""

    #: ``forward(*inputs, attrs, save, bufs) -> (y, saved)`` over raw arrays
    #: (``None`` for an absent optional input); ``saved`` is whatever
    #: ``backward`` needs, and ``save`` is false when no backward can follow
    #: (``no_grad``, forward-only plans)
    forward: Callable
    #: ``backward(g, saved, attrs, bufs)`` -> one gradient per input
    backward: Callable
    #: per input: ``True`` — the gradient is a fresh kernel-produced array of
    #: the input's exact shape and dtype and is handed over without a copy;
    #: ``False`` — it may alias ``g`` and is copied on first touch
    donate: Tuple[bool, ...]
    #: build-time stage ``buffers(shapes, dtypes, attrs, backward, row_stable,
    #: alloc) -> bufs``; ``None``: the kernels allocate for themselves
    buffers: Optional[Callable] = None
    #: inputs the output may overwrite in place, in order of preference (the
    #: planner grants the first whose value is provably dead)
    alias: Tuple[int, ...] = ()


def _max_pool_fwd(x, k, save, bufs):
    y, mask = _pool.maxpool2d_forward(x, k, need_mask=save)
    return y, (mask, x.shape)


# -- pools: bufs = the planned dx a training plan's backward writes
def _pool_buffers(shapes, dtypes, attrs, backward, row_stable, alloc):
    return alloc(shapes[0], "dx", "grad0", dtypes[0]) if backward else None


def _gather_channels_bwd(g, x_shape, idx, bufs):
    full = np.zeros(x_shape, dtype=g.dtype)
    full[:, idx] = g
    return (full,)


def _scatter_channels_fwd(x, attrs, save, bufs):
    idx, total = attrs
    n, _, h, w = x.shape
    out = np.zeros((n, total, h, w), dtype=x.dtype)
    out[:, idx] = x
    return out, None


def _cross_entropy_fwd(logits, targets, save, bufs):
    loss, probs = _loss.cross_entropy_forward(logits, targets)
    return np.asarray(loss, dtype=logits.dtype), probs


# -- rectifiers: bufs = (y, possibly laid over a dead input; the mask; one
#    donated gradient per input)
def _rectifier_buffers(grad_tags):
    def stage(shapes, dtypes, attrs, backward, row_stable, alloc):
        shape, dtype = shapes[0], dtypes[0]
        y = alloc(shape, "y", "out", dtype)
        if not backward:
            return (y,)
        return (y, alloc(shape, "mask", "ab", bool)) + tuple(
            alloc(shape, tag, f"grad{i}", dtype)
            for i, tag in enumerate(grad_tags))
    return stage


_NO_RELU_BUFS = (None,) * 3
_NO_ADD_RELU_BUFS = (None,) * 4


def _relu_fwd(x, attrs, save, bufs):
    y = _basic.relu_forward(x, None if bufs is None else bufs[0])
    return y, y


def _relu_bwd(g, y, attrs, bufs):
    _, mask, dx = bufs or _NO_RELU_BUFS
    return (_basic.masked_grad(g, _basic.relu_mask(y, mask), dx),)


def _add_relu_fwd(a, b, attrs, save, bufs):
    y = _basic.add_relu_forward(a, b, None if bufs is None else bufs[0])
    return y, y


def _add_relu_bwd(g, y, attrs, bufs):
    # a separate masked gradient per parent, each donated
    _, mask, da, db = bufs or _NO_ADD_RELU_BUFS
    mask = _basic.relu_mask(y, mask)
    return _basic.masked_grad(g, mask, da), _basic.masked_grad(g, mask, db)


# -- batch norm: attrs = (running_mean, running_var, momentum, eps, training,
#    relu); bufs = (y, bn_coef_backward's dx, scratch, mask)
def _bn_buffers(shapes, dtypes, attrs, backward, row_stable, alloc):
    """BN(+ReLU) writes ``y``, its masked gradient and ``dx`` into planned
    buffers — in a training plan in either mode, in a forward plan (``y``
    alone) in training mode; an evaluation forward runs the eager kernels on
    fresh arrays."""
    relu, training = attrs[5], attrs[4]
    if not (training or backward):
        return None
    shape, dtype = shapes[0], dtypes[0]
    y = alloc(shape, "y", "out", dtype)
    if not backward:
        return (y,)
    return (y, alloc(shape, "grad", "grad0", dtype),
            alloc(shape, "g", "ab", dtype) if training or relu else None,
            alloc(shape, "mask", "ab", bool) if relu else None)


def _bn_fwd(x, gamma, beta, attrs, save, bufs):
    return _norm.batchnorm_forward(x, gamma, beta, *attrs,
                                   None if bufs is None else bufs[0])


def _bn_bwd(g, cache, attrs, bufs):
    if bufs is not None:
        return _norm.bn_coef_backward(g, cache, attrs[4], *bufs[1:])
    return _norm.batchnorm_backward(g, cache, attrs[4])


# -- linear: bufs = (row-stable lowering,)
def _linear_buffers(shapes, dtypes, attrs, backward, row_stable, alloc):
    """Serving plans take the per-sample (row-stable) lowering."""
    return (row_stable and not backward,)


def _linear_fwd(x, w, b, attrs, save, bufs):
    row_stable = bufs is not None and bufs[0]
    return (_basic.linear_forward(x, w, b, row_stable),
            (x, w, b is not None))


def _linear_bwd(g, saved, attrs, bufs):
    return _basic.linear_backward(g, *saved)


#: op kind (the name capture records) -> row.  ``attrs`` per kind: the static
#: arguments the eager wrapper passes — the max-pool kernel size, channel
#: ``idx`` / ``(idx, total)``, the integer targets of the loss, the BN tuple
#: above; ``None`` otherwise.
OPS: Dict[str, Op] = {
    "max_pool2d": Op(
        _max_pool_fwd,
        lambda g, saved, k, bufs: (_pool.maxpool2d_backward(g, saved[0], k,
                                                            saved[1], bufs),),
        (True,), _pool_buffers),
    "global_avg_pool": Op(
        lambda x, _, save, bufs: (_pool.global_avgpool_forward(x), x.shape),
        lambda g, x_shape, _, bufs: (_pool.global_avgpool_backward(
            g, x_shape, bufs),),
        (True,), _pool_buffers),
    "gather_channels": Op(
        lambda x, idx, save, bufs: (np.ascontiguousarray(x[:, idx]), x.shape),
        _gather_channels_bwd, (False,)),
    "scatter_channels": Op(
        _scatter_channels_fwd,
        lambda g, _s, attrs, bufs: (np.ascontiguousarray(g[:, attrs[0]]),),
        (False,)),
    "cross_entropy": Op(
        _cross_entropy_fwd,
        lambda g, probs, targets, bufs: (
            _loss.cross_entropy_backward(probs, targets) * g,),
        (True,)),
    "relu": Op(_relu_fwd, _relu_bwd, (True,),
               _rectifier_buffers(("grad",)), alias=(0,)),
    # the fused residual join relu(a + b): one node instead of two, and a
    # donated gradient per parent instead of two first-touch copies
    "add_relu": Op(_add_relu_fwd, _add_relu_bwd, (True, True),
                   _rectifier_buffers(("da", "db")), alias=(0, 1)),
    "batch_norm": Op(_bn_fwd, _bn_bwd, (True, True, True), _bn_buffers),
    "linear": Op(_linear_fwd, _linear_bwd, (True, True, True),
                 _linear_buffers),
}

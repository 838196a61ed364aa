"""Autograd-aware functional ops built on the raw kernels in ``repro.tensor.ops``.

Each function takes and returns :class:`~repro.tensor.tensor.Tensor` objects
and records the backward closure on the output node.  These are the
primitives the ``repro.nn`` layer classes call.

The numerics live in ``repro.tensor.ops`` and are stated there once, and
this layer has two drivers of them: :func:`apply_op`, which runs any op from
its row of :data:`repro.tensor.ops.table.OPS` (batch-norm, ReLU,
add-ReLU, linear, pools, channel gather/scatter, the loss — every wrapper
below but one is a call to it), and :func:`conv2d`, which drives the conv's
kernel set (:class:`repro.tensor.ops.conv.ConvKernels`).  Only those two
build graph nodes or write capture records; ``Tensor`` itself has no ops.

This layer owns three cross-cutting concerns of the engine:

- **Gradient ownership.**  Every kernel allocates fresh arrays, so a
  kernel-produced gradient is *donated* to the receiving tensor
  (``Tensor._accumulate_donated``): the array itself becomes the gradient,
  no first-touch copy.  A row whose ``donate`` flag is false (the channel
  gather/scatter of the gating baseline) has the receiver copy instead
  (``Tensor._accumulate``).

- **Op-level profiling.**  Both drivers bracket every op with
  ``repro.profiler.PROFILER`` guards (``<kind>_fwd`` / ``<kind>_bwd``); the
  disabled cost is one attribute check per call.

- **Step capture.**  When a :class:`repro.tensor.compile.Tape` is active
  (``repro.tensor.tensor._TAPE``), every op appends an execution record so
  the step can be replayed as a flat kernel plan.  The disabled cost is one
  ``is not None`` check per call, same pattern as the profiler guard.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..profiler import PROFILER as _P
from . import tensor as _tensor_mod
from .ops import conv as _conv
from .ops.table import OPS
from .tensor import Tensor, grad_enabled


def apply_op(kind: str, inputs: Tuple[Optional[Tensor], ...],
             attrs=None) -> Tensor:
    """Run the op ``kind`` eagerly, as its row of
    :data:`repro.tensor.ops.table.OPS` states it: the forward kernel over the
    inputs' arrays, a backward closure that routes the backward kernel's
    gradients (donated or copied per input, as the row says), a
    ``<kind>_fwd`` / ``<kind>_bwd`` profiler bracket, and a capture record
    under the same name — which is all a compiled plan needs to replay the
    op from the same row.  An absent optional input (``bias=None``) reaches
    the kernels and the record as ``None`` and is no graph parent.  The
    kernels get ``bufs=None``: eager never runs a row's build-time stage."""
    op = OPS[kind]
    prof = _P.enabled
    if prof:
        t0 = time.perf_counter()
    parents = tuple(t for t in inputs if t is not None)
    y, saved = op.forward(
        *[None if t is None else t.data for t in inputs], attrs,
        grad_enabled() and any(t.requires_grad for t in parents), None)
    if prof:
        _P.add(kind + "_fwd", time.perf_counter() - t0, y.nbytes)

    def backward(g: np.ndarray) -> None:
        prof = _P.enabled
        if prof:
            t0 = time.perf_counter()
        for t, donate, dg in zip(inputs, op.donate,
                                 op.backward(g, saved, attrs, None)):
            if t is not None:
                (t._accumulate_donated if donate else t._accumulate)(dg)
        if prof:
            _P.add(kind + "_bwd", time.perf_counter() - t0, 0)

    out = Tensor._make(y, parents, backward)
    if _tensor_mod._TAPE is not None:
        _tensor_mod._TAPE.record(kind, inputs, out, attrs)
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise rectifier (single-pass; mask recovered from output sign)."""
    return apply_op("relu", (x,))


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """Fused residual join ``relu(a + b)`` of two tensors of one shape and
    dtype (one graph node, a donated masked gradient per parent; nothing
    broadcasts)."""
    if a.data.shape != b.data.shape or a.data.dtype != b.data.dtype:
        raise ValueError(f"add_relu of {a.data.shape}/{a.data.dtype} and "
                         f"{b.data.shape}/{b.data.dtype}")
    return apply_op("add_relu", (a, b))


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor],
           stride: int = 1, padding: int = 0, first_layer: bool = False
           ) -> Tensor:
    """2-D convolution, NCHW.  ``first_layer`` skips dx for the input layer."""
    prof = _P.enabled
    if prof:
        t0 = time.perf_counter()
    y, ctx = _conv.conv2d_forward(
        x.data, weight.data, bias.data if bias is not None else None,
        stride, padding)
    if prof:
        _P.add("conv2d_fwd", time.perf_counter() - t0, y.nbytes)
    if not grad_enabled():
        out = Tensor(y)
        if _tensor_mod._TAPE is not None:
            _tensor_mod._TAPE.record("conv2d", (x, weight, bias), out,
                                     (stride, padding, first_layer))
        return out
    x_shape = x.data.shape
    w_data = weight.data
    parents = (x, weight) + ((bias,) if bias is not None else ())

    def backward(g: np.ndarray) -> None:
        prof = _P.enabled
        if prof:
            t0 = time.perf_counter()
        need_dx = x.requires_grad or x._backward is not None
        dx, dw, db = _conv.conv2d_backward(
            g, ctx, x_shape, w_data, stride, padding,
            need_dx=need_dx and not first_layer,
            need_db=bias is not None)
        if dx is not None:
            x._accumulate_donated(dx)
        weight._accumulate_donated(dw)
        if bias is not None:
            bias._accumulate_donated(db)
        if prof:
            _P.add("conv2d_bwd", time.perf_counter() - t0, dw.nbytes)

    out = Tensor._make(y, parents, backward)
    if _tensor_mod._TAPE is not None:
        _tensor_mod._TAPE.record("conv2d", (x, weight, bias), out,
                                 (stride, padding, first_layer))
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    """Affine map ``y = x @ W.T + b`` with ``W`` of shape ``(out, in)``."""
    return apply_op("linear", (x, weight, bias))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               momentum: float = 0.1, eps: float = 1e-5,
               training: bool = True, relu: bool = False) -> Tensor:
    """Channel-wise batch normalization for NCHW inputs.

    ``relu=True`` fuses the following rectifier into the same kernel (one
    output buffer, no separate mask, one graph node instead of two).
    """
    return apply_op("batch_norm", (x, gamma, beta),
                    (running_mean, running_var, momentum, eps, training,
                     relu))


def max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping max pooling (identity when input is below kernel size).

    Forward-only calls (evaluation, serving) never build the argmax mask."""
    if x.data.shape[2] < kernel or x.data.shape[3] < kernel:
        return x
    return apply_op("max_pool2d", (x,), kernel)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean pooling ``(N, C, H, W) -> (N, C)``."""
    return apply_op("global_avg_pool", (x,))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy against integer labels."""
    return apply_op("cross_entropy", (logits,), np.asarray(targets))


def gather_channels(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select a subset of channels (the gating *select* layer).

    This is the tensor-reshaping / indexing operation whose cost the paper's
    channel-union design avoids (Fig. 7): the fancy-index forces a copy.
    """
    return apply_op("gather_channels", (x,), np.asarray(idx))


def scatter_channels(x: Tensor, idx: np.ndarray, total: int) -> Tensor:
    """Scatter channels back into a dense ``total``-channel tensor (gating)."""
    return apply_op("scatter_channels", (x,), (np.asarray(idx), total))

"""Batch normalization kernels (optionally fused with ReLU).

Batch normalization is the paper's canonical *memory-bandwidth-bound* layer:
it reads its input several times (mean, variance, normalize) at trivial
arithmetic intensity, which is why PruneTrain's channel pruning cuts BN
memory traffic roughly in proportion to channel count (Sec. 5.1, Fig. 8 "BN
cost").

The optimized formulation here exploits that both passes are affine in the
input *per channel*:

- forward: ``y = x * a[c] + b[c]`` with ``a = gamma/std`` and
  ``b = beta - mu * a`` — two full-size passes instead of the textbook four,
  and no materialized ``xhat``;
- backward: ``dx = g * c1[c] + x * c2[c] + c0[c]`` where the three channel
  vectors fold the Ioffe & Szegedy fused expression (``dgamma`` is likewise
  recovered from ``sum(g*x)`` without ever forming ``xhat``).

When ``relu=True`` the ReLU is applied in place on the BN output and its
backward mask is recovered from the output sign, so the fused layer saves a
full activation allocation, a bool mask, and an extra graph node.

With ``workspace.config.fused_bnrelu`` disabled the seed engine's xhat-cache
formulation runs instead (kept for honest before/after benchmarking); both
cache formats are handled transparently by the backward kernels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import workspace as ws
from ..workspace import config

#: Optional observer called as ``sink(running_mean, mu, var)`` on every
#: *training-mode* BN forward, with the layer's running-mean array (an
#: identity key — each BN layer owns a distinct array object) and the batch
#: statistics just computed.  The elastic data-parallel worker processes
#: (:mod:`repro.distributed.elastic`) use this to ship per-shard BN
#: statistics back to the coordinator, which replays the running-stat
#: updates on its authoritative model in shard order — reproducing the
#: in-process simulation's sequential updates bit-exactly.  ``None``
#: (default) costs one attribute check per BN forward.
_BN_STATS_SINK = None


def set_bn_stats_sink(sink) -> None:
    """Install (or clear, with ``None``) the training BN statistics observer."""
    global _BN_STATS_SINK
    _BN_STATS_SINK = sink


def _batch_stats(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and (biased) variance over (N, H, W)."""
    n, c, h, w = x.shape
    m = n * h * w
    x3 = x.reshape(n, c, h * w)
    # np.add.reduce + in-place divide is exactly what x3.mean(axis=(0, 2))
    # does internally (bit-identical), minus the per-call wrapper.
    mu = np.add.reduce(x3, axis=(0, 2))
    np.true_divide(mu, m, out=mu, casting="unsafe")
    # single-pass variance: E[x^2] - E[x]^2 (one einsum, no temporaries)
    ex2 = np.einsum("ncp,ncp->c", x3, x3) / m
    var = np.maximum(ex2 - mu * mu, 0.0)
    return mu, var


def update_running_stats(running_mean, running_var, mu, var,
                         momentum: float) -> None:
    """The running-statistic EMA, in place: ``r = (1 - m) r + m stat``."""
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      momentum: float, eps: float, training: bool,
                      relu: bool = False, out: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, tuple]:
    """BatchNorm over (N, H, W) for each channel of an ``(N, C, H, W)`` input.

    Running statistics are updated **in place** during training (no
    reallocation per step).  With ``relu=True`` the output is rectified in
    place (fused BN+ReLU).  Returns ``(y, cache)``; the cache is opaque and
    consumed by :func:`batchnorm_backward` / :func:`batchnorm_eval_backward`.

    The affine-folded formulation writes ``y`` into ``out`` when given (a
    compiled plan's preplanned activation buffer; eager leaves it ``None``
    and gets a fresh array) — same operations, same values either way.
    """
    if training:
        mu, var = _batch_stats(x)
        if _BN_STATS_SINK is not None:
            _BN_STATS_SINK(running_mean, mu, var)
        update_running_stats(running_mean, running_var, mu, var, momentum)
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)

    if not relu and not config.fused_bnrelu:
        # Seed engine formulation (xhat materialized, four passes).
        xhat = x * inv_std[None, :, None, None]
        xhat -= (mu * inv_std)[None, :, None, None]
        y = xhat * gamma[None, :, None, None]
        y += beta[None, :, None, None]
        return y, ("xhat", xhat, gamma, inv_std)

    # Affine-folded formulation: y = x*a + b in two passes, no xhat.
    a = gamma * inv_std
    b = beta - mu * a
    y = np.multiply(x, a[None, :, None, None], out=out)
    y += b[None, :, None, None]
    if relu:
        np.maximum(y, 0, out=y)
    cache = ("coef", x, y if relu else None, gamma, mu, inv_std, relu)
    return y, cache


def bn_coef_backward(dy: np.ndarray, cache: tuple, training: bool,
                     dx: np.ndarray, scratch: Optional[np.ndarray] = None,
                     mask: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of the affine-folded :func:`batchnorm_forward` (its ``cache``)
    into ``dx``; returns ``(dx, dgamma, dbeta)``.

    ``scratch`` (full size) and ``mask`` (bool, fused ReLU only) are work
    buffers, each a fresh array when ``None``; ``dgamma`` and ``dbeta`` are
    always fresh.  Eager passes pooled ``dx`` / ``scratch``, a compiled plan
    its preplanned buffers.
    """
    # y: the rectified output of a fused ReLU (its sign is the mask) or None
    _, x, y, gamma, mu, inv_std, _ = cache
    n, c, h, w = dy.shape
    m = n * h * w
    if y is not None:
        # Fused ReLU mask recovered from the rectified output's sign.
        g = np.multiply(dy, np.greater(y, 0, out=mask), out=scratch)
        scratch = g
    else:
        g = dy
    # Channel reductions over flattened (N, C, H*W) views: the merged inner
    # axis gives NumPy long contiguous inner loops (H and W alone are tiny
    # at the late stages of a CIFAR net).
    g3 = g.reshape(n, c, h * w)
    dbeta = np.add.reduce(g3, axis=(0, 2))
    sgx = np.einsum("ncp,ncp->c", g3, x.reshape(n, c, h * w))
    # dgamma = sum(g * xhat) = inv_std * (sum(g*x) - mu * sum(g))
    dgamma = np.multiply(sgx - mu * dbeta, inv_std)
    c1 = (gamma * inv_std).astype(dy.dtype, copy=False)
    if not training:
        # Running statistics were constants: dx = g * gamma * inv_std.
        np.multiply(g, c1[None, :, None, None], out=dx)
        return dx, dgamma, dbeta
    # dx = (c1/m) * (m*g - dbeta - xhat*dgamma), folded per channel:
    c2 = (-(c1 * inv_std * dgamma) / m).astype(dy.dtype, copy=False)
    c0 = (-(c1 * dbeta) / m - c2 * mu).astype(dy.dtype, copy=False)
    np.multiply(x, c2[None, :, None, None], out=dx)
    dx += np.multiply(g, c1[None, :, None, None], out=scratch)
    dx += c0[None, :, None, None]
    return dx, dgamma, dbeta


def _coef_backward(dy: np.ndarray, cache: tuple, training: bool
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eager backward for the affine-folded cache: pooled ``dx`` (the caller
    releases it), pooled scratch returned here."""
    relu = cache[6]
    dx = ws.acquire(dy.shape, dy.dtype)
    scratch = ws.acquire(dy.shape, dy.dtype) \
        if training and not relu else None
    out = bn_coef_backward(dy, cache, training, dx, scratch)
    ws.release(scratch)
    return out


def batchnorm_backward(dy: np.ndarray, cache: tuple
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dx, dgamma, dbeta)`` (training-mode statistics).

    ``dx`` may be a pooled buffer — consume it synchronously and release it
    via ``workspace.release`` (a no-op for unpooled arrays).
    """
    if cache[0] == "coef":
        return _coef_backward(dy, cache, training=True)
    _, xhat, gamma, inv_std = cache
    n, c, h, w = dy.shape
    m = n * h * w
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    # dx = (gamma*inv_std/m) * (m*dy - dbeta - xhat*dgamma)
    dx = (gamma * inv_std)[None, :, None, None] / m * (
        m * dy
        - dbeta[None, :, None, None]
        - xhat * dgamma[None, :, None, None]
    )
    return dx, dgamma, dbeta


def batchnorm_eval_backward(dy: np.ndarray, cache: tuple
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward when forward used running statistics (rarely needed)."""
    if cache[0] == "coef":
        return _coef_backward(dy, cache, training=False)
    _, xhat, gamma, inv_std = cache
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    dx = dy * (gamma * inv_std)[None, :, None, None]
    return dx, dgamma, dbeta

"""A float64, plain-NumPy reference of every op a shipped model runs.

The engine (``repro.tensor``) states each kernel once and drives it three
ways — eager, captured, planned — so the bit-exact suites prove that its
drivers agree: a wrong kernel is wrong on every side.  This module is the
independent side.  Every op is its textbook formulation, in float64:

- the convolution lowered through an explicit column matrix
  (:func:`im2col` / :func:`col2im`, one GEMM each way);
- batch-norm through the normalized input ``xhat``, in training mode (batch
  statistics, running-statistic update) and evaluation mode;
- ReLU, the residual join ``relu(a + b)``, non-overlapping max-pool, global
  average pool, the linear head and mean softmax cross-entropy;
- the group-lasso subgradient and the momentum-SGD update of PruneTrain's
  Alg. 1 (lines 10 and 16).

Each op is a pair: ``<op>_forward(...) -> (y, cache)`` and
``<op>_backward(dy, cache) -> gradients``.  :class:`Step` runs one training
step of a ResNet or VGG through them.  It *reads* a model — its module
structure and its parameter and running-statistic arrays, copied to float64
— but never calls it, and nothing here imports ``repro.tensor``
(``tests/test_oracle.py`` walks this file's imports to hold that).

    step = Step(model, x, y)        # loss, grads, running stats in float64
    step.update(lam, lr, momentum, weight_decay, velocity)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

F64 = np.float64


# -- convolution --------------------------------------------------------------

def conv_out_size(h: int, w: int, r: int, s: int, stride: int,
                  padding: int) -> Tuple[int, int]:
    """Spatial output size of a convolution."""
    return ((h + 2 * padding - r) // stride + 1,
            (w + 2 * padding - s) // stride + 1)


def im2col(x: np.ndarray, r: int, s: int, stride: int,
           padding: int) -> np.ndarray:
    """Convolution patches as a contiguous ``(N*Ho*Wo, C*R*S)`` matrix."""
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (N, C, Ho', Wo', R, S) over every window start, then the strided ones
    windows = sliding_window_view(x, (r, s), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    n, c, ho, wo = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * r * s)
    return np.ascontiguousarray(cols)


def col2im(dcols: np.ndarray, x_shape: Tuple[int, int, int, int], r: int,
           s: int, stride: int, padding: int) -> np.ndarray:
    """The adjoint of :func:`im2col`: scatter-add patch gradients back."""
    n, c, h, w = x_shape
    ho, wo = conv_out_size(h, w, r, s, stride, padding)
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dcols.dtype)
    # (N, Ho, Wo, C, R, S) -> (N, C, R, S, Ho, Wo): one strided add per tap
    d6 = dcols.reshape(n, ho, wo, c, r, s).transpose(0, 3, 4, 5, 1, 2)
    for ri in range(r):
        for si in range(s):
            dxp[:, :, ri:ri + stride * ho:stride,
                si:si + stride * wo:stride] += d6[:, :, ri, si]
    return dxp[:, :, padding:padding + h, padding:padding + w]


def conv_forward(x, w, b, stride: int, padding: int):
    """``y = cols @ W.T (+ b)``; the cache keeps the column matrix."""
    n, _, h, wd = x.shape
    k, _, r, s = w.shape
    ho, wo = conv_out_size(h, wd, r, s, stride, padding)
    cols = im2col(x, r, s, stride, padding)
    y = cols @ w.reshape(k, -1).T
    if b is not None:
        y = y + b
    y = y.reshape(n, ho, wo, k).transpose(0, 3, 1, 2)
    return y, (cols, x.shape, w, b is not None, stride, padding)


def conv_backward(dy, cache):
    """``(dx, dw, db)``; ``db`` is ``None`` for a bias-free conv."""
    cols, x_shape, w, has_bias, stride, padding = cache
    k, c, r, s = w.shape
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, k)
    dw = (dy_mat.T @ cols).reshape(w.shape)
    dx = col2im(dy_mat @ w.reshape(k, c * r * s), x_shape, r, s, stride,
                padding)
    return dx, dw, dy_mat.sum(axis=0) if has_bias else None


# -- batch-norm ---------------------------------------------------------------

def batchnorm_forward(x, gamma, beta, running_mean, running_var,
                      momentum: float, eps: float, training: bool):
    """``y = gamma * xhat + beta``.  Training normalizes by the batch's mean
    and biased variance and returns the running statistics moved toward
    them, ``(1 - momentum) * r + momentum * stat``; evaluation normalizes by
    the running statistics and returns them unchanged.  Returns
    ``(y, (new_mean, new_var), cache)``."""
    if training:
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        stats = ((1 - momentum) * running_mean + momentum * mu,
                 (1 - momentum) * running_var + momentum * var)
    else:
        mu, var = running_mean, running_var
        stats = (running_mean, running_var)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return y, stats, (xhat, gamma, inv_std, training)


def batchnorm_backward(dy, cache):
    """``(dx, dgamma, dbeta)``: Ioffe & Szegedy's expression in training
    mode; the running statistics are constants in evaluation mode."""
    xhat, gamma, inv_std, training = cache
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    scale = (gamma * inv_std)[None, :, None, None]
    if not training:
        return dy * scale, dgamma, dbeta
    m = dy.size // dy.shape[1]
    dx = scale / m * (m * dy - dbeta[None, :, None, None]
                      - xhat * dgamma[None, :, None, None])
    return dx, dgamma, dbeta


# -- elementwise, pools, head, loss -------------------------------------------

def relu_forward(x):
    return np.maximum(x, 0.0), x > 0


def relu_backward(dy, mask):
    return dy * mask


def add_relu_forward(a, b):
    """The residual join ``relu(a + b)``."""
    return relu_forward(a + b)


def add_relu_backward(dy, mask):
    """One gradient per summand, both the masked ``dy``."""
    g = relu_backward(dy, mask)
    return g, g.copy()


def maxpool_forward(x, k: int):
    """Non-overlapping ``k x k`` max-pool, the ragged edge truncated; the
    identity on a map smaller than the window.  The gradient goes to the
    first maximum of each window in row-major order."""
    n, c, h, w = x.shape
    if h < k or w < k:
        return x, None
    ho, wo = h // k, w // k
    win = x[:, :, :ho * k, :wo * k].reshape(n, c, ho, k, wo, k)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
    first = win.argmax(axis=-1)
    return win.max(axis=-1), (first, x.shape, k)


def maxpool_backward(dy, cache):
    if cache is None:
        return dy
    first, x_shape, k = cache
    n, c, ho, wo = dy.shape
    dwin = np.zeros((n, c, ho, wo, k * k))
    np.put_along_axis(dwin, first[..., None], dy[..., None], axis=-1)
    dwin = dwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros(x_shape)
    dx[:, :, :ho * k, :wo * k] = dwin.reshape(n, c, ho * k, wo * k)
    return dx


def global_avgpool_forward(x):
    return x.mean(axis=(2, 3)), x.shape


def global_avgpool_backward(dy, x_shape):
    h, w = x_shape[2:]
    return np.broadcast_to(dy[:, :, None, None] / (h * w), x_shape).copy()


def linear_forward(x, w, b):
    """``y = x @ W.T (+ b)`` with ``W`` of shape ``(out, in)``."""
    y = x @ w.T
    return (y if b is None else y + b), (x, w, b is not None)


def linear_backward(dy, cache):
    x, w, has_bias = cache
    return dy @ w, dy.T @ x, dy.sum(axis=0) if has_bias else None


def cross_entropy_forward(logits, targets):
    """Mean softmax cross-entropy against integer labels."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(len(targets))
    return -logp[rows, targets].mean(), (np.exp(logp), targets)


def cross_entropy_backward(cache):
    probs, targets = cache
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(targets)), targets] = 1.0
    return (probs - onehot) / len(targets)


# -- PruneTrain's update (Alg. 1) ---------------------------------------------

def group_lasso_subgradient(w, lam: float, first: bool):
    """``lam * d(sum_g ||W_g||_2)/dW`` over a conv's output-channel groups
    ``W[k]`` and — unless it reads the network input — its input-channel
    groups ``W[:, c]``; ``W_g / ||W_g||``, and 0 for an all-zero group."""
    def unit(norms):
        return np.divide(1.0, norms, out=np.zeros_like(norms),
                         where=norms > 1e-12)
    g = w * unit(np.sqrt((w * w).sum(axis=(1, 2, 3))))[:, None, None, None]
    if not first:
        g = g + w * unit(np.sqrt((w * w).sum(axis=(0, 2, 3))))[
            None, :, None, None]
    return lam * g


def sgd_momentum(w, g, v, lr: float, momentum: float, weight_decay: float):
    """``v <- momentum * v + g + weight_decay * w``, ``w <- w - lr * v``;
    returns ``(w, v)``.  ``v`` is ``None`` before the first step."""
    v = (0.0 if v is None else momentum * v) + g + weight_decay * w
    return w - lr * v, v


# -- a training step of a shipped model ---------------------------------------

class Step:
    """One training step of a ResNet or VGG in float64 (training-mode BN).

    Reads ``model``'s structure and its arrays at construction and computes
    ``loss``, ``grads`` (parameter name -> gradient), ``running`` (BN
    module name -> updated ``(mean, var)``) and ``lasso_convs`` (the weight
    name of every conv the step ran, the one reading the input first).
    """

    def __init__(self, model, x: np.ndarray, y: np.ndarray) -> None:
        self._names = {id(m): name for name, m in model.named_modules()}
        self._pnames = {id(p): name for name, p in model.named_parameters()}
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.running: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.lasso_convs: List[str] = []
        walk = {"ResNet": self._resnet, "VGG": self._vgg}[type(model).__name__]
        logits, back = walk(model, np.asarray(x, F64))
        loss, cache = cross_entropy_forward(logits, np.asarray(y))
        self.loss = float(loss)
        back(cross_entropy_backward(cache))

    def update(self, lam: float, lr: float, momentum: float,
               weight_decay: float, velocity: Dict[str, np.ndarray]):
        """Alg. 1's update after this step's backward: the group-lasso
        subgradient added to every conv the step ran, then momentum SGD
        from the momentum buffers ``velocity`` (by parameter name; a missing
        name starts at zero).  Returns ``(params, velocity)``, the new ones,
        by name."""
        grads = dict(self.grads)
        for i, name in enumerate(self.lasso_convs):
            grads[name] = grads[name] + group_lasso_subgradient(
                self.params[name], lam, first=i == 0)
        new_w, new_v = {}, {}
        for name, g in grads.items():
            new_w[name], new_v[name] = sgd_momentum(
                self.params[name], g, velocity.get(name), lr, momentum,
                weight_decay)
        return new_w, new_v

    # -- reading the model
    def _param(self, p) -> Tuple[Optional[str], Optional[np.ndarray]]:
        if p is None:
            return None, None
        name = self._pnames[id(p)]
        self.params[name] = np.asarray(p.data, F64)
        return name, self.params[name]

    def _grad(self, name: Optional[str], g: Optional[np.ndarray]) -> None:
        if name is not None:
            self.grads[name] = self.grads.get(name, 0.0) + g

    # -- layers: each returns (y, backward)
    def _conv(self, conv, x):
        wname, w = self._param(conv.weight)
        bname, b = self._param(conv.bias)
        self.lasso_convs.append(wname)
        y, cache = conv_forward(x, w, b, conv.stride, conv.padding)

        def back(dy):
            dx, dw, db = conv_backward(dy, cache)
            self._grad(wname, dw)
            self._grad(bname, db)
            return dx
        return y, back

    def _bn(self, bn, x, relu: bool = False):
        gname, gamma = self._param(bn.weight)
        bname, beta = self._param(bn.bias)
        y, stats, cache = batchnorm_forward(
            x, gamma, beta, np.asarray(bn.running_mean, F64),
            np.asarray(bn.running_var, F64), bn.momentum, bn.eps, True)
        self.running[self._names[id(bn)]] = stats
        mask = None
        if relu:
            y, mask = relu_forward(y)

        def back(dy):
            if mask is not None:
                dy = relu_backward(dy, mask)
            dx, dgamma, dbeta = batchnorm_backward(dy, cache)
            self._grad(gname, dgamma)
            self._grad(bname, dbeta)
            return dx
        return y, back

    def _head(self, model, x):
        """Global average pool, then the linear classifier."""
        h, shape = global_avgpool_forward(x)
        wname, w = self._param(model.fc.weight)
        bname, b = self._param(model.fc.bias)
        logits, cache = linear_forward(h, w, b)

        def back(dy):
            dh, dw, db = linear_backward(dy, cache)
            self._grad(wname, dw)
            self._grad(bname, db)
            return global_avgpool_backward(dh, shape)
        return logits, back

    @staticmethod
    def _chain(x, layers):
        backs = []
        for layer in layers:
            x, back = layer(x)
            backs.append(back)

        def back(dy):
            for b in reversed(backs):
                dy = b(dy)
            return dy
        return x, back

    def _block(self, block, x):
        """A basic or bottleneck residual block: ``relu(main + shortcut)``,
        or ``relu(shortcut)`` once reconfiguration removed its path."""
        if block.proj is not None:
            short, short_back = self._chain(x, [
                lambda t: self._conv(block.proj, t),
                lambda t: self._bn(block.proj_bn, t)])
        else:
            short, short_back = x, (lambda dy: dy)
        if not block.active:
            y, mask = relu_forward(short)
            return y, lambda dy: short_back(relu_backward(dy, mask))
        pairs = [(block.conv1, block.bn1), (block.conv2, block.bn2)]
        if type(block).__name__ == "Bottleneck":
            pairs.append((block.conv3, block.bn3))
        layers = []
        for i, (conv, bn) in enumerate(pairs):
            relu = i < len(pairs) - 1
            layers += [lambda t, c=conv: self._conv(c, t),
                       lambda t, b=bn, r=relu: self._bn(b, t, r)]
        main, main_back = self._chain(x, layers)
        y, mask = add_relu_forward(main, short)

        def back(dy):
            d_main, d_short = add_relu_backward(dy, mask)
            return main_back(d_main) + short_back(d_short)
        return y, back

    def _resnet(self, model, x):
        layers = [lambda t: self._conv(model.stem, t),
                  lambda t: self._bn(model.stem_bn, t, relu=True)]
        if model.stem_pool is not None:
            layers.append(lambda t: self._pool(model.stem_pool, t))
        layers += [lambda t, b=block: self._block(b, t)
                   for stage in model.stages for block in stage]
        layers.append(lambda t: self._head(model, t))
        return self._chain(x, layers)

    def _pool(self, pool, x):
        y, cache = maxpool_forward(x, pool.kernel_size)
        return y, lambda dy: maxpool_backward(dy, cache)

    @staticmethod
    def _relu(x):
        y, mask = relu_forward(x)
        return y, lambda dy: relu_backward(dy, mask)

    def _vgg(self, model, x):
        layers = []
        for layer in model.features:
            kind = type(layer).__name__
            if kind == "Conv2d":
                layers.append(lambda t, c=layer: self._conv(c, t))
            elif kind == "BatchNorm2d":
                layers.append(lambda t, b=layer: self._bn(b, t))
            elif kind == "ReLU":
                layers.append(self._relu)
            elif kind == "MaxPool2d":
                layers.append(lambda t, p=layer: self._pool(p, t))
            else:
                raise TypeError(f"no oracle for VGG layer {kind}")
        layers.append(lambda t: self._head(model, t))
        return self._chain(x, layers)

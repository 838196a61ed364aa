"""ReLU, fused residual add-ReLU and linear (fully-connected) kernels.

``out=``-style: the eager layer (:mod:`repro.tensor.functional`) leaves the
destinations ``None`` and gets fresh arrays, a compiled plan
(:mod:`repro.tensor.compile`) passes its preplanned buffers.  Either way the
same NumPy operations run on the same values, which is what keeps eager and
replay bit-identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def relu_forward(x: np.ndarray, out: Optional[np.ndarray] = None
                 ) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def add_relu_forward(a: np.ndarray, b: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """``relu(a + b)``; ``out`` may alias either operand."""
    y = np.add(a, b, out=out)
    return np.maximum(y, 0, out=y)


def relu_mask(y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Backward mask of a rectifier, recovered from its output's sign."""
    return np.greater(y, 0, out=out)


def masked_grad(g: np.ndarray, mask: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.multiply(g, mask, out=out)


def linear_forward(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                   row_stable: bool = False) -> np.ndarray:
    """``y = x @ W.T + b`` with ``W`` of shape ``(out, in)``.

    ``row_stable`` is the serving lowering: one GEMM per sample via the 3-D
    batched matmul.  2-D GEMM rows are not bit-stable across the batch
    dimension (BLAS picks different kernels/blockings per M), which would
    break the serve tier's contract that padding and batching never perturb
    a request's logits; the per-sample form is bit-identical to
    ``x[i:i+1] @ W.T + b`` for every row at every batch size.
    """
    if row_stable:
        y = np.matmul(x[:, None, :], w.T)[:, 0, :]
    else:
        y = x @ w.T
    if b is not None:
        y = y + b
    return y


def linear_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray,
                    need_db: bool
                    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Returns ``(dx, dw, db)``; ``db`` is ``None`` without a bias."""
    return (np.matmul(g, w), np.matmul(g.T, x),
            g.sum(axis=0) if need_db else None)

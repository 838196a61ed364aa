"""SGD with momentum and (decoupled) L2 weight decay.

Two PruneTrain-specific requirements shape this implementation:

1. **Momentum buffers are keyed by parameter identity** and exposed through
   :meth:`SGD.state_for`, so channel surgery can slice the momentum of pruned
   parameters in lock-step with the weights ("all training variables of the
   remaining channels are kept as is", Sec. 4.2).
2. **The learning rate is mutable mid-training** (:attr:`SGD.lr`) for the
   dynamic mini-batch adjustment's linear LR scaling rule.

Updates are fully in-place (per the optimization guides): no per-step
allocation beyond the gradient arrays autograd already produced.  The two
per-parameter temporaries of the naive formulation (``wd * w`` and
``lr * v``) are staged through a per-parameter scratch buffer cached on the
optimizer (parameters are tiny, so a dict lookup beats the workspace pool's
acquire/release bookkeeping here), so a steady-state step allocates nothing
at all.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..nn.module import Parameter
from ..profiler import PROFILER as _P


class SGD:
    """Stochastic gradient descent: ``v = m*v + g + wd*w; w -= lr*v``."""

    def __init__(self, params: Iterable[Parameter], lr: float,
                 momentum: float = 0.9, weight_decay: float = 0.0):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}
        self._scratch: Dict[int, np.ndarray] = {}

    def state_for(self, param: Parameter) -> Optional[np.ndarray]:
        """Momentum buffer of ``param`` (None until first step)."""
        return self._velocity.get(id(param))

    def sync_params(self, params: Iterable[Parameter]) -> None:
        """Replace the parameter list and purge state of departed params.

        Network reconfiguration (layer removal) drops parameters from the
        model; their ``_velocity``/``_scratch`` entries must go with them.
        Both dicts are keyed by ``id(param)``, so a stale entry is not just a
        leak: once the dead parameter is garbage-collected its id can be
        recycled by a *new* parameter, silently attaching the dead
        parameter's momentum to it.  Purging here is safe against that
        hazard because the old parameter objects are still alive (referenced
        by the previous ``self.params`` list) until this method returns, so
        live and stale ids cannot collide.
        """
        params = list(params)
        if not params:
            raise ValueError("no parameters to optimize")
        live = {id(p) for p in params}
        for state in (self._velocity, self._scratch):
            for pid in [k for k in state if k not in live]:
                del state[pid]
        self.params = params

    def set_state_for(self, param: Parameter, buf: np.ndarray) -> None:
        """Replace a momentum buffer (used by pruning surgery)."""
        if buf.shape != param.data.shape:
            raise ValueError(
                f"momentum shape {buf.shape} != param shape {param.data.shape}")
        self._velocity[id(param)] = np.ascontiguousarray(
            buf, dtype=param.data.dtype)

    def step(self) -> None:
        """Apply one update using the gradients accumulated in ``p.grad``."""
        prof = _P.enabled
        if prof:
            t0 = time.perf_counter()
        wd, momentum, lr = self.weight_decay, self.momentum, self.lr
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            pid = id(p)
            scratch = self._scratch.get(pid)
            if scratch is None or scratch.shape != p.data.shape:
                scratch = np.empty_like(p.data)
                self._scratch[pid] = scratch
            if wd:
                # in-place fused: g <- g + wd * w (no wd*w temporary)
                np.multiply(p.data, wd, out=scratch)
                g += scratch
            v = self._velocity.get(pid)
            if v is None:
                v = np.zeros_like(p.data)
                self._velocity[pid] = v
            v *= momentum
            v += g
            # w <- w - lr * v (no lr*v temporary)
            np.multiply(v, lr, out=scratch)
            p.data -= scratch
        if prof:
            _P.add("sgd_step", time.perf_counter() - t0, 0)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

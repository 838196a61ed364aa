"""From-scratch NumPy autograd engine (the reproduction's PyTorch substitute).

Public surface:

- :class:`Tensor` — reverse-mode autodiff array.
- :class:`no_grad` — context manager disabling graph recording.
- :mod:`repro.tensor.functional` — conv2d, linear, batch_norm, pooling,
  activations, losses, and the channel gather/scatter ops used by the
  channel-gating baseline.
- :mod:`repro.tensor.workspace` — inert names the frozen benchmark reads.
- :mod:`repro.tensor.compile` — compiled training steps: capture one eager
  forward/backward as a flat kernel plan (:class:`~repro.tensor.compile.
  StepPlan`) over one liveness-planned arena (:mod:`repro.tensor.memplan`)
  and replay it bit-exactly until the model it was captured on is next
  reconfigured.
"""

from . import compile, functional, workspace
from .tensor import Tensor, grad_enabled, no_grad

__all__ = ["Tensor", "no_grad", "grad_enabled", "compile", "functional",
           "workspace"]

"""Module/Parameter system (a compact PyTorch-``nn`` analogue).

Parameters are :class:`~repro.tensor.Tensor` objects with
``requires_grad=True``.  A crucial design point for PruneTrain: parameter
*objects* survive network reconfiguration — channel surgery replaces
``param.data`` (and the optimizer's momentum buffer, keyed by parameter
identity) with channel-sliced arrays, so "all training variables of the
remaining channels are kept as is" (Sec. 4.2) falls out naturally.

Compiled step plans (:mod:`repro.tensor.compile`) are scoped to the model
they were captured on: a model's :attr:`Module.plan_generation` moves when
:meth:`Module.invalidate_plans` is called on it (channel surgery, the
batch-norm fold), which retires the plans of that model's caches and of no
other model's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable parameter of a :class:`Module`."""

    def __init__(self, data: np.ndarray, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for network components.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__``; those are discovered by attribute scan, so there is no
    registration boilerplate.
    """

    #: bumped by :meth:`invalidate_plans`; a ``PlanCache`` over this model
    #: drops every entry it holds once the value moves
    plan_generation = 0

    def __init__(self) -> None:
        self.training = True

    # -- forward ---------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # -- traversal -------------------------------------------------------
    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        def walk(name: str, value):
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    yield from walk(f"{name}.{i}", item)

        for key, value in vars(self).items():
            yield from walk(key, value)

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self.named_children():
            sub = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(sub)

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_parameters(self, prefix: str = ""
                         ) -> Iterator[Tuple[str, Parameter]]:
        seen: set[int] = set()
        for mod_name, mod in self.named_modules(prefix):
            for key, value in vars(mod).items():
                if isinstance(value, Parameter) and id(value) not in seen:
                    seen.add(id(value))
                    yield (f"{mod_name}.{key}" if mod_name else key), value

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total learnable scalar count."""
        return sum(p.data.size for p in self.parameters())

    # -- mode ------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def invalidate_plans(self) -> None:
        """Retire every compiled plan captured on this model: called by
        whatever changes its structure (channel surgery, the batch-norm
        fold) on the model it changed."""
        self.plan_generation += 1

    # -- (de)serialization -------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters and buffers, keyed by dotted path."""
        out: Dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            out[name] = p.data.copy()
        for mod_name, mod in self.named_modules():
            for key, value in vars(mod).items():
                if isinstance(value, np.ndarray):
                    path = f"{mod_name}.{key}" if mod_name else key
                    out[path] = value.copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` into the existing
        parameter and buffer arrays.  Every entry is checked (name and
        shape) before any is written, so a bad ``state`` loads nothing.
        The arrays keep their identity, so a compiled plan bound to them
        stays valid and reads the loaded values."""
        arrays = {name: p.data for name, p in self.named_parameters()}
        for mod_name, mod in self.named_modules():
            for key, value in vars(mod).items():
                if isinstance(value, np.ndarray):
                    arrays[f"{mod_name}.{key}" if mod_name else key] = value
        for name, arr in state.items():
            if name not in arrays:
                raise KeyError(f"unexpected state entry {name!r}")
            if arrays[name].shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arrays[name].shape} vs {arr.shape}")
        for name, arr in state.items():
            np.copyto(arrays[name], arr)

"""Module/Parameter system (a compact PyTorch-``nn`` analogue).

Parameters are :class:`~repro.tensor.Tensor` objects with
``requires_grad=True``.  A crucial design point for PruneTrain: parameter
*objects* survive network reconfiguration — channel surgery replaces
``param.data`` (and the optimizer's momentum buffer, keyed by parameter
identity) with channel-sliced arrays, so "all training variables of the
remaining channels are kept as is" (Sec. 4.2) falls out naturally.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor, workspace


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
        """Load arrays saved by :meth:`state_dict` (shapes must match)."""
        params = dict(self.named_parameters())
        buffers: Dict[str, Tuple[Module, str]] = {}
        for mod_name, mod in self.named_modules():
            for key, value in vars(mod).items():
                if isinstance(value, np.ndarray):
                    path = f"{mod_name}.{key}" if mod_name else key
                    buffers[path] = (mod, key)
        for name, arr in state.items():
            if name in params:
                if params[name].data.shape != arr.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].data.shape} vs {arr.shape}")
                params[name].data = arr.copy()
            elif name in buffers:
                mod, key = buffers[name]
                setattr(mod, key, arr.copy())
            else:
                raise KeyError(f"unexpected state entry {name!r}")
        # Parameter/buffer arrays were just reassigned: any compiled step
        # plan holding references to the old arrays is now stale, even
        # though every shape is unchanged (checkpoint restore).
        workspace.invalidate()

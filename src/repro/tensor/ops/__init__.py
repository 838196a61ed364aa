"""Raw (graph-free) numerical kernels behind ``repro.tensor.functional``."""

from . import basic, conv, loss, norm, pool, table

__all__ = ["basic", "conv", "loss", "norm", "pool", "table"]

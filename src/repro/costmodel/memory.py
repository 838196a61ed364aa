"""Training-memory and BN-traffic models (paper Sec. 2.2, 4.3, Fig. 9).

Two distinct quantities:

1. **Training context volume** — the off-chip bytes one training iteration
   must hold: every layer input kept for back-propagation (which scales
   linearly with the mini-batch), plus weights, gradients, and optimizer
   state.  PruneTrain's dynamic mini-batch adjustment monitors this after
   each reconfiguration and grows the batch to refill device capacity.
2. **BN memory traffic** — bytes moved by the bandwidth-bound batch-norm
   layers per iteration (mean pass + variance pass + normalize read + write).
   This is the paper's "BN cost" axis in Fig. 8 and the 37% traffic saving
   quoted for ResNet50/ImageNet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.graph import ModelGraph

BYTES_PER_ELEMENT = 4  # fp32

#: Effective passes over the BN input per forward+backward iteration:
#: forward reads it thrice (mean, variance, normalize) and writes once;
#: backward reads x-hat and dy and writes dx.  7 feature-map-sized streams.
BN_TRAIN_PASSES = 7
#: Inference: read (normalize with running stats) + write.
BN_INFER_PASSES = 2


def activation_bytes_per_sample(graph: ModelGraph) -> float:
    """Bytes of stored layer inputs per training sample.

    Counts, for each conv: its input feature map (reused by the weight-
    gradient GEMM) and its output (the BN input, which BN's backward needs);
    the ReLU mask is folded into the BN output term (1 extra byte/elem would
    be noise).  This is the paper's "total size of all layer inputs".
    """
    total = 0.0
    for node in graph.active_convs():
        k, c = node.conv.weight.data.shape[:2]
        in_hw = node.out_hw * node.conv.stride
        total += c * in_hw * in_hw * BYTES_PER_ELEMENT        # conv input
        total += 2.0 * k * node.out_hw * node.out_hw * BYTES_PER_ELEMENT  # BN in + ReLU in
    for lin in graph.linears:
        total += lin.linear.in_features * BYTES_PER_ELEMENT
    return total


def model_state_bytes(graph: ModelGraph) -> float:
    """Weights + gradients + momentum bytes (3x parameter footprint)."""
    params = 0
    for node in graph.active_convs():
        params += node.conv.weight.data.size
        if node.conv.bias is not None:
            params += node.conv.bias.data.size
        if node.bn is not None:
            params += node.bn.weight.data.size + node.bn.bias.data.size
    for lin in graph.linears:
        params += lin.linear.weight.data.size
        if lin.linear.bias is not None:
            params += lin.linear.bias.data.size
    return 3.0 * params * BYTES_PER_ELEMENT


def iteration_memory_bytes(graph: ModelGraph, batch_size: int) -> float:
    """Total off-chip bytes required by one training iteration."""
    return (activation_bytes_per_sample(graph) * batch_size
            + model_state_bytes(graph))


def bn_traffic_bytes(graph: ModelGraph, batch_size: int,
                     training: bool = True) -> float:
    """BN memory traffic per iteration (the bandwidth-bound layer cost)."""
    passes = BN_TRAIN_PASSES if training else BN_INFER_PASSES
    total = 0.0
    for node in graph.active_convs():
        if node.bn is None:
            continue
        k = node.conv.weight.data.shape[0]
        total += passes * k * node.out_hw * node.out_hw * BYTES_PER_ELEMENT
    return total * batch_size


#: Head-room kept free for workspace/fragmentation.
RESERVE_FRACTION = 0.05


@dataclass
class MemoryModel:
    """A device memory-capacity model for dynamic mini-batch adjustment.

    Sizing is the paper's analytical Sec. 4.3 model: the batch that fits is
    read off the tensor shapes (:func:`iteration_memory_bytes`), never off a
    measured allocation.

    Parameters
    ----------
    capacity_bytes:
        Device memory (the paper's GPUs: 11 GB on a 1080 Ti), of which
        ``RESERVE_FRACTION`` is kept free; the rest is ``usable_bytes``.
    """

    capacity_bytes: float

    @property
    def usable_bytes(self) -> float:
        return self.capacity_bytes * (1.0 - RESERVE_FRACTION)

    def fits(self, graph: ModelGraph, batch_size: int) -> bool:
        return iteration_memory_bytes(graph, batch_size) <= self.usable_bytes

    def max_batch(self, graph: ModelGraph, granularity: int = 32,
                  ceiling: int = 4096) -> int:
        """Largest batch (multiple of ``granularity``) fitting in memory."""
        per_sample = activation_bytes_per_sample(graph)
        if per_sample <= 0:
            return ceiling
        raw = (self.usable_bytes - model_state_bytes(graph)) / per_sample
        batch = int(raw // granularity) * granularity
        return max(granularity, min(batch, ceiling))

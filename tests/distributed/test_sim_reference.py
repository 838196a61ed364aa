"""The in-process data-parallel step against a reference built from first
principles: per-shard eager gradients, concatenated into one payload per
shard and reduced by the monolithic ``ring_allreduce``.  Bit for bit —
gradients, BN running statistics, loss, accuracy and comm bytes — over
uneven shards, more workers than samples, and a model whose
reconfiguration removed layers.  The elastic engine is held equal to this
simulation by the ``-m distributed`` suites."""

import numpy as np
import pytest

from repro.data import make_synthetic
from repro.distributed import data_parallel_step, ring_allreduce
from repro.nn import resnet20
from repro.optim import SGD
from repro.prune import prune_and_reconfigure
from repro.tensor import Tensor
from repro.tensor import functional as F

from ..conftest import sparsify_space


def make_model(reconfigured):
    m = resnet20(10, width_mult=0.25, input_hw=8, seed=3)
    m.train()
    if reconfigured:
        # kill every channel inside one residual block: surgery removes it
        sid = m.graph.conv_by_name("s2b1.conv1").out_space
        sparsify_space(m.graph, sid, list(range(m.graph.spaces[sid].size)))
        rep = prune_and_reconfigure(m, SGD(m.parameters(), lr=0.1),
                                    threshold=1e-3, remove_layers=True,
                                    zero_sparse=True)
        assert rep.removed_layers > 0
    return m


def reference_step(model, x, y, workers):
    n = len(x)
    bounds = np.linspace(0, n, min(workers, n) + 1).astype(int)
    params = model.parameters()
    payloads, loss, correct = [], 0.0, 0
    for lo, hi in zip(bounds, bounds[1:]):
        model.zero_grad()
        logits = model(Tensor(x[lo:hi]))
        shard_loss = F.cross_entropy(logits, y[lo:hi])
        shard_loss.backward()
        loss += shard_loss.item() * (hi - lo)
        correct += int((logits.data.argmax(1) == y[lo:hi]).sum())
        payloads.append(np.concatenate([
            (np.zeros_like(p.data) if p.grad is None else p.grad).ravel()
            for p in params]))
    trace = ring_allreduce(payloads)
    return (loss / n, correct / n, trace.bytes_per_worker, payloads[0],
            list(np.diff(bounds)))


@pytest.mark.parametrize("reconfigured", [False, True])
@pytest.mark.parametrize("n", [11, 3])
@pytest.mark.parametrize("workers", [2, 3, 5])
def test_sim_equals_reference_ring(workers, n, reconfigured):
    ds = make_synthetic(10, n, hw=8, noise=0.8, seed=0)
    ref_model, sim_model = make_model(reconfigured), make_model(reconfigured)
    loss, acc, comm, reduced, shards = reference_step(ref_model, ds.x, ds.y,
                                                      workers)
    res, sim_shards = data_parallel_step(sim_model, ds.x, ds.y, workers)

    assert sim_shards == shards
    assert len(shards) == min(workers, n) and sum(shards) == n
    assert res.loss == loss and type(res.loss) is type(loss)
    assert res.accuracy == acc and type(res.accuracy) is type(acc)
    assert res.comm_bytes_per_worker == comm > 0
    got = np.concatenate([p.grad.ravel() for p in sim_model.parameters()])
    assert got.dtype == reduced.dtype and got.tobytes() == reduced.tobytes()
    ref_state, sim_state = ref_model.state_dict(), sim_model.state_dict()
    assert ref_state.keys() == sim_state.keys()
    for key in ref_state:   # BN running statistics, shard by shard
        assert sim_state[key].tobytes() == ref_state[key].tobytes(), key

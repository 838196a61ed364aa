"""``GroupLasso.add_gradients`` against the per-conv formulation it
replaced, byte for byte.

``reference_add_gradients`` is that formulation's loop verbatim, with the
group norms' two einsums inlined so the oracle shares no arithmetic with the
code under test: a zero-filled gradient, each group term added as a 4-D
broadcast, then ``*= λ`` and the add into ``.grad``.  Generated graphs mix
1x1 and 3x3 convs behind a first conv whose input groups are excluded, with
exact-zero groups of either sign, sub-``eps`` groups, ``-0.0`` weights and
pre-filled or absent gradients, under both scalings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.graph import ModelGraph
from repro.nn.layers import Conv2d
from repro.prune import GroupLasso

_NORM_EPS = 1e-12


def reference_add_gradients(gl: GroupLasso) -> None:
    for node in gl.graph.active_convs():
        w = node.conv.weight.data
        in_norms = np.sqrt(np.einsum("kcrs,kcrs->c", w, w))
        out_norms = np.sqrt(np.einsum("kcrs,kcrs->k", w, w))
        k, c = w.shape[0], w.shape[1]
        rs = w.shape[2] * w.shape[3]
        grad = np.zeros_like(w)
        if node.name not in gl._first_conv_names:
            inv_in = np.where(in_norms > _NORM_EPS,
                              1.0 / np.maximum(in_norms, _NORM_EPS),
                              0.0)
            scale = np.sqrt(k * rs) if gl.per_group_size_scaling else 1.0
            grad += scale * w * inv_in[None, :, None, None]
        inv_out = np.where(out_norms > _NORM_EPS,
                           1.0 / np.maximum(out_norms, _NORM_EPS),
                           0.0)
        scale = np.sqrt(c * rs) if gl.per_group_size_scaling else 1.0
        grad += scale * w * inv_out[:, None, None, None]
        grad *= gl.lam
        p = node.conv.weight
        if p.grad is None:
            p.grad = grad
        else:
            p.grad += grad


def _weights(rng, k, c, r):
    """Normal weights with exact-zero, sub-eps and ``-0.0`` structure."""
    w = rng.standard_normal((k, c, r, r)).astype(np.float32)
    w *= np.float32(10.0 ** rng.uniform(-3, 1))
    for axis, size in ((0, k), (1, c)):
        for g in rng.choice(size, size=rng.integers(0, size), replace=False):
            kind = rng.integers(3)
            idx = (g,) if axis == 0 else (slice(None), g)
            if kind == 0:
                w[idx] = 0.0
            elif kind == 1:
                w[idx] = -0.0
            else:               # nonzero but below the norm floor
                w[idx] *= np.float32(1e-14)
    w[rng.random(w.shape) < 0.05] = -0.0
    return w


def _graph(rng, layers, scaled):
    """A chain RGB -> conv0 -> conv1 ... over ``layers`` of
    ``(out_channels, kernel_size)``; each conv's weight is ``_weights``."""
    graph = ModelGraph()
    sid = graph.new_space(3, frozen=True, name="rgb")
    for i, (k, r) in enumerate(layers):
        c = graph.spaces[sid].size
        conv = Conv2d(c, k, r, padding=r // 2)
        conv.weight.data = _weights(rng, k, c, r)
        out = graph.new_space(k)
        graph.add_conv(f"conv{i}", conv, None, sid, out, 4)
        sid = out
    return graph, GroupLasso(graph, per_group_size_scaling=scaled)


def _prefill(rng, graph, prefilled):
    for node, full in zip(graph.convs, prefilled):
        p = node.conv.weight
        if not full:
            p.grad = None
            continue
        p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
        p.grad[rng.random(p.data.shape) < 0.1] = -0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       layers=st.lists(st.tuples(st.integers(1, 12), st.sampled_from([1, 3])),
                       min_size=1, max_size=4),
       scaled=st.booleans(),
       lam=st.floats(1e-6, 1.0),
       prefilled=st.lists(st.booleans(), min_size=4, max_size=4))
def test_add_gradients_equals_reference_bytes(seed, layers, scaled, lam,
                                              prefilled):
    grads = []
    for add in (reference_add_gradients, GroupLasso.add_gradients):
        rng = np.random.default_rng(seed)
        graph, gl = _graph(rng, layers, scaled)
        gl.lam = lam
        _prefill(rng, graph, prefilled)
        add(gl)
        grads.append([n.conv.weight.grad for n in graph.convs])
    for i, (want, got) in enumerate(zip(*grads)):
        assert got.dtype == want.dtype and got.shape == want.shape, i
        assert got.tobytes() == want.tobytes(), (i, layers[i])


def test_created_gradients_are_fresh_arrays():
    """A gradient created from an absent one shares memory with no other
    gradient (the scratch the terms were formed in is reused across convs),
    and a second call over growing and shrinking convs repeats the first."""
    rng = np.random.default_rng(0)
    graph, gl = _graph(rng, [(4, 3), (12, 3), (2, 1)], False)
    gl.lam = 0.01
    _prefill(rng, graph, [False] * 3)
    gl.add_gradients()
    grads = [n.conv.weight.grad for n in graph.convs]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    first = [g.copy() for g in grads]
    _prefill(rng, graph, [False] * 3)
    gl.add_gradients()
    for want, n in zip(first, graph.convs):
        assert n.conv.weight.grad.tobytes() == want.tobytes()

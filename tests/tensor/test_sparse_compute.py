"""Sparsity-aware compute paths (repro.tensor.sparse).

The contract under test: with ``sparse_compute`` on, dead-channel-skipping
forward GEMMs and compacted backward GEMMs may engage in compiled plans — but
only behind the measured cost-model gate (bit-parity probe + measured gain), and every
result must be bit-identical to the dense reference.  Dense remains the
default; a revived channel drops the conv back to dense mid-plan (sticky);
publishing an unchanged dead set never churns plans.
"""

import numpy as np
import pytest

from repro.nn import resnet20
from repro.optim import SGD
from repro.prune import DeadSetExporter, zero_sparsified_groups
from repro.prune.sparsity import conv_sparsity
from repro.tensor import Tensor, functional as F, workspace
from repro.tensor import sparse
from repro.tensor.compile import StepPlan, capture_training_step
from repro.tensor.ops import conv as conv_ops

from ..conftest import sparsify_space


@pytest.fixture(autouse=True)
def sparse_engine(optimized_engine):
    """Pin the optimized engine with sparse compute on and a zero gain bar
    (the gate then accepts whenever its bit-parity probe passes, which makes
    engagement deterministic on a given machine), with no live plan before
    and after each test."""
    cfg = optimized_engine
    workspace.invalidate()
    sparse.clear()
    sparse.STATS.reset()
    # mem_plan / parallel_replay pinned where they are: tests flip them
    with workspace.engine(sparse_compute=True, sparse_min_gain=0.0,
                          mem_plan=cfg.mem_plan,
                          parallel_replay=cfg.parallel_replay):
        yield
    sparse.clear()
    sparse.STATS.reset()
    workspace.invalidate()


# -- run-coalesced selection --------------------------------------------------

class TestRuns:
    def test_index_runs_coalesces(self):
        assert sparse.index_runs(np.array([0, 1, 2, 5, 7, 8])) == \
            [(0, 0, 3), (3, 5, 1), (4, 7, 2)]
        assert sparse.index_runs(np.array([], dtype=np.int64)) == []

    def test_roundtrip_gather(self, rng):
        src = rng.normal(size=(2, 10, 3))
        live = np.array([1, 2, 3, 6, 9])
        out = np.empty((2, live.size, 3))
        for d0, s0, ln in sparse.index_runs(live):
            out[:, d0:d0 + ln] = src[:, s0:s0 + ln]
        assert np.array_equal(out, src[:, live])

    def test_runs_any_ch(self):
        a = np.zeros((2, 6, 3))
        runs = sparse.index_runs(np.array([1, 2, 4]))
        assert not sparse.runs_any_ch(a, runs)
        a[1, 4, 2] = 1e-30
        assert sparse.runs_any_ch(a, runs)
        assert not sparse.runs_any_ch(a[0], sparse.index_runs(np.array([0])),
                                      axis=0)


# -- registry / publish -------------------------------------------------------

def _mask(size, dead):
    m = np.zeros(size, dtype=bool)
    m[list(dead)] = True
    return m


class TestPublish:
    def test_empty_publish_never_invalidates(self):
        w = Tensor(np.zeros((4, 4, 3, 3), np.float32))
        gen0 = workspace.PLAN_GENERATION
        changed = sparse.publish([(w, _mask(4, []), _mask(4, []))])
        assert not changed
        assert workspace.PLAN_GENERATION == gen0
        assert sparse.dead_set_for(w.data) is None

    def test_changed_publish_bumps_once_identical_is_free(self):
        w = Tensor(np.zeros((4, 4, 3, 3), np.float32))
        entries = [(w, _mask(4, [1]), _mask(4, [2, 3]))]
        gen0 = workspace.PLAN_GENERATION
        assert sparse.publish(entries)
        assert workspace.PLAN_GENERATION == gen0 + 1
        for _ in range(3):  # hysteresis contract: identical republish free
            assert not sparse.publish(entries)
        assert workspace.PLAN_GENERATION == gen0 + 1
        ds = sparse.dead_set_for(w.data)
        assert ds is not None and list(ds.in_dead) == [1] \
            and list(ds.out_dead) == [2, 3]

    def test_dead_set_for_validates_identity_and_shape(self):
        w = Tensor(np.zeros((4, 4, 3, 3), np.float32))
        sparse.publish([(w, _mask(4, [0]), _mask(4, []))])
        assert sparse.dead_set_for(w.data) is not None
        assert sparse.dead_set_for(w.data.copy()) is None
        w.data = np.zeros((3, 4, 3, 3), np.float32)  # surgery-style swap
        assert sparse.dead_set_for(w.data) is None

    def test_weights_dead_guard(self):
        w = np.zeros((4, 4, 3, 3), np.float32)
        ds = sparse.DeadSet.from_masks(_mask(4, [1]), _mask(4, [3]))
        assert sparse.weights_dead(w, ds)
        w[3, 0, 0, 0] = 1e-20
        assert not sparse.weights_dead(w, ds)


# -- eager steps stay dense ---------------------------------------------------

class TestEagerStaysDense:
    def test_eager_step_is_dense_and_counts_nothing(self, rng):
        """Sparse compute is a plan specialisation: with it armed and a dead
        set published, an eager conv (the capture step, ``profile=True``, a
        capture failure) runs the dense kernels — same bits as with the
        switch off, no gate probe, no sparse step counter touched."""
        c = k = 32          # wide enough to stay on the window gather
        dead_in, dead_out = (2, 3, 4, 10), (0, 1, 8, 9, 10, 11)
        x = rng.normal(size=(4, c, 12, 12)).astype(np.float32)
        w = rng.normal(size=(k, c, 3, 3)).astype(np.float32) * 0.1
        w[:, list(dead_in)] = 0.0
        w[list(dead_out)] = 0.0
        wt = Tensor(w)
        sparse.publish([(wt, _mask(c, dead_in), _mask(k, dead_out))])
        dy = rng.normal(size=(4, k, 12, 12)).astype(np.float32)
        dy[:, list(dead_out)] = 0.0
        counters = dict(sparse.STATS.as_dict(), decisions=None)

        def run():
            y, ctx = conv_ops.conv2d_forward(x, wt.data, None, 1, 1)
            assert ctx.form == "gather" and ctx.dead is None
            dx, dw, _ = conv_ops.conv2d_backward(
                dy, ctx, x.shape, wt.data, 1, 1,
                need_dx=True, need_db=False)
            return y, dx, dw

        armed = run()
        workspace.config.sparse_compute = False
        plain = run()
        workspace.config.sparse_compute = True
        for a, b in zip(armed, plain):
            assert np.array_equal(a, b)
        assert dict(sparse.STATS.as_dict(), decisions=None) == counters


# -- compiled-plan parity -----------------------------------------------------

def _dead_resnet(seed=3, kill_names=("s0b1.conv1", "s1b1.conv1"),
                 frac=0.5):
    """resnet20 with ~half the channels of two interior spaces hard-dead
    (weights + BN gamma/beta + any momentum), the way ``zero_sparse``
    reconfigurations leave them.  At 32/64/128 channels on 8x8/4x4/2x2 maps
    the killed convs and their consumers take the window gather — the one
    form with live-channel kernels; narrower ones would take the span
    form."""
    m = resnet20(6, width_mult=2.0, input_hw=8, seed=seed)
    g = m.graph
    for name in kill_names:
        node = g.conv_by_name(name)
        k = node.conv.weight.data.shape[0]
        kill = np.arange(k)[: int(k * frac)]
        sparsify_space(g, node.out_space, kill)
    zero_sparsified_groups(g, 1e-4)
    return m


def _publish_from_graph(m, threshold=1e-4):
    entries = []
    for node in m.graph.active_convs():
        sp = conv_sparsity(node, threshold)
        entries.append((node.conv.weight,
                        np.asarray(sp.in_sparse, dtype=bool),
                        np.asarray(sp.out_sparse, dtype=bool)))
    sparse.publish(entries)


def _batch(rng, n=8):
    x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 6, size=n)
    return x, y


def _eager_step(model, opt, x, y):
    logits = model(Tensor(x))
    loss = F.cross_entropy(logits, y)
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


class TestCompiledParity:
    @pytest.mark.parametrize("mem_plan,parallel", [(False, False),
                                                   (True, False),
                                                   (True, True)])
    def test_sparse_plan_bit_identical_to_dense_eager(self, mem_plan,
                                                      parallel):
        """Multi-step compiled-sparse run == eager-dense run, bitwise."""
        workspace.config.mem_plan = mem_plan
        workspace.config.parallel_replay = parallel
        rng = np.random.default_rng(0)
        batches = [_batch(rng) for _ in range(4)]

        workspace.config.sparse_compute = False
        m_e = _dead_resnet()
        o_e = SGD(m_e.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        losses_e = [_eager_step(m_e, o_e, x, y) for x, y in batches]
        workspace.config.sparse_compute = True

        m_c = _dead_resnet()
        _publish_from_graph(m_c)
        o_c = SGD(m_c.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        x0, y0 = batches[0]
        o_c.zero_grad()
        plan, loss_t, _, reason = capture_training_step(m_c, x0, y0)
        assert reason is None and isinstance(plan, StepPlan)
        loss_t.backward()
        o_c.step()
        losses_c = [float(loss_t.data)]
        for x, y in batches[1:]:
            assert plan.invalid_reason() is None
            o_c.zero_grad()
            loss_arr, _ = plan.run(x, y)
            o_c.step()
            losses_c.append(float(loss_arr))

        assert losses_e == losses_c
        for (n, pe), (_, pc) in zip(m_e.named_parameters(),
                                    m_c.named_parameters()):
            assert np.array_equal(pe.data, pc.data), n
            assert np.array_equal(o_e.state_for(pe), o_c.state_for(pc)), n
        st = sparse.STATS
        assert st.gate_accepts + st.gate_rejects >= 1
        if st.gate_accepts:
            assert st.fwd_sparse_steps >= 1

    def test_engine_sig_includes_sparse_flags(self):
        m = _dead_resnet()
        _publish_from_graph(m)
        rng = np.random.default_rng(1)
        x, y = _batch(rng)
        plan, loss_t, _, reason = capture_training_step(m, x, y)
        assert reason is None
        loss_t.backward()
        assert plan.invalid_reason() is None
        workspace.config.sparse_compute = False
        assert plan.invalid_reason() is not None
        workspace.config.sparse_compute = True
        assert plan.invalid_reason() is None

    def test_sticky_revival_mid_plan_stays_bit_exact(self):
        """A dead channel revived mid-interval: the plan must drop that
        conv to dense (sticky) and still match eager dense bitwise."""
        rng = np.random.default_rng(2)
        batches = [_batch(rng) for _ in range(3)]

        workspace.config.sparse_compute = False
        m_e = _dead_resnet()
        o_e = SGD(m_e.parameters(), lr=0.05, momentum=0.9)
        workspace.config.sparse_compute = True
        m_c = _dead_resnet()
        _publish_from_graph(m_c)
        o_c = SGD(m_c.parameters(), lr=0.05, momentum=0.9)

        x0, y0 = batches[0]
        o_c.zero_grad()
        plan, loss_t, _, reason = capture_training_step(m_c, x0, y0)
        assert reason is None
        loss_t.backward()
        o_c.step()
        workspace.config.sparse_compute = False
        losses_e = [_eager_step(m_e, o_e, x0, y0)]
        workspace.config.sparse_compute = True
        if sparse.STATS.gate_accepts == 0:   # the capture step itself is dense
            pytest.skip("gate rejected every conv on this machine")

        # revive one dead weight in BOTH models identically
        name = "s0b1.conv1"
        for mm in (m_e, m_c):
            w = mm.graph.conv_by_name(name).conv.weight.data
            w[0, 0, 0, 0] = 0.25
        fallbacks0 = sparse.STATS.fwd_dense_fallbacks
        for x, y in batches[1:]:
            o_c.zero_grad()
            loss_arr, _ = plan.run(x, y)
            o_c.step()
            workspace.config.sparse_compute = False
            losses_e.append(_eager_step(m_e, o_e, x, y))
            workspace.config.sparse_compute = True
            assert float(loss_arr) == losses_e[-1]
        assert sparse.STATS.fwd_dense_fallbacks > fallbacks0
        for (n, pe), (_, pc) in zip(m_e.named_parameters(),
                                    m_c.named_parameters()):
            assert np.array_equal(pe.data, pc.data), n

    def test_dw_live_runs_the_row_count_the_gate_probed(self, monkeypatch):
        """The plan's row-compacted ``dw`` GEMM must have the M the gate's
        parity probe ran — the published live-row count in the decision's
        signature — also on a step where more rows of ``dy`` are zero than
        were published (here: a live channel whose BN gamma/beta are zero)."""
        from repro.costmodel.time import SPARSE_GEMM
        calls = []

        def spy(x_shape, w, stride, padding, dtype, alloc, **kw):
            """The kernel set the builder asked for, its ``dw_live`` (built
            by the backward stage) logging the row count of every call."""
            ks = kernels(x_shape, w, stride, padding, dtype, alloc, **kw)
            ds, stage = kw.get("dead"), ks.backward
            if ds is None:
                return ks
            sig = (*x_shape, w.shape[0], *w.shape[2:], stride, padding,
                   ds.in_live.size, ds.out_live.size,
                   len(ds.in_live_runs), len(ds.out_live_runs))

            def backward(alloc, need_dx=True):
                stage(alloc, need_dx)
                real = ks.dw_live

                def dw_live(x, g3, row_runs):
                    calls.append((sig, sum(ln for *_, ln in row_runs)))
                    return real(x, g3, row_runs)
                ks.dw_live = dw_live
            ks.backward = backward
            return ks

        kernels = conv_ops.ConvKernels
        monkeypatch.setattr(conv_ops, "ConvKernels", spy)
        m = _dead_resnet()
        _publish_from_graph(m)
        bn = m.graph.conv_by_name("s0b1.conv1").bn
        bn.weight.data[-1] = bn.bias.data[-1] = 0.0   # zero row, unpublished
        rng = np.random.default_rng(5)
        x, y = _batch(rng)
        plan, loss_t, _, reason = capture_training_step(m, x, y)
        assert reason is None
        loss_t.backward()
        plan.run(*_batch(rng))
        if not calls:
            pytest.skip("gate accepted no dw pipeline on this machine")
        probed = {tuple(d["sig"]) for d in SPARSE_GEMM.decisions
                  if d["path"] == "dw" and d["accepted"]}
        for sig, rows in calls:
            assert sig in probed
            assert rows == sig[10]          # kl: the published live rows
        assert sparse.STATS.dw_sparse_steps == len(calls)

    def test_gate_decisions_are_recorded(self):
        m = _dead_resnet()
        _publish_from_graph(m)
        rng = np.random.default_rng(4)
        x, y = _batch(rng)
        plan, loss_t, _, reason = capture_training_step(m, x, y)
        assert reason is None
        loss_t.backward()
        decisions = sparse.STATS.as_dict()["decisions"]
        assert decisions, "gate ran but recorded nothing"
        for d in decisions:
            for key in ("sig", "path", "dense_ms", "sparse_ms", "parity",
                        "measured_gain", "accepted"):
                assert key in d
            if d["accepted"]:
                assert d["parity"]


# -- plan-churn hysteresis (satellite: oscillating channels) ------------------

class TestPlanChurnHysteresis:
    def test_oscillating_channel_does_not_thrash_plans(self):
        """A channel flipping across the threshold every scan must not bump
        PLAN_GENERATION more than once per reconfiguration interval."""
        m = _dead_resnet(kill_names=("s0b1.conv1",))
        g = m.graph
        exporter = DeadSetExporter(hysteresis=2)

        def scan_publish():
            sparse.publish([(node.conv.weight, si, so)
                            for node, si, so in exporter.scan(g, 1e-4)])

        # two scans establish the stable dead set: exactly one bump
        gen0 = workspace.PLAN_GENERATION
        scan_publish()
        scan_publish()
        assert workspace.PLAN_GENERATION == gen0 + 1

        # oscillate one *live* channel of another conv across the threshold
        w = g.conv_by_name("s1b1.conv1").conv.weight.data
        saved = w[0].copy()
        gen1 = workspace.PLAN_GENERATION
        for i in range(6):   # one simulated reconfiguration interval
            if i % 2 == 0:
                w[0] = 0.0                    # dips below threshold
            else:
                w[0] = saved                  # revives
            scan_publish()
        w[0] = saved
        # hysteresis holds the oscillator out of the published set entirely
        assert workspace.PLAN_GENERATION == gen1

    def test_stable_new_dead_channel_bumps_exactly_once(self):
        m = _dead_resnet(kill_names=("s0b1.conv1",))
        g = m.graph
        exporter = DeadSetExporter(hysteresis=2)

        def scan_publish():
            sparse.publish([(node.conv.weight, si, so)
                            for node, si, so in exporter.scan(g, 1e-4)])

        scan_publish()
        scan_publish()
        w = g.conv_by_name("s1b1.conv1").conv.weight.data
        w[0] = 0.0          # genuinely dies
        gen = workspace.PLAN_GENERATION
        for _ in range(4):  # stays dead for the rest of the interval
            scan_publish()
        assert workspace.PLAN_GENERATION == gen + 1

"""Compiled step plans: capture/replay bit-exactness, invalidation, fallback.

The contract under test (repro.tensor.compile): a StepPlan captured from one
eager step replays the *identical* floating-point computation — losses,
parameter gradients, BN running stats, everything — as a flat list of kernel
thunks, and retires itself (``invalid_reason``) whenever the network is
reconfigured or parameter shapes move.
"""

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.nn import resnet20
from repro.nn.module import Module
from repro.optim import SGD
from repro.tensor import Tensor, functional as F, no_grad, workspace
from repro.tensor.compile import (STATS, PlanCache, StepPlan, Tape,
                                  capture_forward, capture_training_step,
                                  train_step)


def _model(seed=3):
    return resnet20(6, width_mult=0.25, input_hw=8, seed=seed)


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
    return float(loss.data), logits.data.copy()


class TestTrainPlanBitExact:
    def test_replay_matches_eager_exactly(self):
        """Losses, params, and momentum identical over a multi-step run."""
        rng = np.random.default_rng(0)
        batches = [_batch(rng) for _ in range(4)]

        m_e = _model()
        o_e = SGD(m_e.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        losses_e = [_eager_step(m_e, o_e, x, y)[0] for x, y in batches]

        m_c = _model()
        o_c = SGD(m_c.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        x0, y0 = batches[0]
        o_c.zero_grad()
        plan, loss_t, logits_t, reason = capture_training_step(m_c, x0, y0)
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

    def test_bn_running_stats_track_eager(self):
        """Replay updates BN EMA in place exactly as the eager step does."""
        rng = np.random.default_rng(1)
        batches = [_batch(rng) for _ in range(3)]
        m_e, m_c = _model(), _model()
        o_e = SGD(m_e.parameters(), lr=0.05)
        o_c = SGD(m_c.parameters(), lr=0.05)
        for x, y in batches:
            _eager_step(m_e, o_e, x, y)
        x0, y0 = batches[0]
        o_c.zero_grad()
        plan, loss_t, _, _ = capture_training_step(m_c, x0, y0)
        loss_t.backward()
        o_c.step()
        for x, y in batches[1:]:
            o_c.zero_grad()
            plan.run(x, y)
            o_c.step()
        se, sc = m_e.state_dict(), m_c.state_dict()
        assert se.keys() == sc.keys()
        for k in se:
            assert np.array_equal(se[k], sc[k]), k

    def test_logits_and_grads_match_single_replay(self):
        rng = np.random.default_rng(2)
        x, y = _batch(rng)
        x2, y2 = _batch(rng)
        m_e, m_c = _model(), _model()
        # warm both models one eager step so replay hits non-capture state
        logits_e = m_e(Tensor(x2))
        loss_e = F.cross_entropy(logits_e, y2)
        m_e.zero_grad()
        loss_e.backward()

        plan, loss_t, _, reason = capture_training_step(m_c, x2, y2)
        assert reason is None
        loss_t.backward()
        assert float(loss_t.data) == float(loss_e.data)
        m_c.zero_grad()
        loss_arr, logits_arr = plan.run(x2, y2)
        assert np.array_equal(loss_arr, loss_e.data)
        assert np.array_equal(logits_arr, logits_e.data)
        for (n, pe), (_, pc) in zip(m_e.named_parameters(),
                                    m_c.named_parameters()):
            assert pe.grad is not None and pc.grad is not None, n
            assert np.array_equal(pe.grad, pc.grad), n


class _Pointwise(Module):
    """One 1x1 conv -> global average pool: logits are its channels."""

    def __init__(self, c, k, stride):
        super().__init__()
        from repro.nn.layers import Conv2d
        self.conv = Conv2d(c, k, 1, stride=stride, bias=True,
                           rng=np.random.default_rng(5))

    def forward(self, x):
        return F.global_avg_pool(self.conv(x))


class TestPointwiseWeightGradient:
    """The 1x1 plan thunk states its own dw; it must pick the form eager
    picks (``ops.conv.dw_folds``) on both sides of the predicate."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("c, k, hw, folds", [(4, 6, 8, False),
                                                 (12, 10, 2, True)])
    def test_replay_matches_eager(self, c, k, hw, folds, stride):
        from repro.tensor.ops.conv import conv_out_size, dw_folds
        ho, wo = conv_out_size(hw, hw, 1, 1, stride, 0)
        assert dw_folds(k, c, ho * wo) == folds
        rng = np.random.default_rng(11)
        m_e, m_c = _Pointwise(c, k, stride), _Pointwise(c, k, stride)
        x0 = rng.standard_normal((7, c, hw, hw)).astype(np.float32)
        y0 = rng.integers(0, k, size=7)
        plan, loss_t, _, reason = capture_training_step(m_c, x0, y0)
        assert reason is None, reason
        loss_t.backward()
        for _ in range(2):
            x = rng.standard_normal(x0.shape).astype(np.float32)
            y = rng.integers(0, k, size=7)
            m_e.zero_grad()
            F.cross_entropy(m_e(Tensor(x)), y).backward()
            m_c.zero_grad()
            plan.run(x, y)
            for (n, pe), (_, pc) in zip(m_e.named_parameters(),
                                        m_c.named_parameters()):
                assert np.array_equal(pe.grad, pc.grad), n


def _vgg_tail():
    """3->8 on 8x8 and 32->16 on 4x4 take the span form, 8->32 on 4x4 (too
    many filters for it) the window gather, the 2x2 and 1x1 tail unrolls."""
    from repro.nn.vgg import VGG
    return (VGG([8, "M", 32, 16, "M", 16, "M", 16], 6, input_hw=8, seed=2),
            8, 6, ["span", "gather", "span"] + ["unrolled"] * 2)


def _quick_r32():
    """QUICK ResNet-32: 20 span convs on 12x12 and 6x6 maps, the 3x3-map
    stage unrolled, two strided 3x3 convs on the window gather and the two
    1x1 shortcuts."""
    from repro.experiments.configs import QUICK, make_model
    stage = ["pointwise", "gather"]
    return (make_model("resnet32", "cifar10s", QUICK, seed=0), QUICK.hw, 10,
            ["span"] * 11 + stage + ["span"] * 9 + stage + ["unrolled"] * 9)


class TestUnrolledStages:
    """Nets whose convs take every form of the lowering side by side
    (``ops.conv.conv_form``), in eager and in the plan alike."""

    def test_three_sgd_steps_match_eager(self):
        self._three_steps(_vgg_tail)

    def test_three_sgd_steps_match_eager_on_quick_resnet32(self):
        self._three_steps(_quick_r32)

    @staticmethod
    def _three_steps(build):
        rng = np.random.default_rng(7)
        m_e, hw, classes, forms = build()
        batches = [(rng.standard_normal((8, 3, hw, hw)).astype(np.float32),
                    rng.integers(0, classes, size=8)) for _ in range(3)]

        o_e = SGD(m_e.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        losses_e = [_eager_step(m_e, o_e, x, y)[0] for x, y in batches]

        m_c = build()[0]
        o_c = SGD(m_c.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        o_c.zero_grad()
        plan, loss_t, _, reason = capture_training_step(m_c, *batches[0])
        assert reason is None, reason
        assert [f[-1] for f in plan.conv_forms()] == forms
        loss_t.backward()
        o_c.step()
        losses_c = [float(loss_t.data)]
        for x, y in batches[1:]:
            o_c.zero_grad()
            losses_c.append(float(plan.run(x, y)[0]))
            o_c.step()

        assert losses_e == losses_c
        for (n, pe), (_, pc) in zip(m_e.named_parameters(),
                                    m_c.named_parameters()):
            assert np.array_equal(pe.data, pc.data), n
            assert np.array_equal(o_e.state_for(pe), o_c.state_for(pc)), n


class TestReplayTimed:
    def test_serial_plan_reports_every_thunk(self):
        rng = np.random.default_rng(4)
        x0, y0 = _batch(rng)
        x, y = _batch(rng)
        m_a, m_b = _model(), _model()
        plans = []
        for m in (m_a, m_b):
            plan, loss_t, _, reason = capture_training_step(m, x0, y0)
            assert reason is None, reason
            loss_t.backward()
            m.zero_grad()
            plans.append(plan)
        loss, logits = plans[0].run(x, y)
        loss_t, logits_t, seconds = plans[1].replay_timed(x, y)
        # the same replay ...
        assert np.array_equal(loss, loss_t)
        assert np.array_equal(logits, logits_t)
        for (n, pa), (_, pb) in zip(m_a.named_parameters(),
                                    m_b.named_parameters()):
            assert np.array_equal(pa.grad, pb.grad), n
        # ... attributed thunk by thunk: forwards in op order, then backwards
        phases = [ph for _, ph, _ in seconds]
        n_fwd = phases.count("fwd")
        assert n_fwd == plans[1]._n_ops
        assert phases == ["fwd"] * n_fwd + ["bwd"] * (len(phases) - n_fwd)
        kinds = {(kind, ph) for kind, ph, _ in seconds}
        assert {("conv2d", "fwd"), ("conv2d", "bwd"),
                ("cross_entropy", "bwd")} <= kinds
        assert all(s >= 0.0 for _, _, s in seconds)

    def test_forward_plan_is_refused(self):
        model = _model()
        model.eval()
        x, y = _batch(np.random.default_rng(5))
        plan, _, reason = capture_forward(model, x)
        assert reason is None
        with pytest.raises(RuntimeError, match="training plan"):
            plan.replay_timed(x, y)


class TestForwardPlan:
    def test_eval_replay_matches_eager(self):
        rng = np.random.default_rng(3)
        x, _ = _batch(rng)
        x2, _ = _batch(rng)
        model = _model()
        model.eval()
        plan, logits_t, reason = capture_forward(model, x)
        assert reason is None and plan.kind == "forward"
        with no_grad():
            ref = model(Tensor(x2)).data
        out = plan.run_forward(x2)
        assert np.array_equal(out, ref)
        assert np.array_equal(logits_t.data, plan.run_forward(x))


class TestInvalidation:
    def test_generation_bump_retires_plan(self):
        rng = np.random.default_rng(4)
        x, y = _batch(rng)
        plan, loss_t, _, reason = capture_training_step(_model(), x, y)
        assert reason is None
        loss_t.backward()
        assert plan.invalid_reason() is None
        workspace.invalidate()          # what channel surgery calls
        assert "reconfigured" in plan.invalid_reason()

    def test_parameter_shape_change_retires_plan(self):
        rng = np.random.default_rng(6)
        x, y = _batch(rng)
        model = _model()
        plan, loss_t, _, _ = capture_training_step(model, x, y)
        loss_t.backward()
        p = model.parameters()[0]
        old = p.data
        p.data = old[:-1]               # simulate surgery without invalidate
        assert "parameter shape" in plan.invalid_reason()
        p.data = old

    def test_load_state_dict_bumps_generation(self):
        model = _model()
        state = model.state_dict()
        gen = workspace.PLAN_GENERATION
        model.load_state_dict(state)
        assert workspace.PLAN_GENERATION > gen


class TestFallback:
    def test_unrecorded_op_fails_capture_cleanly(self):
        """A graph op without a capture hook falls back, never crashes."""

        class Scaled(Module):
            def __init__(self):
                super().__init__()
                self.inner = _model()

            def forward(self, x):
                y = self.inner(x)            # an op with no capture hook
                return Tensor._make(y.data * 2.0, (y,),
                                    lambda g: y._accumulate(g * 2.0))

        rng = np.random.default_rng(7)
        x, y = _batch(rng)
        STATS.reset()
        plan, loss_t, logits_t, reason = capture_training_step(
            Scaled(), x, y)
        assert plan is None and reason
        assert STATS.fallbacks == 1
        assert STATS.last_fallback_reason == reason
        # the capture batch is still a perfectly good eager step
        loss_t.backward()
        assert logits_t.data.shape == (8, 6)

    def test_nested_capture_raises(self):
        with Tape():
            with pytest.raises(RuntimeError):
                Tape().__enter__()
        # outer context exited cleanly: a fresh capture works again
        rng = np.random.default_rng(8)
        x, y = _batch(rng)
        plan, loss_t, _, reason = capture_training_step(_model(), x, y)
        assert reason is None
        loss_t.backward()


class TestPerThreadState:
    def test_another_threads_no_grad_op_stays_in_its_thread(self):
        """Autograd's switch and the capture tape belong to the thread that
        set them.  A second thread that runs an op under ``no_grad`` in the
        middle of this thread's captured training step neither lands in the
        capture (which would fail closed: its input was produced by no
        recorded op) nor switches off this thread's gradients."""
        x, y = _batch(np.random.default_rng(9))
        go, ran, release = (threading.Event() for _ in range(3))

        def other():
            with no_grad():
                go.wait(10)
                F.relu(Tensor(x))
                ran.set()
                release.wait(10)        # no_grad stays on through the step

        class Interleaved(Module):
            def __init__(self):
                super().__init__()
                self.inner = _model()

            def forward(self, t):
                go.set()
                ran.wait(10)
                return self.inner(t)

        model = Interleaved()
        thread = threading.Thread(target=other)
        thread.start()
        try:
            plan, loss_t, _, reason = capture_training_step(model, x, y)
            loss_t.backward()
        finally:
            release.set()
            thread.join(10)
        assert ran.is_set() and not thread.is_alive()
        lost = [name for name, p in model.named_parameters() if p.grad is None]
        assert (reason, lost) == (None, [])
        grads = [p.grad for p in model.parameters()]
        model.zero_grad()
        plan.run(x, y)
        for p, g in zip(model.parameters(), grads):
            assert np.array_equal(p.grad, g)


def _captured_plan(seed=7):
    x, y = _batch(np.random.default_rng(seed))
    plan, loss_t, _, reason = capture_training_step(_model(), x, y)
    assert reason is None
    loss_t.backward()
    return plan


@contextmanager
def _reshaped(plan):
    """Shrink one of ``plan``'s parameters for a block, as surgery without
    an ``invalidate()`` would: the plan is stale until the shape is back."""
    param, _ = plan._leaf_shapes[0]
    old = param.data
    param.data = old[:-1]
    try:
        yield
    finally:
        param.data = old


class TestPlanCache:
    def test_store_lookup_and_sentinels(self):
        cache = PlanCache()
        key = ("train", (8, 3, 8, 8))
        assert cache.store(key, None, "unsupported op") == "unsupported op"
        assert cache.lookup(key) is None
        assert cache.sealed(key) == "unsupported op"
        assert cache.store(("bare",), None, None) == "capture failed"
        plan = _captured_plan()
        assert cache.store(("plan",), plan, None) is None
        assert cache.lookup(("plan",)) is plan
        assert cache.sealed(("plan",)) is None
        assert cache.lookup(("train", (16, 3, 8, 8))) is None
        assert cache.sealed(("train", (16, 3, 8, 8))) is None
        assert len(cache) == 3

    def test_generation_bump_clears(self):
        cache = PlanCache()
        cache.store(("k",), None, "x")
        workspace.invalidate()
        assert cache.sealed(("k",)) is None
        assert len(cache) == 0

    def test_lookup_drops_stale_plan(self):
        """A plan a parameter reshape staled is never returned: the lookup
        drops it, so it stays gone once the shape is restored."""
        cache = PlanCache()
        plan = _captured_plan()
        cache.store(("k",), plan, None)
        with _reshaped(plan):
            assert cache.lookup(("k",)) is None
        assert plan.invalid_reason() is None
        assert cache.lookup(("k",)) is None and len(cache) == 0
        # an unpinned cache does not own the buffers: nothing released
        assert not plan.pinned and not plan._released

    def test_pinned_cache_releases_dropped_plan(self):
        from repro.tensor import memplan
        cache = PlanCache(pinned=True)
        plan = _captured_plan()
        cache.store(("k",), plan, None)
        assert plan.pinned
        workspace.invalidate()     # pinned: no generation sweep
        assert cache.lookup(("k",)) is plan
        base = memplan.live_arena_count()
        with _reshaped(plan):
            assert cache.lookup(("k",)) is None
            assert plan._released
            assert memplan.live_arena_count() == base - 1
        assert len(cache) == 0

    def test_sealed_reason_survives_lookup_until_generation_bump(self):
        cache = PlanCache()
        cache.store(("k",), None, "unsupported op")
        for _ in range(3):
            assert cache.lookup(("k",)) is None
            assert cache.sealed(("k",)) == "unsupported op"
        workspace.invalidate()
        assert cache.sealed(("k",)) is None

    def test_entry_cap_evicts_least_recently_used(self):
        cache = PlanCache(max_entries=2)
        cache.store(("a",), None, "1")
        cache.store(("b",), None, "2")
        assert cache.sealed(("a",)) == "1"   # refresh "a": "b" is now LRU
        cache.store(("c",), None, "3")
        assert cache.sealed(("b",)) is None  # evicted
        assert cache.sealed(("a",)) == "1"
        assert cache.sealed(("c",)) == "3"
        assert cache.evictions == 1 and len(cache) == 2

    def test_restore_refreshes_lru_position(self):
        cache = PlanCache(max_entries=2)
        cache.store(("a",), None, "1")
        cache.store(("b",), None, "2")
        cache.store(("a",), None, "10")      # re-store also refreshes
        cache.store(("c",), None, "3")
        assert cache.sealed(("b",)) is None
        assert cache.sealed(("a",)) == "10"

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_store_after_generation_bump_purges_stale_entries(self):
        """Regression: a store right after a reconfiguration must not
        re-stamp plans captured in the previous generation as current."""
        cache = PlanCache()
        cache.store(("old",), None, "stale")
        workspace.invalidate()
        cache.store(("new",), None, "fresh")  # no lookup in between
        assert cache.sealed(("old",)) is None
        assert cache.sealed(("new",)) == "fresh"
        assert len(cache) == 1

    def test_generation_bumps_race_plan_cache(self):
        """Concurrent invalidate + PlanCache traffic, as the serving tier's
        dispatch thread makes it: no lost bumps, no stale entries surviving
        a bump observed by the cache."""
        cache = PlanCache(max_entries=16)
        start = workspace.plan_generation()
        bumps = 200
        stop = threading.Event()
        errors = []

        def bumper():
            for _ in range(bumps):
                workspace.invalidate()
            stop.set()

        def churner():
            i = 0
            try:
                while not stop.is_set():
                    cache.store(("k", i % 4), None, "unsupported op")
                    cache.lookup(("k", (i + 1) % 4))
                    len(cache)
                    i += 1
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=bumper)] + \
            [threading.Thread(target=churner) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert workspace.plan_generation() == start + bumps
        cache.purge_stale()
        assert cache._generation == workspace.plan_generation()


class TestTrainStep:
    """``train_step``'s four paths — capture-and-finish, replay, sealed key
    and no cache — each leave loss, logits, ``.grad`` and BN running stats
    bit-equal to an eager step on a twin model."""

    @staticmethod
    def _eager(model, x, y):
        model.zero_grad()
        logits = model(Tensor(x))
        loss = F.cross_entropy(logits, y)
        loss.backward()
        return loss.item(), logits.data

    @staticmethod
    def _assert_equal(got, ref, model, twin):
        assert got[0] == ref[0] and got[1].tobytes() == ref[1].tobytes()
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     twin.named_parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name
        state, twin_state = model.state_dict(), twin.state_dict()
        for name in state:
            assert state[name].tobytes() == twin_state[name].tobytes(), name

    def test_four_paths_equal_eager(self):
        x, y = _batch(np.random.default_rng(0))
        model, twin = _model(), _model()
        plans = PlanCache()
        sealed = PlanCache()
        sealed.store((x.shape, x.dtype.str, y.shape, y.dtype.str), None,
                     "unsupported op")
        paths = [("capture", plans), ("replay", plans),
                 ("sealed", sealed), ("eager", None)]
        for path, cache in paths:
            captures, replays = STATS.captures, STATS.replays
            model.zero_grad()
            got = train_step(model, x, y, cache)
            self._assert_equal(got, self._eager(twin, x, y), model, twin)
            captured = got[2]
            if path == "capture":
                assert isinstance(captured[0], StepPlan)
                assert captured[1] is None
            else:
                assert captured is None
            assert STATS.captures == captures + (path == "capture"), path
            assert STATS.replays == replays + (path == "replay"), path


def test_one_step_protocol():
    """The compiled-step protocol is written once: outside ``compile.py``
    nothing in ``src/`` calls ``capture_training_step``, and only the
    serving registry (which pads between the sealed check and the capture)
    calls ``PlanCache.lookup/sealed/store``."""
    import ast
    import pathlib
    from repro.tensor import compile as C
    compile_py = pathlib.Path(C.__file__)
    offenders = []
    for path in sorted(compile_py.parents[1].rglob("*.py")):
        if path == compile_py:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            cache_call = (isinstance(node.func, ast.Attribute)
                          and node.func.attr in ("lookup", "sealed", "store")
                          and path.parent.name + "/" + path.name
                          != "serve/registry.py")
            if func.endswith("capture_training_step") or cache_call:
                offenders.append(f"{path.name}:{node.lineno} {func}")
    assert not offenders, offenders


def test_plan_cache_protocol_is_stated_only_in_compile():
    """Replay / drop-stale / sealed-failure / capture is decided once, in
    ``PlanCache``: no other ``src/`` module asks a plan ``invalid_reason()``
    or type-tests what a cache lookup returned."""
    import ast
    import pathlib
    from repro.tensor import compile as C
    compile_py = pathlib.Path(C.__file__)
    offenders = []
    for path in sorted(compile_py.parents[1].rglob("*.py")):
        if path == compile_py:
            continue
        tree = ast.parse(path.read_text())
        cached = {t.id for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Attribute)
                  and node.value.func.attr in ("lookup", "sealed")
                  for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func.endswith(".invalid_reason") or func == "isinstance" and (
                    ast.unparse(node.args[0]) in cached
                    or "StepPlan" in ast.unparse(node.args[1])):
                offenders.append(f"{path.name}:{node.lineno} "
                                 f"{ast.unparse(node)}")
    assert not offenders, offenders


def test_stats_surface_in_profiler_summary():
    from repro.profiler import PROFILER
    assert "_plans" in PROFILER.summary()
    d = STATS.as_dict()
    assert set(d) == {"captures", "capture_seconds", "replays",
                      "replay_seconds", "fallbacks", "last_fallback_reason"}

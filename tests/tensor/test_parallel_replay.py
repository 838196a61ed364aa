"""Level-scheduled parallel replay: bit-exactness, schedule soundness,
concurrency-aware arena packing, and thread-safety regressions.

The contract under test (repro.tensor.parallel + the schedule surgery in
repro.tensor.compile): a train plan replayed on the worker pool produces
bit-identical results to serial replay — same losses, same parameter
gradients, same BN running stats — because the schedule pins every
floating-point accumulation order and the arena packer never lets
co-scheduled thunks share bytes.
"""

import threading

import numpy as np
import pytest

from repro.nn import resnet20
from repro.optim import SGD
from repro.tensor import workspace
from repro.tensor import compile as C
from repro.tensor import parallel as par
from repro.tensor.compile import StepPlan, capture_training_step


# Compiled plans exist only on the optimized engine; pin it so these tests
# check the plans they are about, whatever engine the CI leg selected.
pytestmark = pytest.mark.usefixtures("optimized_engine")


@pytest.fixture(autouse=True)
def _restore_engine():
    """``_capture`` leaves its switches set for the replays that follow; a
    pin at the current values puts them back after each test."""
    cfg = workspace.config
    with workspace.engine(parallel_replay=cfg.parallel_replay,
                          replay_workers=cfg.replay_workers,
                          mem_plan=cfg.mem_plan):
        yield
    workspace.invalidate()


def _model(seed=3):
    return resnet20(6, width_mult=0.25, input_hw=8, seed=seed)


def _batch(rng, n=8):
    x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 6, size=n)
    return x, y


def _capture(parallel, workers=4, mem_plan=True, seed=3, batch=None):
    """Fresh model + plan captured under the requested engine config."""
    workspace.invalidate()
    workspace.config.parallel_replay = parallel
    workspace.config.replay_workers = workers
    workspace.config.mem_plan = mem_plan
    m = _model(seed)
    x, y = batch
    plan, loss, logits, reason = capture_training_step(m, x, y)
    assert reason is None and isinstance(plan, StepPlan)
    # Finish the capture step the way the trainer would.
    loss.backward()
    for p in m.parameters():
        p.grad = None
    return m, plan


def _run_steps(m, plan, batches):
    """Replay with an optimizer; returns (losses, grads-of-last-step)."""
    opt = SGD(m.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
    losses = []
    for x, y in batches:
        assert plan.invalid_reason() is None
        opt.zero_grad()
        loss, _ = plan.run(x, y)
        opt.step()
        losses.append(loss.copy())
    grads = {n: p.grad.copy() for n, p in m.named_parameters()}
    return losses, grads


def _bn_stats(m):
    return {n: (mod.running_mean.copy(), mod.running_var.copy())
            for n, mod in m.named_modules() if hasattr(mod, "running_mean")}


class TestParallelBitExact:
    @pytest.mark.parametrize("mem_plan", [True, False],
                             ids=["planned", "unplanned"])
    def test_matches_serial_over_steps(self, mem_plan):
        """Weights, grads, BN stats, and losses identical after 5 steps."""
        rng = np.random.default_rng(0)
        batches = [_batch(rng) for _ in range(5)]
        ms, ps = _capture(False, mem_plan=mem_plan, batch=batches[0])
        losses_s, grads_s = _run_steps(ms, ps, batches)

        mp, pp = _capture(True, mem_plan=mem_plan, batch=batches[0])
        assert pp._levels is not None and len(pp._levels) > 1
        losses_p, grads_p = _run_steps(mp, pp, batches)

        for a, b in zip(losses_s, losses_p):
            assert np.array_equal(a, b)
        for (n, a), (_, b) in zip(sorted(grads_s.items()),
                                  sorted(grads_p.items())):
            assert np.array_equal(a, b), n
        for (n, ws_), (_, wp) in zip(ms.named_parameters(),
                                     mp.named_parameters()):
            assert np.array_equal(ws_.data, wp.data), n
        for (n, (rm_s, rv_s)), (_, (rm_p, rv_p)) in zip(
                sorted(_bn_stats(ms).items()), sorted(_bn_stats(mp).items())):
            assert np.array_equal(rm_s, rm_p), n
            assert np.array_equal(rv_s, rv_p), n

    def test_flat_bwd_matches_unsplit(self):
        """The split dw/dx/fin parts in serial order are bit-equivalent to
        the single-thunk backward (the serial cross-check of the split).

        Unplanned build only: a *planned* parallel plan's arena is packed
        against level liveness, which the flat serial order does not
        respect (that replay path is forbidden for planned plans).
        """
        rng = np.random.default_rng(4)
        batches = [_batch(rng) for _ in range(3)]
        ms, ps = _capture(False, mem_plan=False, batch=batches[0])
        losses_s, grads_s = _run_steps(ms, ps, batches)

        # Parallel-captured plan, but replayed through the *flat* serial
        # lists (what run() uses when levels are disabled post-capture).
        mp, pp = _capture(True, mem_plan=False, batch=batches[0])
        assert any(len(parts) == 3 for parts in pp._schedule.bwd_parts)
        pp._levels = None
        losses_f, grads_f = _run_steps(mp, pp, batches)
        for a, b in zip(losses_s, losses_f):
            assert np.array_equal(a, b)
        for (n, a), (_, b) in zip(sorted(grads_s.items()),
                                  sorted(grads_f.items())):
            assert np.array_equal(a, b), n


class TestScheduleSoundness:
    def test_every_edge_crosses_levels(self):
        rng = np.random.default_rng(1)
        _, plan = _capture(True, batch=_batch(rng))
        g = plan._schedule.graph
        g.validate()
        assert sum(len(l) for l in g.levels) == g.n_nodes
        # Some level must actually be parallel, or the feature is inert.
        assert max(len(l) for l in g.levels) >= 2

    def test_shared_staging_conv_splits_with_dx_first(self):
        """A span conv's ``dy`` columns feed ``dw`` and ``dx`` alike: its
        backward still splits — ``dw`` stays off the critical chain — but
        the ``dx`` part (which gathers) is created, and levelled, first."""
        rng = np.random.default_rng(1)
        _, plan = _capture(True, batch=_batch(rng))
        g = plan._schedule.graph
        parts = {}
        for node, name in enumerate(g.names):       # node-id = serial order
            if name[0] == "b" and name.endswith(":conv2d"):
                j, _, part = name[1:-len(":conv2d")].partition(".")
                parts.setdefault(int(j), []).append((part, node))
        convs = [parts[j] for j in sorted(parts)]   # backward order
        forms = [row[-1] for row in reversed(plan.conv_forms())]
        assert len(convs) == len(forms) and "span" in forms[:-1]
        assert [p for p, _ in convs[-1]] == [""]    # first layer: no dx
        for conv, form in zip(convs[:-1], forms[:-1]):
            order = ["dx", "dw", "fin"] if form == "span" \
                else ["dw", "dx", "fin"]
            assert [p for p, _ in conv] == order, form
            if form == "span":
                level = {p: g.level_of[n] for p, n in conv}
                assert level["dx"] < level["dw"] < level["fin"]

    def test_level_count_matches_plan(self):
        rng = np.random.default_rng(2)
        _, plan = _capture(True, batch=_batch(rng))
        assert len(plan._levels) == len(plan._schedule.graph.levels)
        n_thunks = sum(len(l) for l in plan._levels)
        assert n_thunks == len(plan._fwd) + 1 + len(plan._bwd)

    def test_coscheduled_slabs_never_share_bytes(self):
        """Arena invariant: two non-aliasing slabs whose remapped level
        intervals overlap must occupy disjoint byte ranges."""
        rng = np.random.default_rng(3)
        _, plan = _capture(True, batch=_batch(rng))
        mem = plan._mem
        assert mem is not None, "planned build expected"
        roots = [s for s in mem.slabs if s.alias_of is None]
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                if a.start <= b.end and b.start <= a.end:
                    disjoint = (a.offset + a.nbytes <= b.offset
                                or b.offset + b.nbytes <= a.offset)
                    assert disjoint, (a.tag, b.tag)

    def test_growth_guard_serializes_instead_of_growing(self, monkeypatch):
        """With a zero growth allowance every parallel level that inflates
        the arena is serialized, and replay stays exact."""
        rng = np.random.default_rng(5)
        batches = [_batch(rng, n=16) for _ in range(2)]
        ms, ps = _capture(False, batch=batches[0])
        serial_arena = ps._mem.metrics()["arena_bytes"]
        losses_s, grads_s = _run_steps(ms, ps, batches)

        monkeypatch.setattr(C, "_ARENA_GROWTH_CAP", 1.0)
        monkeypatch.setattr(C, "_ARENA_GROWTH_FLOOR", 0)
        before = par.STATS.levels_serialized
        mp, pp = _capture(True, batch=batches[0])
        assert pp._mem.metrics()["arena_bytes"] <= serial_arena \
            or par.STATS.levels_serialized > before
        losses_p, grads_p = _run_steps(mp, pp, batches)
        for a, b in zip(losses_s, losses_p):
            assert np.array_equal(a, b)
        for (n, a), (_, b) in zip(sorted(grads_s.items()),
                                  sorted(grads_p.items())):
            assert np.array_equal(a, b), n


class TestLevelSchedule:
    def test_longest_path_levels(self):
        g = par.LevelSchedule()
        a, b, c, d = (g.add_node(s) for s in "abcd")
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(b, d)
        g.add_edge(c, d)
        levels = g.compute_levels()
        assert levels == [[a], [b, c], [d]]
        g.validate()

    def test_rejects_backward_edge(self):
        g = par.LevelSchedule()
        a = g.add_node("a")
        b = g.add_node("b")
        with pytest.raises(ValueError):
            g.add_edge(b, a)

    def test_serialize_level_chains_nodes(self):
        g = par.LevelSchedule()
        a, b, c = (g.add_node(s) for s in "abc")
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.compute_levels()
        assert g.widest_level() == 1
        g.serialize_level(1)
        assert [len(l) for l in g.levels] == [1, 1, 1]
        assert g.widest_level() == -1
        g.validate()


class TestWorkerPool:
    def test_exceptions_reach_caller_and_pool_survives(self):
        pool = par.WorkerPool(3)
        try:
            hits = []

            def ok():
                hits.append(1)

            def boom():
                raise RuntimeError("thunk failed")

            with pytest.raises(RuntimeError, match="thunk failed"):
                pool.run_level([ok, boom, ok])
            assert len(hits) == 2
            hits.clear()
            pool.run_level([ok, ok, ok, ok])
            assert len(hits) == 4
        finally:
            pool.close()

    def test_single_task_runs_inline(self):
        pool = par.WorkerPool(2)
        try:
            ident = []
            pool.run_level([lambda: ident.append(threading.get_ident())])
            assert ident == [threading.get_ident()]
        finally:
            pool.close()

    def test_all_tasks_run_once(self):
        pool = par.WorkerPool(4)
        try:
            counts = [0] * 64
            for _ in range(20):
                def mk(i):
                    return lambda: counts.__setitem__(i, counts[i] + 1)
                pool.run_level([mk(i) for i in range(64)])
            assert counts == [20] * 64
        finally:
            pool.close()


class TestThreadSafetyRegressions:
    def test_generation_bumps_race_plan_cache(self):
        """Concurrent invalidate + PlanCache traffic: no lost bumps,
        no stale entries surviving a bump observed by the cache."""
        cache = C.PlanCache(max_entries=16)
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

"""Workload-independent probes of the traced run: kernel micro-timings at
fixed shapes (``tensor.ops``) and the cumulative configuration ladder.

Both are measured the way the rest of the repository learned to measure on
this host: every contender takes turns inside one interleaved session and
the median over rounds is reported, so all numbers of one probe share a
baseline.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.experiments.configs import make_model
from repro.optim import SGD
from repro.prune import zero_sparsified_groups
from repro.prune.sparsity import DEFAULT_THRESHOLD, conv_sparsity
from repro.tensor import Tensor, sparse, workspace
from repro.tensor import functional as F
from repro.tensor.compile import capture_training_step
from repro.tensor.ops import conv as conv_ops
from repro.tensor.ops import norm as norm_ops

from benchctx import Ctx, sparsify

BATCH = 32

#: name -> (c_in, hw, c_out, kernel, stride, pad).  Small shapes are the
#: ResNet-32 QUICK population (dispatch-bound), wide ones the VGG-13 one
#: (kernel-bound).
CONV_SHAPES = {
    "conv3x3_c6_hw12": (6, 12, 6, 3, 1, 1),
    "conv3x3_c12_s2": (6, 12, 12, 3, 2, 1),
    "conv1x1_c24": (24, 6, 24, 1, 1, 0),
    "conv3x3_c128_hw8": (128, 8, 128, 3, 1, 1),
    "conv3x3_c512_hw2": (512, 2, 512, 3, 1, 1),
}
#: name -> (channels, hw)
BNRELU_SHAPES = {"bnrelu_c24": (24, 6), "bnrelu_c128": (128, 8)}


def _interleaved_medians(runs: Dict[str, Callable[[], None]], rounds: int,
                         warmup: int = 2) -> Dict[str, float]:
    """Median seconds per call, all contenders taking turns each round."""
    for run in runs.values():
        for _ in range(warmup):
            run()
    times: Dict[str, List[float]] = {name: [] for name in runs}
    for _ in range(rounds):
        for name, run in runs.items():
            t0 = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


# -- tensor.ops -----------------------------------------------------------------

def _conv_case(rng, ci, hw, co, k, stride, pad) -> Tuple[Callable, float, float]:
    x = rng.standard_normal((BATCH, ci, hw, hw), dtype=np.float32)
    w = rng.standard_normal((co, ci, k, k), dtype=np.float32)
    ho, wo = conv_ops.conv_out_size(hw, hw, k, k, stride, pad)
    dy = rng.standard_normal((BATCH, co, ho, wo), dtype=np.float32)

    def run():
        _, ctx = conv_ops.conv2d_forward(x, w, None, stride, pad)
        dx, _, _ = conv_ops.conv2d_backward(dy, ctx, x.shape, w, stride, pad)
        workspace.release(dx)
        conv_ops.release_ctx(ctx)

    # computed, not measured: one forward GEMM + the dx and dw GEMMs; each
    # of x, w, y is read or written three times across the three passes
    flops = 3 * 2.0 * BATCH * ho * wo * co * ci * k * k
    nbytes = 3 * 4.0 * (x.size + w.size + dy.size)
    return run, flops, nbytes


def _bnrelu_case(rng, c, hw) -> Tuple[Callable, float, float]:
    shape = (BATCH, c, hw, hw)
    x = rng.standard_normal(shape, dtype=np.float32)
    dy = rng.standard_normal(shape, dtype=np.float32)
    gamma, beta = np.ones(c, np.float32), np.zeros(c, np.float32)
    rm, rv = np.zeros(c, np.float32), np.ones(c, np.float32)

    def run():
        _, cache = norm_ops.batchnorm_forward(
            x, gamma, beta, rm, rv, 0.1, 1e-5, True, relu=True)
        norm_ops.batchnorm_backward(dy, cache)

    # computed: ~8 flops/element forward (two moments, normalise, affine,
    # relu) and ~12 backward; x read twice + y written, dy and x read + dx
    flops = 20.0 * x.size
    nbytes = 4.0 * 6 * x.size
    return run, flops, nbytes


def put_ops_probes(ctx: Ctx) -> None:
    rng = np.random.default_rng(ctx.subseed("ops-probes"))
    runs, computed = {}, {}
    for name, shape in CONV_SHAPES.items():
        runs[name], *computed[name] = _conv_case(rng, *shape)
    for name, shape in BNRELU_SHAPES.items():
        runs[name], *computed[name] = _bnrelu_case(rng, *shape)
    # 11 rounds: the widest shape takes 0.2 s a call, and this probe runs
    # at the end of every per-layer run
    medians = _interleaved_medians(runs, rounds=5 if ctx.smoke else 11,
                                   warmup=1)
    for name, seconds in medians.items():
        ctx.put(f"ops.{name}_ms", 1e3 * seconds, "ms")
        ctx.put(f"ops.{name}_flops", computed[name][0], "count")
        ctx.put(f"ops.{name}_bytes", computed[name][1], "count")


# -- configuration ladder (ROADMAP 1b) ---------------------------------------------

DEAD_FRAC = 0.7


def _ladder_model(scale, seed: int, mask_seed: int):
    """The workload's epoch-0 ResNet-32 in a zero-sparse state: a seeded
    ``DEAD_FRAC`` of every prunable channel space hard-zeroed, no surgery.
    Dense rungs pay full cost on it; the sparse rung may skip the zeros."""
    model = make_model("resnet32", "cifar10s", scale, seed=seed)
    sparsify(model, DEAD_FRAC, mask_seed)
    zero_sparsified_groups(model.graph, DEFAULT_THRESHOLD)
    return model


def _dead_fraction(model) -> float:
    dead = total = 0
    for node in model.graph.active_convs():
        sp = conv_sparsity(node, DEFAULT_THRESHOLD)
        dead += int(np.sum(sp.out_sparse))
        total += len(sp.out_sparse)
    return dead / max(total, 1)


def put_config_ladder(ctx: Ctx, scale, seed: int) -> None:
    """Forward+backward step time (no optimizer update, so dead channels stay
    dead) of one model under each cumulative engine configuration."""
    rng = np.random.default_rng(ctx.subseed("ladder-batch"))
    xb = rng.standard_normal((BATCH, 3, scale.hw, scale.hw), dtype=np.float32)
    yb = rng.integers(0, 10, size=BATCH)
    mask_seed = ctx.subseed("ladder-mask")
    cfg = workspace.config
    saved = (cfg.mem_plan, cfg.parallel_replay, cfg.sparse_compute)

    def pin(mem_plan, parallel, sparse_on):
        cfg.mem_plan, cfg.parallel_replay, cfg.sparse_compute = \
            mem_plan, parallel, sparse_on

    def eager_rung(baseline: bool):
        model = _ladder_model(scale, seed, mask_seed)
        opt = SGD(model.parameters(), 0.1, 0.9, 5e-4)

        def step():
            opt.zero_grad()
            F.cross_entropy(model(Tensor(xb)), yb).backward()

        def run():
            pin(True, False, False)
            if baseline:
                with workspace.baseline_engine():
                    step()
            else:
                step()
        return run

    def compiled_rung(mem_plan, parallel, sparse_on):
        model = _ladder_model(scale, seed, mask_seed)
        opt = SGD(model.parameters(), 0.1, 0.9, 5e-4)
        pin(mem_plan, parallel, sparse_on)
        if sparse_on:
            entries = []
            for node in model.graph.active_convs():
                sp = conv_sparsity(node, DEFAULT_THRESHOLD)
                entries.append((node.conv.weight,
                                np.asarray(sp.in_sparse, dtype=bool),
                                np.asarray(sp.out_sparse, dtype=bool)))
            sparse.publish(entries)
        opt.zero_grad()
        plan, loss_t, _, reason = capture_training_step(model, xb, yb)
        if plan is None:
            raise RuntimeError(f"ladder capture failed: {reason}")
        loss_t.backward()

        def run():
            pin(mem_plan, parallel, sparse_on)
            opt.zero_grad()
            plan.run(xb, yb)
        return run

    try:
        dead = _dead_fraction(_ladder_model(scale, seed, mask_seed))
        rungs = {
            "seed": eager_rung(True),
            "engine": eager_rung(False),
            "compile": compiled_rung(False, False, False),
            "memplan": compiled_rung(True, False, False),
            "parallel": compiled_rung(True, True, False),
            "sparse": compiled_rung(True, False, True),
            "memplan_again": compiled_rung(True, False, False),
        }
        medians = _interleaved_medians(rungs, rounds=4 if ctx.smoke else 30)
    finally:
        pin(*saved)
        sparse.clear()
        workspace.invalidate()
    for name in ("seed", "engine", "compile", "memplan", "parallel",
                 "sparse"):
        ctx.put(f"ladder.{name}_step_ms", 1e3 * medians[name], "ms")
    ctx.put("ladder.aa_noise_frac",
            abs(medians["memplan_again"] / medians["memplan"] - 1.0), "ratio")
    ctx.put("ladder.dead_channel_frac", dead, "ratio")
    ctx.gate("ladder_dead_frac_60pct", ctx.smoke or dead >= 0.60)

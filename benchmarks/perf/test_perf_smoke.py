"""Perf smoke tests: shortened runs of the ``benchmarks/perf`` harnesses.

Each leg writes its smoke-size payload under pytest's ``tmp_path`` — never
over the committed full-size ``results/BENCH_*.json`` — so CI uploads them
from ``--basetemp``.  The speed bars here are deliberately below the
acceptance-grade ones the full runs commit to the results files: CI
machines are noisy and a smoke test should not flake on scheduler jitter —
it only guards against an optimization regressing to parity.
"""

import json
import os

import bench_elastic
import bench_engine
import bench_serve


def test_compiled_step_speedup_smoke(tmp_path):
    """Compiled replay must never be slower than eager stepping.

    The acceptance-grade bar (>= 1.15x, measured by the full bench run) is
    asserted on the committed ``results/BENCH_compile.json``; at CI-smoke
    repetition counts the guard is parity.
    """
    results = bench_engine.run_compile_bench(step_warmup=2, step_iters=3,
                                             step_rounds=5)
    path = bench_engine.write_results(results,
                                      str(tmp_path / "BENCH_compile.json"))
    assert os.path.exists(path)
    with open(path) as fh:
        written = json.load(fh)

    step = written["train_step"]
    assert step["before_ms"] > 0 and step["after_ms"] > 0
    assert step["speedup"] > 1.0, (
        f"compiled step slower than eager: {step}")


def test_memplan_parity_and_savings_smoke(tmp_path):
    """The arena-planned step must match its eager twin bit-for-bit and
    cut the resident plan footprint by >= 20% (``run_memplan_bench`` also
    raises below that).  Both checks are deterministic and asserted at
    full strength; the planned step's time is the compile leg's."""
    results = bench_engine.run_memplan_bench()
    path = bench_engine.write_results(results,
                                      str(tmp_path / "BENCH_memplan.json"))
    assert os.path.exists(path)
    with open(path) as fh:
        written = json.load(fh)

    assert written["bit_identical"], "planned step diverged from eager"
    mem = written["memory"]
    assert mem["savings_fraction"] >= 0.20, mem
    assert mem["arena_bytes"] <= 0.8 * mem["plan_private_bytes"], mem
    assert mem["liveness_peak_bytes"] <= mem["arena_bytes"]


def test_elastic_overlap_parity_and_gap_smoke(tmp_path):
    """The elastic engine must stay bit-identical to the in-process sim
    (asserted inside ``run_bench`` — a diverging engine fails here, not just
    slows down) and the elastic/sim step-time gap must stay closed.

    The full ``benchmarks/perf/bench_elastic.py`` run is committed in
    ``results/BENCH_elastic.json``.  The guard here is 1.35x: it catches a
    regression to the pre-overlap ~1.46x orchestration tax.  (On a 2-CPU
    host at the default BLAS thread count two workers oversubscribe the
    cores and the ratio sits near 2x, parent commit included; with
    ``OPENBLAS_NUM_THREADS=1`` it is under 0.5x.)  The engine must also
    actually exchange."""
    results = bench_elastic.run_bench(warmup=2, iters=3, rounds=3)
    path = bench_elastic.write_results(results,
                                       str(tmp_path / "BENCH_elastic.json"))
    assert os.path.exists(path)
    with open(path) as fh:
        written = json.load(fh)

    step = written["train_step"]
    assert step["sim_ms"] > 0 and step["elastic_ms"] > 0
    assert step["elastic_over_sim"] < 1.35, (
        f"elastic engine regressed toward the pre-overlap gap: {step}")
    assert step["comm"]["allreduces"] > 0


def test_serve_parity_and_latency_smoke(tmp_path):
    """Serving benchmark at reduced load: the batched-vs-unbatched parity
    gate must be clean and the latency/QPS report well-formed.

    Parity is deterministic (bitwise, every dispatch path) and asserted at
    full strength.  Throughput numbers are load-bearing only directionally
    on a shared CI host: the pruned model must not serve *less* capacity
    than the dense one (the full-strength 1.1-1.6x Tab. 2 bar is measured
    by ``python benchmarks/perf/bench_serve.py`` and committed in
    ``results/BENCH_serve.json``).
    """
    results = bench_serve.run_serve_bench(n_requests=80,
                                          load_fracs=(0.25, 0.6),
                                          max_batch=8)
    path = bench_serve.write_results(results,
                                     str(tmp_path / "BENCH_serve.json"))
    assert os.path.exists(path)
    with open(path) as fh:
        written = json.load(fh)

    # the CI gate: batched served outputs bit-identical to unbatched
    # eager forward, for both checkpoints, on every dispatch path
    for variant in ("dense", "pruned"):
        parity = written[variant]["parity"]
        assert parity["bit_identical"], f"{variant} parity broken: {parity}"
        for check in ("exact_batch", "padded_group", "tail_shape",
                      "through_server"):
            assert parity[check], f"{variant} {check} not bit-identical"
        for load in written[variant]["loads"]:
            assert load["p50_ms"] > 0 and load["p99_ms"] >= load["p50_ms"]
            assert load["achieved_qps"] > 0
        stats = written[variant]["serve_stats"]
        assert stats["eager_rows"] == 0, (
            f"{variant} fell back to eager serving: {stats}")
    assert written["speedup"]["bit_identical"]
    assert written["speedup"]["capacity"] > 0.9, (
        f"pruned checkpoint serves less than dense: {written['speedup']}")

"""Self-test of the end-to-end benchmark (not part of tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q

Runs every workload once at ``--smoke`` size (SMOKE scale, 2 epochs,
200-request bursts) through the real command line, so what is checked is what
the driver will see.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke pass over all workloads, untraced and traced."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    code, stdout = _run("--smoke", "--trace", "1", "--out", str(out))
    assert code == 0, stdout[-2000:]
    with open(out) as fh:
        return json.load(fh)


def test_spec_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_emits_every_declared_metric(spec, smoke):
    assert smoke["ok"]
    assert sorted(smoke["workloads"]) == sorted(
        w["name"] for w in spec["workloads"])
    for name, rep in smoke["workloads"].items():
        for section, run in (("end_to_end", rep),
                             ("per_layer", rep["traced_run"])):
            assert run["correct"] and run["failed"] == 0, (name, run["gates"])
            assert run["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[section]}
            # the contract line holds exactly the declared metrics
            assert set(run["contract"]) == set(declared), (name, section)
            for metric, unit in declared.items():
                got = run["contract"][metric]
                assert got["unit"] == unit, (name, metric)
                assert isinstance(got["value"], float)
                if section == "end_to_end":
                    assert got["value"] > 0, (name, metric)
            # every time-valued per-layer metric was really measured
            for metric, unit in declared.items():
                if unit in ("s", "ms"):
                    assert run["contract"][metric]["value"] > 0, (name, metric)
        assert all(NAME.match(k) for k in rep["metrics"])


def test_contract_line_is_last_and_complete(spec):
    code, stdout = _run("--workload", "serve_pruned_openloop", "--seed", "5",
                        "--seconds", "3", "--trace", "0", "--smoke")
    assert code == 0
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_injected_failing_request_flips_exit_code(smoke):
    clean = smoke["workloads"]["serve_pruned_openloop"]
    assert clean["metrics"]["failed_frac"]["value"] == 0
    code, stdout = _run("--workload", "serve_pruned_openloop", "--smoke",
                        "--inject-failure")
    last = json.loads(stdout.strip().splitlines()[-1])
    assert code != 0
    assert last["failed"] >= 1 and last["attempted"] > last["failed"]


def test_open_loop_generator_reports_its_lateness(smoke):
    metrics = smoke["workloads"]["serve_pruned_openloop"]["metrics"]
    for rate in (500, 1500, 2500):
        late = metrics[f"gen.late_p95_ms.r{rate}"]
        assert late["unit"] == "ms" and late["value"] > 0


def test_same_seed_gives_same_inputs(smoke, tmp_path):
    out = tmp_path / "again.json"
    code, _ = _run("--workload", "reconfig_churn_vgg11", "--smoke", "--out",
                   str(out))
    assert code == 0
    with open(out) as fh:
        again = json.load(fh)
    assert again["digests"] == \
        smoke["workloads"]["reconfig_churn_vgg11"]["digests"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command fails and prints no result."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "prunetrain_r32", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_span_self_time_and_trace():
    import time

    from spans import SpanRecorder
    rec = SpanRecorder()
    with rec.span("outer"):
        time.sleep(0.01)
        with rec.span("inner"):
            time.sleep(0.02)
        rec.next_group()
        with rec.span("inner"):
            time.sleep(0.01)
    tot = rec.totals()
    assert tot["inner"].count == 2 and tot["outer"].count == 1
    assert tot["outer"].self_s == pytest.approx(
        tot["outer"].total_s - tot["inner"].total_s)
    assert 0.005 < tot["outer"].self_s < tot["outer"].total_s
    events = rec.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner", "inner"]
    assert [e["args"]["group"] for e in events] == [1, 0, 1]
    assert events[1]["args"]["parent"] == 0


def test_exhausted_iterator_span_is_dropped_by_index():
    """The final ``next()`` of a wrapped iterator records a child span before
    it raises StopIteration: its own span goes, the child's stays."""
    from spans import SpanRecorder
    rec = SpanRecorder()

    class Loader:
        def __iter__(self):
            yield 1
            with rec.span("teardown"):
                pass

    rec.wrap_iter(Loader, "__iter__", "data.next")
    try:
        assert list(Loader()) == [1]
    finally:
        rec.uninstall()
    tot = rec.totals()
    assert tot["data.next"].count == 1 and tot["teardown"].count == 1


def test_aa_judges_setup_counts_and_accuracy(spec):
    import run

    def report(**metrics):
        return {"w": {"digests": {}, "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}

    first = report(setup_s=(1.0, "s"), final_val_acc=(0.90, "fraction"),
                   train_flops_total=(5e9, "count"), lasso_s=(1.0, "s"))
    same = report(setup_s=(1.1, "s"), final_val_acc=(0.91, "fraction"),
                  train_flops_total=(5e9, "count"), lasso_s=(2.0, "s"))
    assert run.compare_aa(spec, first, same)["agree"]
    for name, value, unit in (("setup_s", 2.0, "s"),
                              ("final_val_acc", 0.85, "fraction"),
                              ("train_flops_total", 5e9 + 1, "count")):
        other = report(**{**{k: (m["value"], m["unit"]) for k, m in
                             same["w"]["metrics"].items()},
                          name: (value, unit)})
        assert not run.compare_aa(spec, first, other)["agree"], name


def test_calibrated_seconds():
    import time

    from hostcal import CAL_PROBE_S, HostClock, Timed, timed
    t = Timed(2.0, [CAL_PROBE_S * 2, CAL_PROBE_S * 2, CAL_PROBE_S * 4])
    assert t.cal_s == pytest.approx(1.0)      # probe twice as slow as the unit
    clock = HostClock()

    def leg():
        time.sleep(0.05)
        clock.tick()            # an in-leg sample: its cost is not the leg's
        time.sleep(0.05)

    _, t = timed(clock, leg)
    assert len(clock.samples) == 3
    assert 0.1 <= t.raw_s < 0.1 + clock.overhead / 3

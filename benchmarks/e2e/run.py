#!/usr/bin/env python3
"""End-to-end benchmark of the PruneTrain reproduction: one command.

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --trace 1            # + per-layer runs
    python3 benchmarks/e2e/run.py --aa                 # the set twice, compared
    python3 benchmarks/e2e/run.py --spread 10          # ten seeds, spread vs bound
    python3 benchmarks/e2e/run.py --smoke              # seconds, for the self-test
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the process *is* the measurement: it runs that one
workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``).  Without it the script starts one fresh process per
workload (clean engine counters, clean RSS) and prints every metric by name
with its unit.  It exits non-zero when a correctness gate fails, an
operation fails, or (``--aa``) two runs of the same code disagree.

See README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Called by ``main`` before NumPy is imported anywhere below.

    One BLAS thread: the host has 2 cores and the serve workload already
    uses both (generator + server worker).  The default product
    configuration: no ``REPRO_*`` switch leaks in from the caller's
    environment (the workloads set the one they compare against)."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    for var in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[var]


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Metrics outside ``BENCHMARK.json`` that ``--aa`` judges too: the largest
#: absolute difference two runs of the same code and seed may show.  Every
#: metric with unit ``count`` is judged the same way, at 0.
#: (``serve_max_rate_ok_rps`` is not among them: it is decided by a p95, and
#: one stall of this host moved it from 2500 to 500 between two such runs.)
AA_ABS = {"final_val_acc": 0.02, "failed_frac": 0.0}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def make_scratch() -> str:
    """A fresh directory for checkpoints and child reports.  It lives in the
    checkout, not in the system temp dir: the benchmark may read and write
    only there.  Whoever makes it removes it."""
    return tempfile.mkdtemp(prefix=".bench_scratch-", dir=ROOT)


# -- one workload, this process ----------------------------------------------------

def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError:
        print("ERROR the program under test (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    import wl_serve
    import wl_train
    from benchctx import Ctx
    from layer_probes import put_ops_probes

    workloads = {
        "prunetrain_r32": wl_train.prunetrain_r32,
        "dense_vgg13_wide": wl_train.dense_vgg13_wide,
        "reconfig_churn_vgg11": wl_train.reconfig_churn_vgg11,
        "serve_pruned_openloop": wl_serve.serve_pruned_openloop,
    }
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(workloads):
        raise SystemExit("BENCHMARK.json workloads do not match run.py")
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {declared}")

    scratch = make_scratch()
    try:
        ctx = Ctx(args.seed, args.seconds, args.smoke, bool(args.trace),
                  scratch)
        ctx.put("import_s", time.perf_counter() - _T_START, "s")
        if args.workload == "serve_pruned_openloop":
            workloads[args.workload](ctx, inject_failure=args.inject_failure)
        else:
            workloads[args.workload](ctx)
        if ctx.traced:
            put_ops_probes(ctx)
        ctx.put("peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        ctx.put("failed_frac", ctx.failed / max(ctx.attempted, 1),
                "fraction")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out:
        # spans stayed in memory until here: one Chrome trace per traced leg
        stem = os.path.splitext(args.out)[0]
        for label, trace in ctx.traces.items():
            with open(f"{stem}.{label}.trace.json", "w") as fh:
                json.dump(trace, fh)

    section = "per_layer" if ctx.traced else "end_to_end"
    problems = []
    contract = {}
    for m in spec[section]:
        name, unit = m["name"], m["unit"]
        if name not in ctx.metrics:
            if unit in ("ratio", "count"):
                # a layer this workload does not exercise: zero share/count
                ctx.put(name, 0.0, unit)
            else:
                problems.append(f"declared metric {name} was not measured")
                continue
        value, got_unit = ctx.metrics[name]
        if got_unit != unit:
            problems.append(f"{name}: unit {got_unit!r}, declared {unit!r}")
        if value != value or value in (float("inf"), float("-inf")):
            problems.append(f"{name}: not a finite number")
        contract[name] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"ERROR {problem}", file=sys.stderr)

    failed_gates = [g for g, ok in ctx.gates.items() if not ok]
    correct = not failed_gates and not problems
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "traced": ctx.traced,
        "correct": correct, "attempted": ctx.attempted,
        "failed": ctx.failed, "gates": ctx.gates, "digests": ctx.digests,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in ctx.metrics.items()},
        "contract": contract,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print_metrics(args.workload + (" (traced)" if ctx.traced else ""),
                  report)
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": contract}))
    return 0 if correct and ctx.failed == 0 else 1


def print_metrics(title: str, report: dict) -> None:
    print(f"== {title}: correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for gate, ok in sorted(report["gates"].items()):
        print(f"   gate {gate:36s} {'ok' if ok else 'FAILED'}")
    for name, m in sorted(report["metrics"].items()):
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")


# -- all workloads, one fresh process each ----------------------------------------

def host_fingerprint() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except TypeError:       # NumPy < 1.25 has no dict mode
        pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": 1}


def child(args, workload: str, trace: int, out: str, seed=None) -> dict:
    seed = args.seed if seed is None else seed
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_failure:
        cmd.append("--inject-failure")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if not os.path.exists(out):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload}: no report (exit {proc.returncode})")
    with open(out) as fh:
        report = json.load(fh)
    report["exit_code"] = proc.returncode
    return report


def run_set(args, order) -> dict:
    """One pass over the workloads; returns name -> report, with the traced
    run of ``--trace 1`` under ``traced_run``."""
    results = {}
    tmp = make_scratch()
    try:
        for name in order:
            rep = child(args, name, 0, os.path.join(tmp, f"{name}.json"))
            print_metrics(name, rep)
            if args.trace:
                rep["traced_run"] = child(
                    args, name, 1, os.path.join(tmp, f"{name}-t.json"))
                print_metrics(name + " (traced)", rep["traced_run"])
            results[name] = rep
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return results


def set_ok(results: dict) -> bool:
    reports = list(results.values()) + [r["traced_run"] for r in
                                        results.values() if "traced_run" in r]
    return all(r["correct"] and r["failed"] == 0 and r["exit_code"] == 0
               for r in reports)


def compare_aa(spec: dict, first: dict, second: dict) -> dict:
    """Per workload and metric: both values, their difference, its bound.

    End-to-end metrics, ``setup_s`` too, must agree within their bound;
    ``count`` metrics, the metrics of ``AA_ABS`` and the bit-exactness
    digests within theirs, which for all but the accuracy means exactly.
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows, ok = [], True
    for name in first:
        a, b = first[name], second[name]
        if a["digests"] != b["digests"]:
            ok = False
            rows.append({"workload": name, "metric": "digests",
                         "a": a["digests"], "b": b["digests"],
                         "verdict": "DIFFERENT"})
        for metric in sorted(a["metrics"]):
            va = a["metrics"][metric]["value"]
            vb = b["metrics"][metric]["value"]
            unit = a["metrics"][metric]["unit"]
            row = {"workload": name, "metric": metric, "unit": unit,
                   "a": va, "b": vb}
            if metric in bounds:
                row["diff"] = abs(va - vb) / max(abs(va), abs(vb), 1e-300)
                row["bound"], row["kind"] = bounds[metric], "rel"
            elif metric in AA_ABS or unit == "count":
                row["diff"] = abs(va - vb)
                row["bound"], row["kind"] = AA_ABS.get(metric, 0.0), "abs"
            if "bound" in row:
                row["verdict"] = ("ok" if row["diff"] <= row["bound"]
                                  else "EXCEEDS BOUND")
                ok = ok and row["verdict"] == "ok"
            rows.append(row)
    return {"agree": ok, "rows": rows}


def run_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    payload = {"schema": 2, "host": host_fingerprint(), "seed": args.seed,
               "seconds": args.seconds, "smoke": args.smoke,
               "benchmark": spec}
    first = run_set(args, names)
    payload["workloads"] = first
    ok = set_ok(first)
    if args.aa:
        second = run_set(args, list(reversed(names)))
        payload["second_set"] = second
        aa = compare_aa(spec, first, second)
        payload["aa"] = aa
        ok = ok and set_ok(second) and aa["agree"]
        print("== A/A: same code, same seed, opposite workload order")
        for row in aa["rows"]:
            if "verdict" in row and "diff" in row:
                print(f"   {row['workload']:24s} {row['metric']:32s} "
                      f"{row['a']:>14.6g} {row['b']:>14.6g} "
                      f"{row['kind']} diff {row['diff']:8.4g} "
                      f"bound {row['bound']:4.2f} {row['verdict']}")
            elif "verdict" in row:
                print(f"   {row['workload']:24s} digests {row['verdict']}")
    payload["ok"] = ok
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"== benchmark {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def run_spread(args, spec: dict) -> int:
    """The driver's acceptance statistic: ``--spread N`` runs every workload
    with N different seeds and reports, per end-to-end metric, the distance
    between the quartiles of its N values as a share of their median, which
    has to stay within the metric's bound."""
    names = [w["name"] for w in spec["workloads"]]
    seeds = [args.seed + 1 + i for i in range(args.spread)]
    values = {n: {m["name"]: [] for m in spec["end_to_end"]} for n in names}
    tmp = make_scratch()
    try:
        for seed in seeds:
            for name in names:
                rep = child(args, name, 0, os.path.join(tmp, "run.json"),
                            seed=seed)
                if rep["exit_code"] != 0:
                    raise SystemExit(f"{name} seed {seed} failed")
                for metric, m in rep["contract"].items():
                    values[name][metric].append(m["value"])
                print(f"   seed {seed} {name}: " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in rep["contract"].items()), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rows, ok = [], True
    print("== spread over seeds " + ",".join(map(str, seeds)))
    for name in names:
        for m in spec["end_to_end"]:
            vals = values[name][m["name"]]
            q = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q[2] - q[0]) / median
            within = spread <= m["bound"]
            ok = ok and within
            rows.append({"workload": name, "metric": m["name"],
                         "unit": m["unit"], "values": vals,
                         "median": median, "spread": spread,
                         "bound": m["bound"], "within_bound": within})
            print(f"   {name:24s} {m['name']:20s} median {median:10.4f} "
                  f"spread {spread:6.3f} bound {m['bound']:5.2f} "
                  f"{'ok' if within else 'EXCEEDS BOUND'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": 2, "host": host_fingerprint(),
                       "seeds": seeds, "seconds": args.seconds, "ok": ok,
                       "rows": rows}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"== spread {'within every bound' if ok else 'EXCEEDS A BOUND'}")
    return 0 if ok else 1


def print_summary(path: str) -> int:
    """Headline table regenerated from a committed baseline JSON alone."""
    with open(path) as fh:
        base = json.load(fh)
    host = base["host"]
    print(f"# Baseline summary (generated by `run.py --summary {path}`)\n")
    print(f"Host: {host['nproc']} CPUs, {host['blas'].get('name')} "
          f"{host['blas'].get('version')}, BLAS threads {host['blas_threads']}"
          f", Python {host['python']}, NumPy {host['numpy']}; seed "
          f"{base['seed']}, --seconds {base['seconds']}.\n")
    spec = base["benchmark"]
    cols = [m["name"] for m in spec["end_to_end"]] + ["wall_ratio_vs_ref"]
    print("| workload | " + " | ".join(cols) + " |")
    print("|---|" + "---|" * len(cols))
    for name, rep in base["workloads"].items():
        vals = [f"{rep['metrics'][c]['value']:.4g}" for c in cols]
        print(f"| `{name}` | " + " | ".join(vals) + " |")

    def section(title, workload, prefixes, traced):
        rep = base["workloads"][workload]
        if traced:
            rep = rep.get("traced_run", {"metrics": {}})
        rows = [(k, v) for k, v in sorted(rep["metrics"].items())
                if k.startswith(prefixes)]
        if rows:
            print(f"\n## {title} (`{workload}`)\n")
            print("| metric | value | unit |\n|---|---|---|")
            for k, v in rows:
                print(f"| `{k}` | {v['value']:.5g} | {v['unit']} |")

    section("PruneTrain vs dense, measured and modeled", "prunetrain_r32",
            ("wall_ratio_vs_dense", "train_wall_s", "dense_wall_s",
             "costmodel."), traced=False)
    section("Configuration ladder", "prunetrain_r32", ("ladder.",),
            traced=True)
    for name in base["workloads"]:
        section("Where the time goes", name,
                ("trace", "host.", "data.share", "trainer.",
                 "compile.", "autograd.", "optim.share", "lasso.share",
                 "reconfigure.", "checkpoint.", "registry.", "server.",
                 "memplan."), traced=True)
    return 0


def main() -> int:
    pin_environment()
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload in-process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: run under the span recorder and report the "
                         "per-layer metrics (all workloads: after the "
                         "untraced run of each)")
    ap.add_argument("--aa", action="store_true",
                    help="run the set twice and compare against the bounds")
    ap.add_argument("--spread", type=int, metavar="N", default=0,
                    help="run N seeds per workload; quartile spread vs bound")
    ap.add_argument("--smoke", action="store_true",
                    help="SMOKE scale, 2 epochs, 200-request bursts")
    ap.add_argument("--out", help="write the full report as JSON; a traced "
                    "--workload run writes its Chrome traces next to it")
    ap.add_argument("--summary", metavar="BASELINE_JSON",
                    help="print the headline tables of a baseline file")
    ap.add_argument("--inject-failure", action="store_true",
                    help="self-test: submit one request that must fail")
    args = ap.parse_args()
    if args.summary:
        return print_summary(args.summary)
    if args.workload:
        return run_workload(args, spec)
    if args.spread:
        return run_spread(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of tropbn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank-rr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in a fresh single-threaded worker process (this script
again, with `--worker`) whose environment is pinned: TROPBN_THREADS=1,
PYTHONHASHSEED=0, and `src/` of this checkout first on the import path.
The worker is a closed loop with one client: it makes its inputs from the
seed, then answers the workload's fixed query set back to back, pass after
pass, until `--seconds` have gone by, and checks every answer.

All times except the traced spans' are scaled to a reference machine
speed measured between queries (see `run_pass`); the raw times are kept in
the result file.  The traced run adds trace.overhead_s, its traced pass
minus wall_s, both scaled.

End-to-end metrics, untraced:
  wall_s         time to answer the query set once, each query taken at its
                 median over the run's passes
  setup_s        median over nine fresh processes of importing tropbn and
                 its CLI, making the inputs, writing them as JSON files and
                 reading them back (see `setup_probe`)
  peak_rss_mb    ru_maxrss of the worker process
  query_p50_ms   median of the per-query latencies
  query_tail_ms  the highest of p99.9/p99/p90/p75/p50 with at least ten
                 queries beyond it; on workloads with fewer than twenty
                 queries (bn-usc, lattice-dumbbell) the slowest query
A query that raises counts as failed; one whose answer fails its check
counts as failed and makes `correct` false.  The share of failed queries
is printed as error_rate.

With `--trace 0` the last stdout line is a JSON object whose metrics are
the end-to-end ones named in BENCHMARK.json; with `--trace 1` the worker
also makes one traced pass (see spans.py) and reports the per-layer ones.
Every run also writes `.bench_out/result-<workload>-s<seed>-t<trace>.json`
with the stamps, all metrics and the per-query latencies, and a traced run
writes its spans and counters to `.bench_out/trace-<workload>-s<seed>.json.gz`.
`python3 perfbench/compare.py` compares two sets of result files.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("rank-rr", "bn-usc", "lattice-dumbbell")
PINNED_ENV = {"TROPBN_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_REPEATS = 9
# a benchmark run must end within 180 s
WORKER_TIMEOUT_S = 175
TAIL_PERCENTILES = (99.9, 99, 90, 75, 50)
# what `reference_work` takes on this 2-core x86-64 VM with Python 3.11
# when unloaded; timings are reported as if the machine ran at that speed
REFERENCE_S = 0.0004
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 1.0


def metric_specs():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def tail_percentile(values):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    ten values beyond it, by nearest rank; the maximum when none has."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        k = math.ceil(p * n / 100)
        if k >= 1 and n - k >= 10:
            return p, xs[k - 1]
    return 100.0, xs[-1]


def git_sha():
    """Commit of the checkout, or "unknown" when it is not a git repository."""
    # the ceiling keeps git from reporting a repository that merely holds ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# -- worker ----------------------------------------------------------------------


def reference_work():
    """Fixed interpreter-bound work whose duration tracks machine speed."""
    acc, d = 0, {}
    for k in range(3000):
        d[k & 63] = d.get(k & 63, 0) + k
        acc += (k * k) % 7
    return acc


def calibrate():
    """Seconds the reference work takes now (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(queries, tracer=None):
    """Answer every query once.

    Returns (latencies, raw latencies, answers, raised).  Other tenants of
    the machine slow it by 25-60% for seconds to minutes at a time, so the
    reference work is timed between queries, at least every
    CALIBRATE_EVERY_S, and each latency is scaled by REFERENCE_S over the
    median of the calibrations within CALIBRATION_WINDOW_S of its query.
    """
    spans, answers, raised = [], [], []
    clock = time.perf_counter
    cal_at, cals = [clock()], [calibrate()]
    for q in queries:
        span = tracer.open("query") if tracer else None
        t0 = clock()
        try:
            answers.append(q.run())
            raised.append(False)
        except Exception as exc:  # a crash is a failed query, not a stop
            answers.append(exc)
            raised.append(True)
        spans.append((t0, clock()))
        if tracer:
            tracer.close(span)
        if clock() - cal_at[-1] >= CALIBRATE_EVERY_S or q is queries[-1]:
            cal_at.append(clock())
            cals.append(calibrate())
    raw, lat = [], []
    for t0, t1 in spans:
        lo = bisect.bisect_left(cal_at, t0 - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(cal_at, t1 + CALIBRATION_WINDOW_S)
        raw.append(t1 - t0)
        lat.append((t1 - t0) * REFERENCE_S / statistics.median(cals[lo:hi]))
    return lat, raw, answers, raised


def count_failures(queries, answers, raised):
    """(failed, wrong): crashes and wrong answers, and wrong answers alone."""
    wrong = 0
    for q, ans, exc in zip(queries, answers, raised):
        if not exc:
            try:
                ok = q.check(ans)
            except Exception:
                ok = False
            wrong += not ok
    return sum(raised) + wrong, wrong


def workdir_of(args):
    path = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_probe(args):
    """Set the workload up once in this fresh process and print how long
    it took, raw and scaled by calibrations taken before and after."""
    sys.path.insert(0, SRC)
    clock = time.perf_counter
    before = calibrate()
    t0 = clock()
    import tropbn as tb
    import tropbn.cli  # noqa: F401  (the CLI is part of what set-up loads)
    took = clock() - t0
    import workloads  # the benchmark's own code, not timed

    t0 = clock()
    workloads.SETUPS[args.workload](tb, args.seed, workdir_of(args))
    took += clock() - t0
    after = calibrate()
    print(json.dumps({"raw_s": took,
                      "s": took * 2 * REFERENCE_S / (before + after)}))


def measure_setup(args):
    """Scaled and raw set-up times of SETUP_REPEATS fresh probe processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True).stdout
        runs.append(json.loads(out.splitlines()[-1]))
    return [r["s"] for r in runs], [r["raw_s"] for r in runs]


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def worker(args):
    if not os.path.isfile(os.path.join(SRC, "tropbn", "__init__.py")):
        sys.exit(f"error: no program source at {SRC}/tropbn")
    e2e_units, layer_units = metric_specs()
    setup_times, setup_raw = measure_setup(args)
    sys.path.insert(0, SRC)
    import tropbn as tb
    import tropbn.cli  # noqa: F401
    if not os.path.abspath(tb.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported tropbn from {tb.__file__}, not {SRC}")
    import workloads

    rss_import = rss_mb()
    queries = workloads.SETUPS[args.workload](tb, args.seed, workdir_of(args))
    rss_setup = rss_mb()

    clock = time.perf_counter
    passes, raw_passes = [], []
    attempted = failed = wrong = 0
    begin = clock()
    while True:
        lat, raw, answers, raised = run_pass(queries)
        passes.append(lat)
        raw_passes.append(raw)
        f, w = count_failures(queries, answers, raised)
        attempted += len(queries)
        failed += f
        wrong += w
        del answers
        if clock() - begin >= args.seconds:
            break

    if args.trace:
        from spans import SELF_TIME_METRICS, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        # each traced recursion level adds a wrapper frame
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2 * limit)
        try:
            traced, _, answers, raised = run_pass(queries, tracer)
        finally:
            sys.setrecursionlimit(limit)
            tracer.uninstall()
        for q, ans, exc in zip(queries, answers, raised):
            if q.label in workloads.BN_QUERIES and not exc:
                tracer.counters["cli.bytes_out"] += len(ans[1].encode())
        f, w = count_failures(queries, answers, raised)
        attempted += len(queries)
        failed += f
        wrong += w
        del answers

    latencies = [statistics.median(p[i] for p in passes)
                 for i in range(len(queries))]
    tail_p, tail = tail_percentile(latencies)
    wall = sum(latencies)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb(),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_tail_ms": 1e3 * tail,
    }
    info = {"error_rate": failed / attempted, "query_tail_pct": tail_p,
            "query_count": len(queries), "passes": len(passes),
            "setup_runs_s": setup_times, "setup_raw_runs_s": setup_raw,
            "rss_after_import_mb": rss_import,
            "rss_after_setup_mb": rss_setup,
            "raw_pass_times_s": [sum(r) for r in raw_passes],
            "raw_latencies_s": [statistics.median(r[i] for r in raw_passes)
                                for i in range(len(queries))]}

    if args.trace:
        layers = layer_metrics(tracer)
        accounted = sum(layers[k] for k in SELF_TIME_METRICS) + layers["trace.gap_s"]
        if abs(accounted - layers["trace.wall_s"]) > 1e-6 * layers["trace.wall_s"]:
            sys.exit(f"error: self times add up to {accounted}, "
                     f"not the traced wall time {layers['trace.wall_s']}")
        layers["trace.overhead_s"] = sum(traced) - wall
        layers["error_rate"] = failed / attempted
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json.gz"))
        info.update({k: v for k, v in layers.items() if k not in layer_units})
        reported = {k: layers[k] for k in layer_units}
        units = layer_units
    else:
        reported = metrics
        units = e2e_units

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": tb.kernel.BACKEND,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in reported.items()}}
    record = dict(stamp=stamp, result=result, end_to_end=metrics, info=info,
                  latencies_s=latencies)
    if args.trace:
        record["per_layer"] = reported
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}"
                                f"-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for k, v in metrics.items():
        print(f"{args.workload} {k} {v:.6g} {e2e_units[k]}")
    for k in ("query_tail_pct", "query_count", "passes"):
        print(f"{args.workload} {k} {info[k]:.6g}")
    if args.trace:
        for k, v in reported.items():
            print(f"{args.workload} {k} {v:.6g} {layer_units[k]}")
    else:
        print(f"{args.workload} error_rate {info['error_rate']:.6g} ratio")
    print(json.dumps(result))


# -- parent ------------------------------------------------------------------------


def spawn(args, workload):
    """Run one workload in a fresh pinned worker; returns its stdout lines."""
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"error: {workload} did not finish in {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"error: {workload} worker exited with {proc.returncode}")
    return out.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return
    if args.worker:
        worker(args)
        return
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines = spawn(args, name)
        print("\n".join(lines), flush=True)
        results[name] = json.loads(lines[-1])
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()

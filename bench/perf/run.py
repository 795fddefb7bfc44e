#!/usr/bin/env python3
"""agingbench: build the harness, run workloads, print and check metrics.

    python3 bench/perf/run.py [--workload W] [--seed S] [--seconds T]
                              [--reps N] [--trace [0|1]] [--json OUT] [--smoke]

Each run of a workload is its own harness process (build-perf/agingbench)
with AGINGSIM_THREADS=min(4, nproc). Every metric is printed as
"workload metric value unit"; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
of BENCHMARK.json, or with --trace its per-layer metrics. --trace first runs
the workload untraced, then again with the recorders on, and reports the
tracing overhead as traced over untraced job latency. The exit code is 1
when a correctness check fails and 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-perf"
WORKLOADS = ["figure_sweep", "mc_campaign", "fault_firtap", "serve_mixed"]
THREADS = min(4, os.cpu_count() or 1)
TRACE_CAPACITY = 1 << 18  # spans per thread; keeps dropped_events at 0
RUN_BUDGET_S = 170.0      # per workload run, traced twin included

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


def die(message):
    print(f"agingbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness plus agingd, Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"the simulator sources are missing under {ROOT}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", str(THREADS)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")


def stop_group(proc):
    """Kills whatever is left of the harness's process group (an agingd
    orphaned by a crash) and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_harness(workload, seed, seconds, traced, smoke, deadline):
    """One harness process; returns (result document, trace paths)."""
    tag = f"{workload}-{seed}-{'traced' if traced else 'plain'}-{os.getpid()}"
    work_dir = Path("build-perf") / "run" / tag
    out = BUILD / "run" / f"{tag}.json"
    (ROOT / work_dir).mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AGINGSIM_")}
    env["AGINGSIM_THREADS"] = str(THREADS)
    cmd = [str(BUILD / "agingbench"), workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(out),
           "--work-dir", str(work_dir)]
    if smoke:
        cmd.append("--smoke")
    traces = {}
    if traced:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traces["harness"] = trace_dir / f"{tag}.trace.json"
        traces["metrics"] = trace_dir / f"{tag}.metrics.json"
        env["AGINGSIM_TRACE"] = str(traces["harness"])
        env["AGINGSIM_METRICS"] = str(traces["metrics"])
        env["AGINGSIM_TRACE_CAPACITY"] = str(TRACE_CAPACITY)
        if workload == "serve_mixed":
            traces["daemon"] = trace_dir / f"{tag}.agingd.trace.json"
            cmd += ["--daemon-trace", str(traces["daemon"])]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        proc.wait()
        die(f"{workload}: harness exceeded the time budget")
    stop_group(proc)
    if not out.is_file():
        die(f"{workload}: harness exited {rc} without a result")
    doc = load_json(out)
    out.unlink()
    shutil.rmtree(ROOT / work_dir, ignore_errors=True)
    return doc, traces


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(h):
    """BENCHMARK.json's end-to-end metrics plus the workload's own extras."""
    jobs = h["jobs"]
    if not jobs:  # the workload failed before its timed phase
        zero = {"setup_s": (0.0, "s"), "peak_rss_mb": (0.0, "MiB"),
                "throughput_per_s": (0.0, "1/s"), "job_p50_ms": (0.0, "ms")}
        return zero, {"fail_ratio": (1.0, "fraction")}, 1, 1
    wall = sum(j["wall_s"] for j in jobs)
    work = sum(j["work"] for j in jobs)
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    series, numbers = h["series"], h["numbers"]
    m = {
        "setup_s": (median(h["setup_s"]), "s"),
        "peak_rss_mb": (h["peak_rss_kb"] / 1024.0, "MiB"),
        "throughput_per_s": (work / wall if wall else 0.0, "1/s"),
        "job_p50_ms": (1e3 * median([j["wall_s"] for j in jobs]), "ms"),
    }
    extra = {"fail_ratio": (failed / attempted if attempted else 1.0, "fraction"),
             "jobs": (len(jobs), "count")}
    w = h["workload"]
    if w == "figure_sweep":
        units = series.get("unit_ms", [])
        label, q = layers.tail_percentile(len(units))
        extra["sim_ops_per_s"] = (m["throughput_per_s"][0], "ops/s")
        extra["unit_p50_ms"] = (layers.nearest_rank(units, 0.5), "ms")
        extra[f"unit_{label}_ms"] = (layers.nearest_rank(units, q), "ms")
        extra["unit_samples"] = (len(units), "count")
        crit = numbers.get("anchor_cb16_crit_ps", 0.0)
        growth = numbers.get("anchor_cb16_growth_7y_pct", 0.0)
        extra["anchor.cb16_crit_ns"] = (crit / 1e3, "ns")
        extra["anchor.cb16_crit_err_pct"] = (100.0 * (crit / 1880.0 - 1.0), "%")
        extra["anchor.cb16_growth_7y_pct"] = (growth, "%")
        extra["anchor.cb16_growth_err_vs_paper_pts"] = (growth - 13.0, "%")
    elif w == "mc_campaign":
        extra["trials_per_s"] = (m["throughput_per_s"][0], "trials/s")
        extra["sim_ops_per_s"] = (work * numbers["ops_per_trial"] / wall, "ops/s")
    elif w == "fault_firtap":
        extra["trials_per_s"] = (m["throughput_per_s"][0], "trials/s")
        extra["sim_ops_per_s"] = (len(jobs) * numbers["sim_ops_per_job"] / wall,
                                  "ops/s")
        extra["resume_ms"] = (median(series.get("resume_ms", [])), "ms")
    elif w == "serve_mixed":
        lat, cold = series["req_latency_ms"], series["req_cold"]
        hot = [x for x, c in zip(lat, cold) if not c and x >= 0]
        colds = [x for x, c in zip(lat, cold) if c and x >= 0]
        m["job_p50_ms"] = (layers.nearest_rank(hot, 0.5), "ms")
        label, q = layers.tail_percentile(len(hot))
        extra["hot_p50_ms"] = m["job_p50_ms"]
        extra[f"hot_{label}_ms"] = (layers.nearest_rank(hot, q), "ms")
        extra["hot_samples"] = (len(hot), "count")
        extra["cold_p50_ms"] = (layers.nearest_rank(colds, 0.5), "ms")
        extra["cold_samples"] = (len(colds), "count")
        extra["slo_ok_ratio"] = (work / attempted if attempted else 0.0, "fraction")
        late = [x for x in series["req_late_ms"] if x >= 0]
        extra["loadgen.late_p99_ms"] = (layers.nearest_rank(late, 0.99), "ms")
    return m, extra, attempted, failed


def fingerprint(h):
    fp = dict(h["fingerprint"])
    fp["nproc"] = os.cpu_count()
    fp["cpu"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return fp


def commit():
    """Git sha and dirty flag of the tree, when it is a git checkout."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": "unknown", "dirty": None}
    if sha.returncode != 0:
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def checks_of(h, spec, smoke):
    checks = [(c["name"], c["ok"], c["detail"]) for c in h["checks"]]
    pinned = spec["digests"].get(h["workload"])
    if h["seed"] == spec["default_seed"] and not smoke and pinned:
        got = h["warmup"]["digest"]
        checks.append(("pinned_digest", got == pinned, f"{got} vs pinned {pinned}"))
    return checks


def emit(workload, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value!r} {unit}")


def run_once(workload, args, spec, bench):
    """One measured run (plus its traced twin with --trace)."""
    started = time.time()
    deadline = time.monotonic() + RUN_BUDGET_S
    doc, _ = run_harness(workload, args.seed, args.seconds, False, args.smoke,
                         deadline)
    h = doc["harness"]
    e2e, extra, attempted, failed = end_to_end(h)
    checks = checks_of(h, spec, args.smoke)
    emit(workload, e2e)
    emit(workload, extra)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "started": started, "trace": args.trace,
              "digest": h["warmup"]["digest"],
              "fingerprint": fingerprint(h), "commit": commit(),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**e2e, **extra}.items()}}
    result_metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
    if args.trace:
        tdoc, traces = run_harness(workload, args.seed, args.seconds, True,
                                   args.smoke, deadline)
        th = tdoc["harness"]
        checks += [(f"traced:{n}", ok, d)
                   for n, ok, d in checks_of(th, spec, args.smoke)]
        if th["jobs"] and all(p.is_file() for p in traces.values()):
            per_layer, table, spans, dropped = layers.analyze(
                th, tdoc["documents"], traces["harness"], traces.get("daemon"))
            merged = BUILD / "traces" / f"{workload}-seed{args.seed}.merged.json"
            layers.write_merged(merged, spans)
            print(f"agingbench: {workload}: merged trace {merged}",
                  file=sys.stderr)
        else:  # the traced run failed; its checks say why
            per_layer = {m["name"]: (0.0, m["unit"]) for m in bench["per_layer"]}
            table, dropped = [], 0
        for path in traces.values():
            path.unlink(missing_ok=True)
        traced_e2e, _, _, _ = end_to_end(th)
        per_layer["obs.overhead_ratio"] = (
            traced_e2e["job_p50_ms"][0] / e2e["job_p50_ms"][0]
            if e2e["job_p50_ms"][0] else 0.0, "ratio")
        checks.append(("trace_dropped_events_zero", dropped == 0, str(dropped)))
        emit(workload, {f"layer.{n}": (v, u) for n, v, u in table})
        emit(workload, {f"layer.{n}": vu for n, vu in per_layer.items()})
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in per_layer.items()}
        result_metrics = {m["name"]: per_layer[m["name"]]
                          for m in bench["per_layer"]}
    for name, ok, detail in checks:
        if not ok:
            print(f"agingbench: {workload}: check {name} failed: {detail}",
                  file=sys.stderr)
    correct = all(ok for _, ok, _ in checks)
    record.update({"correct": correct, "attempted": attempted, "failed": failed,
                   "finished": time.time()})
    return record, result_metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run [BENCHMARK.json run_seconds]")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--json", metavar="OUT",
                        help="append one JSON record per run to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a 0.3 s timed phase")
    parser.add_argument("--build-only", action="store_true")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        die("--seed must be >= 0")
    if args.reps < 1:
        die("--reps must be >= 1")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        die("BENCHMARK.json is missing")
    bench = load_json(bench_path)
    spec = load_json(HERE / "spec.json")
    if args.seed is None:
        args.seed = spec["default_seed"]
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(bench["run_seconds"])
    if not args.seconds > 0:
        die("--seconds must be > 0")
    build()
    if args.build_only:
        return 0
    workloads = args.workload or WORKLOADS
    records, collected = [], {}
    for _ in range(args.reps):
        for w in workloads:
            record, metrics = run_once(w, args, spec, bench)
            records.append(record)
            for name, vu in metrics.items():
                collected.setdefault((w, name), []).append(vu)
            if args.json:
                with open(args.json, "a") as f:
                    f.write(json.dumps(record) + "\n")
    if len(records) == 1:
        metrics = {name: {"value": vus[0][0], "unit": vus[0][1]}
                   for (_, name), vus in collected.items()}
    else:
        metrics = {f"{w}/{name}": {"value": median([v for v, _ in vus]),
                                   "unit": vus[0][1]}
                   for (w, name), vus in collected.items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer accounting of one traced agingbench run.

Merges the harness's Chrome trace (its spans around each public call plus
the spans the library records itself), agingd's trace and the load
generator's request records into one span list. Every span gets a parent by
containment on its own thread and a request id (the unit index for
campaigns, the request id for serve). Self time, counts and the recorders'
before/after deltas then give the per-layer metrics; layers are the span
name prefixes, i.e. the repo's modules (README.md has the table).
"""

import json
import math
from collections import defaultdict

EPS_US = 0.05  # exported timestamps carry 10 significant digits
# Harness phase markers and client waits are not busy time of any layer.
NOT_A_LAYER = {"bench", "loadgen"}
# Layers whose share of the timed window's busy time is reported.
TIMED_LAYERS = ["sta", "trace", "replay", "pool", "runner", "checkpoint", "mc",
                "campaign", "serve"]
SETUP_LAYERS = ["netlist", "aging", "mc"]
UNIT_SPANS = {"bench.unit", "runner.unit"}
HARNESS_PID, DAEMON_PID, CLIENT_PID = 1, 2, 3


class Span:
    __slots__ = ("id", "name", "start", "end", "pid", "tid", "req", "parent",
                 "child_us")

    def __init__(self, name, start, end, pid, tid, req):
        self.id = 0
        self.name = name
        self.start = start
        self.end = end
        self.pid = pid
        self.tid = tid
        self.req = req
        self.parent = 0
        self.child_us = 0.0

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_us(self):
        return max(0.0, self.dur - self.child_us)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


def nearest_rank(values, q):
    """The repo's quantile convention: the ceil(q*N)-th smallest value."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_percentile(n):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    for label, q in (("p999", 0.999), ("p99", 0.99), ("p95", 0.95),
                     ("p90", 0.90), ("p75", 0.75)):
        if n * (1.0 - q) >= 10.0:
            return label, q
    return "max", 1.0


def load_trace(path, pid):
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for e in doc.get("traceEvents", []):
        start = float(e["ts"])
        spans.append(Span(e["name"], start, start + float(e["dur"]), pid,
                          int(e["tid"]), e.get("args", {}).get("v")))
    return spans, int(doc.get("otherData", {}).get("dropped_events", 0))


def link_parents(spans):
    """Numbers the spans and parents each by containment on its thread."""
    for i, s in enumerate(spans, 1):
        s.id = i
    threads = defaultdict(list)
    for s in spans:
        threads[(s.pid, s.tid)].append(s)
    for lst in threads.values():
        lst.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in lst:
            while stack and stack[-1].end + EPS_US < s.end:
                stack.pop()
            if stack:
                s.parent = stack[-1].id
                stack[-1].child_us += s.dur
            stack.append(s)


def metric_map(doc):
    """name -> metric entry of an obs metrics document (or agingd reply)."""
    if doc is None:
        return {}
    if "result" in doc:
        doc = doc["result"]
    return {m["name"]: m for m in doc.get("metrics", [])}


def deltas(before, after):
    """Counter deltas and histogram bucket deltas between two snapshots."""
    out = {}
    for name, m in after.items():
        b = before.get(name)
        if m["kind"] == "histogram":
            old = b["buckets"] if b else [0] * len(m["buckets"])
            out[name] = {"bounds": m["bounds"],
                         "buckets": [x - y for x, y in zip(m["buckets"], old)]}
        elif m["kind"] == "counter":
            out[name] = m["value"] - (b["value"] if b else 0)
    return out


def histogram_quantile(h, q):
    """Upper bucket bound holding the nearest-rank q quantile (inf: overflow)."""
    total = sum(h["buckets"])
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for i, count in enumerate(h["buckets"]):
        seen += count
        if seen >= rank:
            return h["bounds"][i] if i < len(h["bounds"]) else float("inf")
    return float("inf")


def _client_spans(series, anchor_ts):
    """The load generator's requests as spans on the harness clock."""
    spans = []
    for rid, sched, lat, cold in zip(series.get("req_id", []),
                                     series.get("req_sched_us", []),
                                     series.get("req_latency_ms", []),
                                     series.get("req_cold", [])):
        if lat < 0:
            continue
        start = anchor_ts + sched
        spans.append(Span("loadgen.cold" if cold else "loadgen.hot", start,
                          start + 1e3 * lat, CLIENT_PID, 1, int(rid)))
    return spans


def _daemon_offset(series, anchor_ts, daemon_spans):
    """Shift mapping agingd's clock onto the harness's, from the control
    requests both sides saw (client send/receive midpoint vs. daemon span)."""
    controls = {int(s.req): s for s in daemon_spans
                if s.name == "serve.control" and s.req is not None}
    shifts = []
    for cid, sent, recv in zip(series.get("control_id", []),
                               series.get("control_sent_us", []),
                               series.get("control_recv_us", [])):
        span = controls.get(int(cid))
        if span is not None:
            shifts.append((span.start + span.end) / 2 -
                          (anchor_ts + (sent + recv) / 2))
    return sorted(shifts)[len(shifts) // 2] if shifts else None


def analyze(harness, documents, trace_path, daemon_trace_path=None):
    """Returns (per_layer, table, merged_spans, dropped_events).

    per_layer: name -> (value, unit), the metrics BENCHMARK.json names.
    table: [(name, value, unit)], the full per-layer report.
    """
    spans, dropped = load_trace(trace_path, HARNESS_PID)
    series = harness.get("series", {})
    numbers = harness.get("numbers", {})
    anchor = next((s for s in spans if s.name == "bench.anchor"), None)
    if daemon_trace_path:
        daemon_spans, daemon_dropped = load_trace(daemon_trace_path, DAEMON_PID)
        dropped += daemon_dropped
        shift = _daemon_offset(series, anchor.start, daemon_spans) if anchor else None
        for s in daemon_spans:
            s.start -= shift or 0.0
            s.end -= shift or 0.0
        spans += daemon_spans
        if anchor:
            spans += _client_spans(series, anchor.start)
    link_parents(spans)

    windows = [s for s in spans if s.name == "bench.timed" and s.pid == HARNESS_PID]
    setups = [s for s in spans if s.name == "bench.setup" and s.pid == HARNESS_PID]

    def inside(s, ws):
        return any(w.start - EPS_US <= s.start and s.end <= w.end + EPS_US
                   for w in ws)

    timed = [s for s in spans if inside(s, windows)]
    in_setup = [s for s in spans if s.pid == HARNESS_PID and inside(s, setups)]
    measured_ids = {int(i) for i in series.get("req_id", [])}
    if measured_ids:
        # Daemon spans of a measured request, wherever the clocks put them.
        by_id = {s.id: s for s in spans}

        def root(s):
            while s.parent:
                s = by_id[s.parent]
            return s
        timed = [s for s in timed if s.pid != DAEMON_PID]
        timed += [s for s in spans if s.pid == DAEMON_PID and
                  root(s).name == "serve.handle" and root(s).req in measured_ids]

    table = []
    busy = defaultdict(float)
    for s in timed:
        if s.layer not in NOT_A_LAYER:
            busy[s.layer] += s.self_us
    busy_total = sum(busy.values())
    for layer in sorted(busy):
        table.append((f"{layer}.self_ms", busy[layer] / 1e3, "ms"))
    setup_wall = sum(s.dur for s in setups)
    setup_busy = defaultdict(float)
    for s in in_setup:
        if s.layer not in NOT_A_LAYER:
            setup_busy[s.layer] += s.self_us
    for layer in sorted(setup_busy):
        table.append((f"setup.{layer}.self_ms", setup_busy[layer] / 1e3, "ms"))

    by_name = defaultdict(list)
    for s in timed:
        by_name[s.name].append(s.dur / 1e3)
    for s in in_setup:
        by_name["setup:" + s.name].append(s.dur / 1e3)
    for name in sorted(by_name):
        durs = by_name[name]
        label, q = tail_percentile(len(durs))
        table.append((f"span.{name}.count", len(durs), "count"))
        table.append((f"span.{name}.total_ms", sum(durs), "ms"))
        table.append((f"span.{name}.p50_ms", nearest_rank(durs, 0.5), "ms"))
        table.append((f"span.{name}.{label}_ms", nearest_rank(durs, q), "ms"))

    d = deltas(metric_map(documents.get("metrics_before")),
               metric_map(documents.get("metrics_after")))
    dd = deltas(metric_map(documents.get("daemon_metrics_before")),
                metric_map(documents.get("daemon_metrics_after")))

    def counter(name):
        return d.get(name, 0) + dd.get(name, 0)

    steps = counter("sim.steps_sparse") + counter("sim.steps_dense")
    gates_per_step = numbers.get("mean_gates_per_step", 0.0)
    words = counter("sim.batch.words")
    gates_per_word = numbers.get("mean_gates_per_word", 0.0)
    lanes = harness["fingerprint"]["threads"]
    pool_wall_us = sum(s.dur for s in timed if s.name == "pool.job")
    tails = []
    for job in (s for s in timed if s.name == "pool.job"):
        starts = [u.start for u in timed if u.name in UNIT_SPANS and
                  job.start <= u.start <= job.end]
        if len(starts) >= lanes:
            tails.append((job.end - max(starts)) / 1e3)
    hits, misses = counter("serve.cache_hits"), counter("serve.cache_misses")
    rejected = sum(v for k, v in dd.items() if isinstance(v, int) and
                   (k.startswith("serve.rejected") or k.startswith("serve.shed")))

    per_layer = {}
    for layer in TIMED_LAYERS:
        per_layer[f"{layer}.self_pct"] = (
            100.0 * busy.get(layer, 0.0) / busy_total if busy_total else 0.0, "%")
    for layer in SETUP_LAYERS:
        per_layer[f"setup.{layer}_pct"] = (
            100.0 * setup_busy.get(layer, 0.0) / setup_wall if setup_wall else 0.0,
            "%")
    per_layer.update({
        "sim.ops": (steps + counter("sim.batch.lanes"), "count"),
        "sim.gate_eval_fraction": (
            counter("sim.gates_evaluated") / (steps * gates_per_step)
            if steps and gates_per_step else 0.0, "fraction"),
        "sim.batch.word_eval_fraction": (
            counter("sim.batch.gates_evaluated") / (words * gates_per_word)
            if words and gates_per_word else 0.0, "fraction"),
        "pool.indices": (counter("pool.indices"), "count"),
        "pool.utilization": (
            counter("pool.worker_busy_us") / (pool_wall_us * lanes)
            if pool_wall_us else 0.0, "fraction"),
        "runner.units_computed": (counter("runner.units_computed"), "count"),
        "runner.units_restored": (counter("runner.units_restored"), "count"),
        "runner.retries": (counter("runner.retries"), "count"),
        "runner.units_quarantined": (counter("runner.units_quarantined"), "count"),
        "checkpoint.persisted": (counter("checkpoint.persisted"), "count"),
        "checkpoint.loaded": (counter("checkpoint.loaded"), "count"),
        "mc.trials_completed": (counter("mc.trials_completed"), "count"),
        "campaign.trials_completed": (counter("campaign.trials_completed"), "count"),
        "serve.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                  "fraction"),
        "serve.corner_refills": (counter("serve.corner_refills"), "count"),
        "serve.rejected": (rejected, "count"),
        "obs.dropped_events": (dropped, "count"),
    })

    # Workload-specific detail: printed, never gated.
    table += [("sim.steps_sparse", counter("sim.steps_sparse"), "count"),
              ("sim.steps_dense", counter("sim.steps_dense"), "count"),
              ("sim.batch.words", words, "count"),
              ("pool.jobs", counter("pool.jobs"), "count"),
              ("pool.worker_busy_us", counter("pool.worker_busy_us"), "us"),
              ("mc.blocks_completed", counter("mc.blocks_completed"), "count")]
    if tails:
        table.append(("pool.tail_ms_p50", nearest_rank(tails, 0.5), "ms"))
    if "netlist_gates" in numbers:
        table.append(("netlist.gates", numbers["netlist_gates"], "gates"))
    ops_per_call = numbers.get("ops_per_call", 0.0)
    for layer in ("trace", "replay"):
        calls = [s for s in timed if s.layer == layer]
        if calls and ops_per_call:
            busy_ms = sum(s.dur for s in calls) / 1e3
            table.append((f"{layer}.ops", len(calls) * ops_per_call, "count"))
            table.append((f"{layer}.us_per_op",
                          1e3 * busy_ms / (len(calls) * ops_per_call), "us"))
    for name in ("serve.queue_wait_us", "serve.request_us"):
        if name in dd:
            for label, q in (("p50", 0.5), ("p99", 0.99)):
                table.append((f"{name}_{label}", histogram_quantile(dd[name], q), "us"))
    if "checkpoint_dir_bytes" in numbers:
        table.append(("checkpoint.dir_bytes", numbers["checkpoint_dir_bytes"], "bytes"))
    if measured_ids:
        handles = {s.req: s for s in timed if s.name == "serve.handle"}
        refills = [s.dur / 1e3 for s in timed if s.name == "serve.corner_refill"]
        hot_self = [h.self_us / 1e3 for h in handles.values()]
        table.append(("serve.handle_self_ms_p50", nearest_rank(hot_self, 0.5), "ms"))
        table.append(("serve.corner_refill_ms_p50", nearest_rank(refills, 0.5), "ms"))
        for cls in ("hot", "cold"):
            outside = [c.dur / 1e3 - handles[c.req].dur / 1e3 for c in timed
                       if c.name == f"loadgen.{cls}" and c.req in handles]
            if outside:
                table.append((f"serve.{cls}_outside_handle_ms_p50",
                              nearest_rank(outside, 0.5), "ms"))
    return per_layer, table, spans, dropped


def write_merged(path, spans):
    """Chrome trace of the merged spans, with parent and request ids."""
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        args = {"span": s.id, "parent": s.parent}
        if s.req is not None:
            args["req"] = s.req
        events.append({"name": s.name, "ph": "X", "pid": s.pid, "tid": s.tid,
                       "ts": s.start, "dur": s.dur, "args": args})
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)

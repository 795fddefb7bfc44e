#!/usr/bin/env python3
"""Compare two commits' agingbench result sets.

    python3 bench/perf/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records `run.py --json` appends, from runs of the parent
commit and of the change on the same machine, alternating which side runs
first. The rule is the choosing-metrics one:

  - at least 10 pairs per workload, alternated (pair i = the i-th run of
    each side, in start order);
  - a metric is a win when the change is better in at least 9/10 of the
    pairs (ties count for neither) and the medians differ by more than the
    parent's interquartile range;
  - otherwise it must not be worse than the parent's median by more than
    its bound (BENCHMARK.json end-to-end bounds, spec.json extras), or it
    is a regression; where the parent's own spread is wider than the bound,
    the metric is unresolved unless every change run beats every parent run.

Runs whose environment fingerprints differ are never compared. One row per
workload. Exit code: 0 every gated metric is a win or ok, 1 a regression,
2 refused, 3 no regression but some gated metric unresolved. An unresolved
metric is not evidence of "no change": the comparison could not tell.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
FINGERPRINT_KEYS = ("cpu", "nproc", "threads", "lane_backend", "build_type",
                    "compiler")


class Refused(Exception):
    pass


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint_key(record):
    fp = record["fingerprint"]
    return tuple((k, fp.get(k)) for k in FINGERPRINT_KEYS)


def check_fingerprints(parent, change):
    keys = {fingerprint_key(r) for r in parent + change}
    if len(keys) != 1:
        raise Refused("environment fingerprints differ: " +
                      "; ".join(str(dict(k)) for k in sorted(keys)))


def pairs_of(parent, change):
    """Runs paired in start order; refuses too few or non-alternated pairs."""
    p = sorted(parent, key=lambda r: r["started"])
    c = sorted(change, key=lambda r: r["started"])
    n = min(len(p), len(c))
    if n < MIN_PAIRS:
        raise Refused(f"{n} pairs, need at least {MIN_PAIRS}")
    parent_first = sum(p[i]["started"] < c[i]["started"] for i in range(n))
    if abs(2 * parent_first - n) > 1:
        raise Refused(f"runs not alternated: parent ran first in "
                      f"{parent_first} of {n} pairs")
    return p[:n], c[:n]


def judge(parent_values, change_values, better, bound=None, bound_abs=None):
    """Verdict on one metric: win, ok, regression or unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent_values)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_values, change_values))
    med_p = statistics.median(parent_values)
    med_c = statistics.median(change_values)
    q1, _, q3 = statistics.quantiles(parent_values, n=4)
    iqr = q3 - q1
    gain = sign * (med_c - med_p)
    allowed = bound_abs if bound_abs is not None else bound * abs(med_p)
    all_better = min(sign * c for c in change_values) > max(
        sign * p for p in parent_values)
    if wins >= WIN_SHARE * n and gain > iqr:
        verdict = "win"
    elif iqr > allowed and not all_better:
        verdict = "unresolved"
    elif -gain > allowed:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"verdict": verdict, "parent_median": med_p, "change_median": med_c,
            "parent_iqr": iqr, "wins": wins, "pairs": n}


def compare(parent, change, bench, spec):
    """{workload: {metric: judgement}}; raises Refused."""
    check_fingerprints(parent, change)
    rows = {}
    workloads = sorted({r["workload"] for r in parent} &
                       {r["workload"] for r in change})
    if not workloads:
        raise Refused("no workload appears on both sides")
    for w in workloads:
        p, c = pairs_of([r for r in parent if r["workload"] == w],
                        [r for r in change if r["workload"] == w])
        row = {}
        for m in bench["end_to_end"] + spec["extra_metrics"].get(w, []):
            name = m["name"]
            if not all(name in r["metrics"] for r in p + c):
                continue
            row[name] = judge([r["metrics"][name]["value"] for r in p],
                              [r["metrics"][name]["value"] for r in c],
                              m["better"], m.get("bound"), m.get("bound_abs"))
        rows[w] = row
    return rows


def exit_code(rows):
    verdicts = {j["verdict"] for row in rows.values() for j in row.values()}
    if "regression" in verdicts:
        return 1
    return 3 if "unresolved" in verdicts else 0


def format_row(workload, row):
    cells = []
    for name, j in row.items():
        base = j["parent_median"]
        delta = (f"{100.0 * (j['change_median'] / base - 1.0):+.1f}%"
                 if base else f"{j['change_median'] - base:+.4g}")
        cells.append(f"{name} {j['verdict']} ({delta}, {j['wins']}/{j['pairs']})")
    return f"{workload}: " + "; ".join(cells)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default=str(HERE.parents[1] / "BENCHMARK.json"))
    parser.add_argument("--spec", default=str(HERE / "spec.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    with open(args.spec) as f:
        spec = json.load(f)
    try:
        rows = compare(load_records(args.parent), load_records(args.change),
                       bench, spec)
    except Refused as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        return 2
    for w, row in rows.items():
        print(format_row(w, row))
    unresolved = [f"{w}/{name}" for w, row in rows.items()
                  for name, j in row.items() if j["verdict"] == "unresolved"]
    if unresolved:
        print("compare: UNRESOLVED, the parent's spread exceeds the bound: " +
              ", ".join(unresolved), file=sys.stderr)
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())

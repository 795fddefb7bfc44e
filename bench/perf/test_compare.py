"""The comparator's decisions on synthetic result sets.

    python3 -m unittest discover bench/perf
"""

import random
import unittest

import compare

BENCH = {"end_to_end": [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]}
SPEC = {"extra_metrics": {"serve_mixed": [
    {"name": "slo_ok_ratio", "unit": "fraction", "better": "higher",
     "bound_abs": 0.005}]}}
FINGERPRINT = {"cpu": "Test CPU", "nproc": 4, "threads": 4,
               "lane_backend": "avx2", "build_type": "Release",
               "compiler": "12.2.0"}


def records(side, values, workload="figure_sweep", fingerprint=None,
            parent_first=None):
    """One record per value dict; parent and change alternate who runs first."""
    out = []
    for i, metrics in enumerate(values):
        first = parent_first(i) if parent_first else i % 2 == 0
        offset = 0.0 if (side == "parent") == first else 1.0
        out.append({"workload": workload, "started": 10.0 * i + offset,
                    "fingerprint": dict(fingerprint or FINGERPRINT),
                    "metrics": {k: {"value": v, "unit": ""}
                                for k, v in metrics.items()}})
    return out


def noisy(rng, throughput, latency, spread, n=10):
    return [{"throughput_per_s": throughput * (1 + rng.uniform(-spread, spread)),
             "job_p50_ms": latency * (1 + rng.uniform(-spread, spread))}
            for _ in range(n)]


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)

    def verdicts(self, parent, change, spec=None):
        rows = compare.compare(records("parent", parent), records("change", change),
                               BENCH, spec or {"extra_metrics": {}})
        return {m: j["verdict"] for m, j in rows["figure_sweep"].items()}

    def test_win(self):
        parent = noisy(self.rng, 1000.0, 100.0, 0.01)
        change = noisy(self.rng, 1200.0, 80.0, 0.01)
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput_per_s": "win", "job_p50_ms": "win"})

    def test_tie(self):
        parent = noisy(self.rng, 1000.0, 100.0, 0.01)
        change = noisy(self.rng, 1000.0, 100.0, 0.01)
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput_per_s": "ok", "job_p50_ms": "ok"})

    def test_regression(self):
        parent = noisy(self.rng, 1000.0, 100.0, 0.01)
        change = noisy(self.rng, 850.0, 100.0, 0.01)
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput_per_s": "regression", "job_p50_ms": "ok"})

    def test_small_gain_inside_noise_is_not_a_win(self):
        parent = noisy(self.rng, 1000.0, 100.0, 0.04)
        change = noisy(self.rng, 1010.0, 100.0, 0.04)
        self.assertEqual(self.verdicts(parent, change)["throughput_per_s"], "ok")

    def test_unresolved_when_spread_exceeds_bound(self):
        parent = noisy(self.rng, 1000.0, 100.0, 0.4)
        change = noisy(self.rng, 1000.0, 100.0, 0.4)
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput_per_s": "unresolved",
                          "job_p50_ms": "unresolved"})

    def test_exit_code(self):
        def rows(*verdicts):
            return {"w": {f"m{i}": {"verdict": v} for i, v in enumerate(verdicts)}}
        self.assertEqual(compare.exit_code(rows("win", "ok")), 0)
        self.assertEqual(compare.exit_code(rows("ok", "unresolved")), 3)
        self.assertEqual(compare.exit_code(rows("unresolved", "regression")), 1)

    def test_wide_spread_resolves_when_change_always_better(self):
        parent = [{"throughput_per_s": 1000.0 + 40.0 * i, "job_p50_ms": 100.0}
                  for i in range(10)]
        change = [{"throughput_per_s": 2000.0 + i, "job_p50_ms": 100.0}
                  for i in range(10)]
        self.assertEqual(self.verdicts(parent, change)["throughput_per_s"], "win")

    def test_absolute_bound(self):
        parent = [{"slo_ok_ratio": 1.0} for _ in range(10)]
        change = [{"slo_ok_ratio": 0.99} for _ in range(10)]
        rows = compare.compare(records("parent", parent, "serve_mixed"),
                               records("change", change, "serve_mixed"), BENCH, SPEC)
        self.assertEqual(rows["serve_mixed"]["slo_ok_ratio"]["verdict"], "regression")
        change = [{"slo_ok_ratio": 0.998} for _ in range(10)]
        rows = compare.compare(records("parent", parent, "serve_mixed"),
                               records("change", change, "serve_mixed"), BENCH, SPEC)
        self.assertEqual(rows["serve_mixed"]["slo_ok_ratio"]["verdict"], "ok")

    def test_fingerprint_mismatch_is_refused(self):
        other = dict(FINGERPRINT, lane_backend="generic")
        parent = records("parent", noisy(self.rng, 1000.0, 100.0, 0.01))
        change = records("change", noisy(self.rng, 1000.0, 100.0, 0.01),
                         fingerprint=other)
        with self.assertRaisesRegex(compare.Refused, "fingerprints differ"):
            compare.compare(parent, change, BENCH, {"extra_metrics": {}})

    def test_too_few_pairs_is_refused(self):
        parent = records("parent", noisy(self.rng, 1000.0, 100.0, 0.01, n=9))
        change = records("change", noisy(self.rng, 1000.0, 100.0, 0.01, n=9))
        with self.assertRaisesRegex(compare.Refused, "9 pairs"):
            compare.compare(parent, change, BENCH, {"extra_metrics": {}})

    def test_runs_not_alternated_are_refused(self):
        parent_always = lambda i: True  # noqa: E731
        parent = records("parent", noisy(self.rng, 1000.0, 100.0, 0.01),
                         parent_first=parent_always)
        change = records("change", noisy(self.rng, 1000.0, 100.0, 0.01),
                         parent_first=parent_always)
        with self.assertRaisesRegex(compare.Refused, "not alternated"):
            compare.compare(parent, change, BENCH, {"extra_metrics": {}})


if __name__ == "__main__":
    unittest.main()

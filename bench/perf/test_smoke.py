"""run.py --smoke: every metric BENCHMARK.json names is emitted with its unit.

    python3 -m unittest discover bench/perf

Builds the harness first when needed (that build is not part of the timed
smoke pass); its run records go under build-perf/.
"""

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ["figure_sweep", "mc_campaign", "fault_firtap", "serve_mixed"]


def run(args, timeout):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        built = run(["--build-only"], timeout=900)
        if built.returncode != 0:
            raise RuntimeError("build failed:\n" + built.stderr[-2000:])
        with open(ROOT / "BENCHMARK.json") as f:
            cls.bench = json.load(f)

    def test_every_metric_emitted_with_its_unit(self):
        records_path = ROOT / "build-perf" / "smoke-test.jsonl"
        records_path.unlink(missing_ok=True)
        t0 = time.monotonic()
        proc = run(["--smoke", "--trace", "--json", str(records_path)],
                   timeout=120)
        elapsed = time.monotonic() - t0
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        records = [json.loads(line)
                   for line in records_path.read_text().splitlines()]
        records_path.unlink()
        self.assertLess(elapsed, 15.0)
        self.assertEqual(sorted(r["workload"] for r in records), sorted(WORKLOADS))
        lines = proc.stdout.splitlines()
        for r in records:
            w = r["workload"]
            self.assertTrue(r["correct"], w)
            for m in self.bench["end_to_end"]:
                self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"], w)
                self.assertIn(f"{w} {m['name']} ", proc.stdout)
            for m in self.bench["per_layer"]:
                self.assertEqual(r["per_layer"][m["name"]]["unit"], m["unit"], w)
                self.assertTrue(any(line.startswith(f"{w} layer.{m['name']} ")
                                    and line.endswith(f" {m['unit']}")
                                    for line in lines), (w, m["name"]))
        self.assertTrue(json.loads(lines[-1])["correct"])

    def test_timed_phase_shorter_than_one_request(self):
        # serve_mixed offers 50 req/s in smoke mode: 1 ms is a twentieth of
        # a request slot, yet every workload measures at least one job.
        records_path = ROOT / "build-perf" / "smoke-tiny.jsonl"
        records_path.unlink(missing_ok=True)
        proc = run(["--smoke", "--seconds", "0.001", "--json", str(records_path)],
                   timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        records = [json.loads(line)
                   for line in records_path.read_text().splitlines()]
        records_path.unlink()
        self.assertEqual(sorted(r["workload"] for r in records), sorted(WORKLOADS))
        for r in records:
            self.assertTrue(r["correct"], r["workload"])
            self.assertGreaterEqual(r["attempted"], 1, r["workload"])
            self.assertEqual(r["failed"], 0, r["workload"])

    def test_single_run_result_line(self):
        # One run's result is the last stdout line, its metrics exactly the
        # ones BENCHMARK.json names.
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(["--smoke", "--workload", "fault_firtap", "--seed", "3",
                        "--seconds", "0.3", "--trace", trace], timeout=120)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual({n: v["unit"] for n, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in self.bench[key]})


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Covers the statistics the benchmark reports (median, percentiles and
the ten-samples-beyond rule, with the sample counts stated in each
test), failure accounting, metric-name and unit validity against
BENCHMARK.json, the per-layer aggregation of spans, and a minimum-size
smoke pass of every workload in both modes that validates the shape of
the result line.

    python3 perfbench/tests/test_perfbench.py
    PERFBENCH_SKIP_SMOKE=1 python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout. The smoke pass builds the simulator
(into $CARGO_TARGET_DIR, default .bench_build) the first time.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import perfstats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(perfstats.median([3.0, 1.0, 2.0]), 2.0)  # n=3
        self.assertEqual(perfstats.median([4.0, 1.0, 3.0, 2.0]), 2.5)  # n=4
        self.assertEqual(perfstats.median([]), 0.0)

    def test_linear_interpolation_on_100_samples(self):
        v = [float(i) for i in range(1, 101)]  # n=100: 1..100
        self.assertAlmostEqual(perfstats.percentile(v, 0.5), 50.5)
        self.assertAlmostEqual(perfstats.percentile(v, 0.9), 90.1)
        self.assertEqual(perfstats.percentile(v, 0.0), 1.0)
        self.assertEqual(perfstats.percentile(v, 1.0), 100.0)

    def test_order_does_not_matter(self):
        v = [float(i) for i in range(1, 101)]  # n=100, shuffled
        random.Random(7).shuffle(v)
        self.assertAlmostEqual(perfstats.percentile(v, 0.9), 90.1)

    def test_quartiles_match_statistics_inclusive(self):
        rng = random.Random(11)
        for n in (2, 5, 10, 37, 162):
            v = [rng.uniform(0, 100) for _ in range(n)]
            q = statistics.quantiles(v, n=4, method="inclusive")
            for k in range(3):
                self.assertAlmostEqual(
                    perfstats.percentile(v, (k + 1) / 4), q[k], msg=f"n={n}")

    def test_ten_samples_beyond_p90_needs_100_samples(self):
        v100 = [float(i) for i in range(100)]  # n=100: p90 = 89.1
        self.assertEqual(perfstats.samples_beyond(v100, 0.9), 10)
        v90 = [float(i) for i in range(90)]  # n=90: p90 = 80.1
        self.assertEqual(perfstats.samples_beyond(v90, 0.9), 9)
        self.assertEqual(perfstats.samples_beyond([5.0] * 200, 0.9), 0)

    def test_single_and_empty_samples(self):
        self.assertEqual(perfstats.percentile([4.2], 0.9), 4.2)  # n=1
        self.assertEqual(perfstats.percentile([], 0.9), 0.0)  # n=0


class FailureAccounting(unittest.TestCase):
    def test_nothing_attempted_is_not_correct(self):
        self.assertFalse(perfstats.Checks().correct)

    def test_attempts_and_failures_count_once_each(self):
        c = perfstats.Checks()
        c.check(True, "a")
        c.check(False, "b")
        c.check(True, "c")
        self.assertEqual((c.attempted, c.failed), (3, 1))
        self.assertEqual(c.messages, ["b"])
        self.assertFalse(c.correct)

    def test_driver_counts_carry_over(self):
        c = perfstats.Checks(500, 0, [])
        c.check(True, "digest")
        self.assertEqual((c.attempted, c.failed, c.correct), (501, 0, True))

    def test_too_few_latency_samples_fail_the_run(self):
        raw = {"series": {"submit_ms": [1.0] * 50, "setup_s": [0.1],
                          "campaign_s": [1.0], "max_rss_mb": [10.0],
                          "paper_err_pct": [1.6]}}  # n=50 latencies
        c = perfstats.Checks()
        perfstats.end_to_end_metrics(raw, c)
        self.assertEqual((c.attempted, c.failed), (1, 1))
        raw["series"]["submit_ms"] = [float(i) for i in range(100)]
        c = perfstats.Checks()
        perfstats.end_to_end_metrics(raw, c)
        self.assertEqual((c.attempted, c.failed), (1, 0))

    def test_result_line_shape(self):
        c = perfstats.Checks(3, 0)
        line = perfstats.result_line(c, {"setup_s": 0.5}, {"setup_s": "s"})
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.5, "unit": "s"})


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_valid(self):
        for table in (perfstats.END_TO_END, perfstats.PER_LAYER):
            for name, unit in table.items():
                self.assertTrue(perfstats.valid_name(name), name)
                self.assertTrue(perfstats.valid_unit(unit), unit)

    def test_invalid_names_are_rejected(self):
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertFalse(perfstats.valid_name(bad), bad)
        self.assertTrue(perfstats.valid_name("sim.c8_ms"))
        self.assertFalse(perfstats.valid_unit("m s"))

    def test_no_name_is_used_twice(self):
        self.assertFalse(set(perfstats.END_TO_END) & set(perfstats.PER_LAYER))

    def test_benchmark_json_matches_the_definitions(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        self.assertGreaterEqual(len(names), 2)
        self.assertLessEqual(set(names), set(perfstats.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         perfstats.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         perfstats.PER_LAYER)
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class PerLayerAggregation(unittest.TestCase):
    @staticmethod
    def span(name, rep, ms, **attrs):
        return {"id": 0, "parent": 0, "rep": rep, "name": name,
                "start_ns": 0, "end_ns": int(ms * 1e6), **attrs}

    def test_per_repetition_sums_then_median(self):
        s = self.span
        spans = [s("rep", 1, 100), s("rep", 3, 100), s("rep", 5, 100),
                 s("fingerprint", 1, 1), s("fingerprint", 1, 1),
                 s("fingerprint", 3, 3), s("fingerprint", 5, 5),
                 s("sim.point", 1, 10, source="simulated", runtime="tdm",
                   cores=32, tasks=1000),
                 s("sim.point", 1, 4, source="forked", runtime="sw",
                   cores=8, tasks=10),
                 s("sim.point", 3, 20, source="memory", runtime="tdm")]
        raw = {"series": {"campaign_s": [1.0, 1.0], "traced_campaign_s":
                          [1.1, 1.1], "sse.dropped": [1, 2]}}
        m = perfstats.per_layer_metrics(raw, spans)
        self.assertEqual(set(m), set(perfstats.PER_LAYER))
        self.assertAlmostEqual(m["spec.fingerprint_ms"], 3.0)  # 2, 3, 5
        self.assertAlmostEqual(m["sim.cold_ms"], 0.0)  # 10, 0, 0
        self.assertAlmostEqual(m["sim.point_ms_p50"], 10.0)
        self.assertAlmostEqual(m["sim.host_ns_per_task"], 1e4)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertEqual(m["sse.dropped"], 3)

    def test_fork_legs(self):
        s = self.span
        spans = [s("fork.run", 0, 10, kind="leader"),
                 s("driver.run", 0, 8, kind="capture_baseline"),
                 s("fork.run", 0, 6, kind="warm"),
                 s("fork.run", 0, 1, kind="final"),
                 s("fork.run", 0, 1, kind="final")]
        m = perfstats.per_layer_metrics({"series": {}}, spans)
        self.assertAlmostEqual(m["fork.capture_overhead_ms"], 2.0)
        self.assertEqual((m["fork.warm_legs"], m["fork.final_legs"]), (1, 2))
        self.assertAlmostEqual(m["fork.final_ms"], 2.0)


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE"),
                 "PERFBENCH_SKIP_SMOKE set")
class Smoke(unittest.TestCase):
    """Every workload, both modes, at the smallest run length."""

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_output_shape(self):
        for workload in perfstats.WORKLOADS:
            for trace, names in ((0, perfstats.END_TO_END),
                                 (1, perfstats.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    r = self.run_bench(workload, trace)
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertIs(r["correct"], True)
                    self.assertIsInstance(r["attempted"], int)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(set(r["metrics"]), set(names))
                    for name, m in r["metrics"].items():
                        self.assertEqual(set(m), {"value", "unit"})
                        self.assertEqual(m["unit"], names[name])
                        self.assertIsInstance(m["value"], (int, float))
                    if trace == 0:
                        for name, m in r["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark's metric math, and (with --repeat) of its
determinism: on two seeds, `ap`, `acc20_norm` and the output checks must
repeat exactly from run to run.

    python3 e2ebench/test_metrics.py            # metric math, instant
    python3 e2ebench/test_metrics.py --repeat   # + 16 short benchmark runs
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics as m  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(m.percentile(values, 50), 50)
        self.assertEqual(m.percentile(values, 90), 90)
        self.assertEqual(m.percentile(values, 99), 99)
        self.assertEqual(m.percentile(values, 100), 100)
        self.assertEqual(m.percentile([7.0], 90), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(m.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            m.percentile([], 50)

    def test_highest_supported_needs_ten_samples_beyond(self):
        # p90 of 100 samples leaves exactly 10 beyond it: supported.
        self.assertEqual(m.tail_samples(100, 90), 10)
        self.assertEqual(m.highest_supported_percentile(100), 90)
        # 99 samples leave 9 beyond p90: only the median is supported.
        self.assertEqual(m.highest_supported_percentile(99), 50)
        # p99 needs 1000 samples, p99.9 needs 10000.
        self.assertEqual(m.highest_supported_percentile(999), 90)
        self.assertEqual(m.highest_supported_percentile(1000), 99)
        self.assertEqual(m.highest_supported_percentile(10000), 99.9)
        # Fewer than 20 samples support nothing.
        self.assertIsNone(m.highest_supported_percentile(19))
        self.assertEqual(m.highest_supported_percentile(20), 50)


class AveragePrecisionTest(unittest.TestCase):
    def test_perfect_ranking(self):
        self.assertAlmostEqual(m.average_precision([1, 1, 1, 0, 0], 3), 1.0)

    def test_hand_computed(self):
        # Relevant at ranks 1, 3, 6: (1/1 + 2/3 + 3/6) / 3.
        rel = [1, 0, 1, 0, 0, 1, 0]
        self.assertAlmostEqual(m.average_precision(rel, 3),
                               (1.0 + 2.0 / 3.0 + 0.5) / 3.0)

    def test_worst_ranking(self):
        # Both relevant items last of four: (1/3 + 2/4) / 2.
        self.assertAlmostEqual(m.average_precision([0, 0, 1, 1], 2),
                               (1.0 / 3.0 + 0.5) / 2.0)

    def test_unretrieved_relevant_items_count_as_zero(self):
        # Two relevant items exist, the ranking reaches one, at rank 1.
        self.assertAlmostEqual(m.average_precision([1, 0], 2), 0.5)

    def test_nothing_relevant_is_undefined(self):
        self.assertIsNone(m.average_precision([0, 0, 0], 0))


class Acc20NormTest(unittest.TestCase):
    def test_full_ceiling(self):
        rel = [1] * 10 + [0] * 30
        self.assertAlmostEqual(m.acc_at_n_normalized(rel, 50), 0.5)

    def test_ceiling_below_twenty_relevant(self):
        # 5 relevant bags: accuracy@20 can reach only 5/20, which is 1.0
        # once normalized by the ceiling min(1, 5/20).
        rel = [1] * 5 + [0] * 35
        self.assertAlmostEqual(m.acc_at_n_normalized(rel, 5), 1.0)
        rel = [1, 1] + [0] * 38
        self.assertAlmostEqual(m.acc_at_n_normalized(rel, 5), 0.4)

    def test_short_ranking(self):
        # Fewer than 20 ranked bags: missing slots count as misses.
        self.assertAlmostEqual(m.acc_at_n_normalized([1, 1, 0], 2), 1.0)

    def test_nothing_relevant_is_undefined(self):
        self.assertIsNone(m.acc_at_n_normalized([0] * 20, 0))


class OkRateTest(unittest.TestCase):
    def test_refused_requests_are_failures(self):
        # 100 attempted, 3 refused with RESOURCE_EXHAUSTED, 1 error.
        self.assertAlmostEqual(m.ok_rate(96, 100), 0.96)

    def test_all_ok(self):
        self.assertEqual(m.ok_rate(7, 7), 1.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            m.ok_rate(0, 0)


class AggregationTest(unittest.TestCase):
    def test_quality_skips_sessions_without_relevant_bags(self):
        sessions = [{"rel": "1100", "relevant": 2},
                    {"rel": "0000", "relevant": 0}]
        ap, acc = m.quality_from_sessions(sessions)
        self.assertAlmostEqual(ap, 1.0)
        self.assertAlmostEqual(acc, 1.0)


class ContractTest(unittest.TestCase):
    """run.py reports exactly the metrics BENCHMARK.json declares."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        import run
        self.run = run

    def test_end_to_end_names_and_units(self):
        raw = {"latency_ms": [1.0] * 100, "quality": [{"rel": "10", "relevant": 1}],
               "setup_s": [0.5], "work_units": 10, "timed_wall_s": 2.0,
               "ok": 9, "attempted": 10, "peak_rss_mb": 12.0,
               "latency_op": "round_ms"}
        metrics, _ = self.run.end_to_end(raw)
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        self.assertAlmostEqual(metrics["ok_rate"]["value"], 0.9)
        self.assertAlmostEqual(metrics["throughput_per_s"]["value"], 5.0)

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        listed = {name: spec[3] for name, spec in self.run.PER_LAYER.items()}
        for workload in self.run.WORKLOADS:
            listed[workload + ".attributed_share"] = "ratio"
            listed[workload + ".trace_overhead"] = "ratio"
        self.assertEqual(listed, declared)

    def test_workloads(self):
        # fleet_multicam runs by hand and in the traced run, but is not one
        # of the benchmark's timed workloads (see README.md).
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         tuple(w for w in self.run.WORKLOADS
                               if w != "fleet_multicam"))


def repeat_check():
    """Runs every workload twice on each of two seeds; ap, acc20_norm and
    the output checks must be identical between the two runs."""
    root = os.path.dirname(HERE)
    failures = 0
    for workload in ("vision_offline", "session_interactive", "ingest_live",
                     "fleet_multicam"):
        for seed in (11, 12):
            seen = []
            for _ in range(2):
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds", "3", "--trace", "0"],
                    cwd=root, stdout=subprocess.PIPE, text=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                seen.append((result["correct"], result["metrics"]["ap"]["value"],
                             result["metrics"]["acc20_norm"]["value"]))
            same = seen[0] == seen[1] and seen[0][0]
            failures += 0 if same else 1
            print("%-20s seed %d: correct=%s ap=%r acc20_norm=%r %s" % (
                workload, seed, seen[0][0], seen[0][1], seen[0][2],
                "repeats" if same else "DIFFERS: %r" % (seen,)))
    return failures == 0


if __name__ == "__main__":
    repeat = "--repeat" in sys.argv
    argv = [a for a in sys.argv if a != "--repeat"]
    result = unittest.main(argv=argv, exit=False).result
    ok = result.wasSuccessful()
    if repeat:
        ok = repeat_check() and ok
    sys.exit(0 if ok else 1)

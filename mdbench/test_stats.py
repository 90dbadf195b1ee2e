"""Tests for the benchmark's own logic: python3 -m unittest discover mdbench"""

import os
import tempfile
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.50), 50)
        self.assertEqual(stats.percentile(values, 0.90), 90)

    def test_refuses_thin_tail(self):
        values = list(range(1, 101))
        # p90 of 100 has exactly 10 samples beyond it; p95 only 5.
        stats.percentile(values, 0.90)
        with self.assertRaises(stats.BenchError):
            stats.percentile(values, 0.95)
        with self.assertRaises(stats.BenchError):
            stats.percentile([], 0.5)

    def test_sample_counts_the_benchmark_relies_on(self):
        # p95 needs 200 samples (slices), p99 1,000 (latencies).
        for q, n in ((0.95, 200), (0.99, 1000)):
            stats.percentile(list(range(n)), q)
            with self.assertRaises(stats.BenchError):
                stats.percentile(list(range(n - 1)), q)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 40
        self.assertEqual(stats.percentile(values, 0.5), 3)


class SliceTest(unittest.TestCase):
    def test_pairs_to_slices(self):
        # The gap between one slice's end and the next start (a reference
        # chunk) is not counted.
        clock = [0, 1_000_000, 5_000_000, 7_000_000]
        self.assertEqual(stats.slice_cpu_ms(clock), [1.0, 2.0])

    def test_needs_start_end_pairs(self):
        for bad in ([], [5], [1, 2, 3]):
            with self.assertRaises(stats.BenchError):
                stats.slice_cpu_ms(bad)

    def test_clock_must_not_go_backwards(self):
        with self.assertRaises(stats.BenchError):
            stats.slice_cpu_ms([10, 5])
        with self.assertRaises(stats.BenchError):
            stats.slice_cpu_ms([0, 10, 8, 20])


class SpeedFactorTest(unittest.TestCase):
    def test_scales_to_reference_chunk(self):
        nominal_ns = stats.REF_CHUNK_MS * 1e6
        # Chunks twice as slow as on the reference machine halve host times.
        self.assertAlmostEqual(
            stats.speed_factor([2 * nominal_ns] * 3 + [99 * nominal_ns]), 0.5)

    def test_needs_a_chunk(self):
        with self.assertRaises(stats.BenchError):
            stats.speed_factor([])


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        rows = [
            ["complete", -1, 0, 100],
            ["gen", 0, 10, 20],
            ["submit", 0, 30, 70],
            ["gen", -1, 200, 205],
        ]
        self.assertEqual(stats.self_times(rows),
                         {"complete": 50, "gen": 15, "submit": 40})

    def test_overlapping_children_counted_once(self):
        rows = [["p", -1, 0, 100], ["c", 0, 10, 60], ["c", 0, 40, 80]]
        self.assertEqual(stats.self_times(rows)["p"], 30)

    def test_child_clipped_to_parent(self):
        rows = [["p", -1, 0, 100], ["c", 0, 90, 150]]
        self.assertEqual(stats.self_times(rows)["p"], 90)

    def test_nested_grandchildren(self):
        rows = [["a", -1, 0, 100], ["b", 0, 0, 50], ["c", 1, 0, 20]]
        self.assertEqual(stats.self_times(rows),
                         {"a": 50, "b": 30, "c": 20})


class DigestTest(unittest.TestCase):
    def test_repeats_must_match(self):
        windows = [{"subrun": 0, "digest": "a"}, {"subrun": 1, "digest": "b"},
                   {"subrun": 0, "digest": "a"}, {"subrun": 1, "digest": "b"}]
        self.assertEqual(stats.digest_mismatches(windows), [])
        windows[3]["digest"] = "c"
        bad = stats.digest_mismatches(windows)
        self.assertEqual(len(bad), 1)
        self.assertIn("sub-run 1", bad[0])

    def test_store_compares_across_runs(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "digests.json")
            self.assertIsNone(stats.DigestStore(path).check_and_record("k", "a"))
            store = stats.DigestStore(path)
            self.assertIsNone(store.check_and_record("k", "a"))
            self.assertIsNotNone(store.check_and_record("k", "b"))
            self.assertIsNone(store.check_and_record("other", "b"))


class ZoneLayerTest(unittest.TestCase):
    def test_rollup(self):
        self.assertEqual(stats.zone_layer("nn.op.rename"), "hopsfs.nn")
        self.assertEqual(stats.zone_layer("ndb.tc.sweep"), "ndb.background")
        self.assertEqual(stats.zone_layer("ndb.tc.keyop"), "ndb.tc")
        self.assertEqual(stats.zone_layer("ndb.redo.flush"), "ndb.redo")
        self.assertEqual(stats.zone_layer("ndb.gcp.close_epochs"),
                         "ndb.background")
        self.assertEqual(stats.zone_layer("mystery"), "other")


if __name__ == "__main__":
    unittest.main()

"""Unit tests for perfbench/stats.py.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        self.assertEqual(stats.percentile(values, 50), 100)
        self.assertEqual(stats.percentile(values, 95), 190)

    def test_requires_ten_samples_beyond(self):
        values = list(range(1, 200))  # 199 samples: p95 is rank 190
        with self.assertRaises(stats.NotEnoughSamples):
            stats.percentile(values, 95)
        self.assertEqual(stats.percentile(values + [200], 95), 190)

    def test_min_samples_matches_percentile(self):
        for q in (50, 90, 95, 99):
            n = stats.min_samples(q)
            stats.percentile(list(range(n)), q)
            with self.assertRaises(stats.NotEnoughSamples):
                stats.percentile(list(range(n - 1)), q)
        self.assertEqual(stats.min_samples(95), 200)
        self.assertEqual(stats.min_samples(50), 20)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(stats.percentile(values, 50),
                         stats.percentile(sorted(values), 50))

    def test_rejects_bad_percentile(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 50, 0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 50, 101)


class WindowedTest(unittest.TestCase):
    def test_single_window_is_plain_percentile(self):
        values = [float(v) for v in range(250)]
        self.assertEqual(stats.window_percentiles(values, 95),
                         [stats.percentile(values, 95)])

    def test_windows_are_contiguous(self):
        values = [float(i // 20) for i in range(400)]  # 20 windows of 20
        self.assertEqual(stats.window_percentiles(values, 50),
                         [float(i) for i in range(20)])

    def test_window_count_keeps_enough_samples(self):
        values = [float(v % 7) for v in range(399)]  # one window for p95
        self.assertEqual(stats.window_percentiles(values, 95),
                         [stats.percentile(values, 95)])
        with self.assertRaises(stats.NotEnoughSamples):
            stats.window_percentiles(values[:150], 95)

    def test_window_rates(self):
        times = [i * 0.01 for i in range(1000)]  # 100 per second for 10 s
        rates = stats.window_rates(times, 10.0)
        self.assertEqual(len(rates), 20)
        for r in rates:
            self.assertAlmostEqual(r, 100.0)
        stalled = [t for t in times if t >= 1.0]  # first second empty
        self.assertEqual(stats.window_rates(stalled, 10.0)[:2], [0.0, 0.0])


class TrimmedMeanTest(unittest.TestCase):
    def test_drops_a_tenth_at_each_end(self):
        values = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0]
        self.assertAlmostEqual(stats.trimmed_mean(values), 4.5)

    def test_few_values_are_a_plain_mean(self):
        self.assertAlmostEqual(stats.trimmed_mean([3.0, 5.0]), 4.0)
        self.assertEqual(stats.trimmed_mean([7.0]), 7.0)

    def test_one_stalled_window_does_not_move_result(self):
        steady = [1.0, 2.0, 3.0, 4.0] * 100     # 20 windows of 20
        stalled = list(steady)
        stalled[:20] = [100.0] * 20              # one window stalled
        self.assertEqual(
            stats.trimmed_mean(stats.window_percentiles(steady, 50)),
            stats.trimmed_mean(stats.window_percentiles(stalled, 50)))
        times = [i * 0.01 for i in range(1000) if i >= 50]  # 0.5 s idle
        self.assertAlmostEqual(
            stats.trimmed_mean(stats.window_rates(times, 10.0)), 100.0)


class MedianQuartileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)

    def test_quartiles_match_statistics_module(self):
        values = [1.2, 0.8, 1.0, 1.1, 0.9, 1.05, 0.95, 1.3, 0.7, 1.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread(self):
        values = [10.0] * 10
        self.assertEqual(stats.spread(values), 0.0)
        values = [8, 9, 10, 11, 12, 8, 9, 10, 11, 12]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(stats.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(10.0, 11.0, "higher"), -0.1)
        self.assertAlmostEqual(stats.worse_by(10.0, 9.0, "higher"), 0.1)


class RatioTest(unittest.TestCase):
    def test_value_and_base(self):
        r = stats.Ratio(27, 100)
        self.assertAlmostEqual(r.value, 0.27)
        self.assertEqual(r.base, 100)
        self.assertIn("27 of 100", str(r))

    def test_zero_base(self):
        r = stats.Ratio(0, 0)
        self.assertEqual(r.value, 0.0)
        self.assertIn("0 of 0", str(r))


class NameGrammarTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "primary_p50_ms", "service.hit_ratio",
                     "live-sharded", "9lives", "a" * 64):
            self.assertTrue(stats.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "-x", "a b", "p50/ms", "a" * 65,
                     "naïve", None, 3):
            self.assertFalse(stats.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "ratio", "MB"):
            self.assertTrue(stats.valid_unit(unit), unit)
        for unit in ("", "m s", "x" * 17):
            self.assertFalse(stats.valid_unit(unit), unit)


if __name__ == "__main__":
    unittest.main()

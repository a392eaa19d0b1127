"""Tests of the benchmark's percentile and tail code on known samples.

    python3 perfbench/test_stats.py
"""

import os
import random
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_one_to_hundred(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile(samples, 100), 100)
        self.assertEqual(stats.percentile(samples, 0.5), 1)

    def test_order_of_input_does_not_matter(self):
        samples = list(range(1, 101))
        shuffled = samples[:]
        random.Random(7).shuffle(shuffled)
        for q in (1, 25, 50, 75, 99, 100):
            self.assertEqual(stats.percentile(shuffled, q),
                             stats.percentile(samples, q))

    def test_odd_count_median_rank(self):
        self.assertEqual(stats.percentile([5.0, 1.0, 3.0], 50), 3.0)
        self.assertEqual(stats.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class TailTest(unittest.TestCase):
    def test_median_of_iteration_maxima(self):
        iterations = [[1.0, 9.0, 2.0], [4.0, 3.0], [7.0, 5.0, 6.0, 1.0]]
        self.assertEqual(stats.tail(iterations), (7.0, 3, 4))

    def test_even_iteration_count_averages_the_middle_maxima(self):
        iterations = [[1.0, 2.0], [10.0], [3.0, 4.0], [0.5, 8.0]]
        self.assertEqual(stats.tail(iterations), (6.0, 4, 2))

    def test_a_minority_of_slow_iterations_does_not_move_it(self):
        rng = random.Random(5)
        iterations = [[rng.uniform(1.0, 2.0) for _ in range(18)]
                      for _ in range(40)]
        value, count, size = stats.tail(iterations)
        self.assertEqual((count, size), (40, 18))
        # One stalled request in each of 10 of the 40 iterations: the
        # median maximum stays a maximum of the ordinary samples.
        for samples in iterations[:10]:
            samples[rng.randrange(18)] = 1000.0
        stalled, _, _ = stats.tail(iterations)
        self.assertLess(stalled, 2.0)
        self.assertGreaterEqual(stalled, value)

    def test_order_within_an_iteration_does_not_matter(self):
        samples = [float(v) for v in range(1, 101)]
        shuffled = samples[:]
        random.Random(7).shuffle(shuffled)
        self.assertEqual(stats.tail([samples]), stats.tail([shuffled]))
        self.assertEqual(stats.tail([samples])[0], 100.0)

    def test_rejects_no_iterations_and_empty_ones(self):
        with self.assertRaises(ValueError):
            stats.tail([])
        with self.assertRaises(ValueError):
            stats.tail([[1.0], []])


if __name__ == "__main__":
    unittest.main()

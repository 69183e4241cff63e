#!/usr/bin/env python3
"""Unit tests of compare_serve.py on synthetic runs.

    python3 servebench/test_compare_serve.py
"""

import unittest

from compare_serve import CompareError, compare, end_to_end_specs

SPECS = end_to_end_specs({"end_to_end": [
    {"name": "throughput_sps", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]})


def jitter(i, amplitude):
    """A fixed, repeatable wobble in [-amplitude, +amplitude]."""
    return amplitude * (((i * 7) % 5) - 2) / 2


def sides(parent_metrics, change_metrics, pairs=10, parent_failed=0, change_failed=0):
    """Builds `pairs` parent/change runs of workload "w"; the side that
    starts first alternates. *_metrics map name -> f(i) giving run i's value."""
    def run(started_at, metrics, failed, i):
        return {"started_at": started_at, "workloads": {"w": {
            "failed": failed,
            "metrics": {name: {"value": f(i), "unit": ""} for name, f in metrics.items()},
        }}}
    parent, change = [], []
    for i in range(pairs):
        parent_first = i % 2 == 0
        parent.append(run(2 * i + (0 if parent_first else 1), parent_metrics,
                          parent_failed, i))
        change.append(run(2 * i + (1 if parent_first else 0), change_metrics,
                          change_failed, i))
    return parent, change


def steady(base, amplitude=0.01):
    return lambda i: base * (1 + jitter(i, amplitude))


def verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


BASELINE = {"throughput_sps": steady(1000), "latency_p50_ms": steady(2.0),
            "error_rate": lambda i: 0.0}


class CompareServeTest(unittest.TestCase):
    def test_same_code_is_unchanged(self):
        parent, change = sides(BASELINE, BASELINE)
        self.assertEqual(verdicts(compare(parent, change, SPECS)),
                         {"throughput_sps": "unchanged", "latency_p50_ms": "unchanged",
                          "error_rate": "unchanged"})

    def test_clear_gain(self):
        faster = dict(BASELINE, throughput_sps=steady(1150))
        rows = compare(*sides(BASELINE, faster), SPECS)
        self.assertEqual(verdicts(rows)["throughput_sps"], "gain")
        self.assertEqual(verdicts(rows)["latency_p50_ms"], "unchanged")
        row = next(r for r in rows if r["metric"] == "throughput_sps")
        self.assertEqual(row["win_fraction"], 1.0)
        self.assertAlmostEqual(row["delta"], 0.15, places=6)

    def test_gain_needs_nine_tenths_of_pairs(self):
        # Better median, but the change loses two pairs in ten.
        mostly = dict(BASELINE, throughput_sps=lambda i: 900.0 if i < 2 else 1150.0)
        rows = compare(*sides(BASELINE, mostly), SPECS)
        self.assertNotEqual(verdicts(rows)["throughput_sps"], "gain")

    def test_regression(self):
        slower = dict(BASELINE, latency_p50_ms=steady(2.5))
        self.assertEqual(verdicts(compare(*sides(BASELINE, slower), SPECS))["latency_p50_ms"],
                         "regression")

    def test_worsening_within_bound_is_not_a_regression(self):
        slightly = dict(BASELINE, latency_p50_ms=steady(2.1))
        self.assertEqual(
            verdicts(compare(*sides(BASELINE, slightly), SPECS))["latency_p50_ms"],
            "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = dict(BASELINE, latency_p50_ms=steady(2.0, amplitude=0.4))
        self.assertEqual(verdicts(compare(*sides(noisy, noisy), SPECS))["latency_p50_ms"],
                         "unresolved")

    def test_wide_spread_still_resolves_when_every_change_run_is_better(self):
        parent = dict(BASELINE, latency_p50_ms=steady(10.0, amplitude=0.4))
        change = dict(BASELINE, latency_p50_ms=steady(3.0, amplitude=0.4))
        self.assertEqual(verdicts(compare(*sides(parent, change), SPECS))["latency_p50_ms"],
                         "gain")

    def test_p99_is_reported_without_a_verdict(self):
        parent = dict(BASELINE, latency_p99_ms=steady(5.0, amplitude=0.4))
        change = dict(BASELINE, latency_p99_ms=steady(9.0, amplitude=0.4))
        rows = compare(*sides(parent, change), SPECS)
        self.assertEqual(verdicts(rows)["latency_p99_ms"], "reported")
        row = next(r for r in rows if r["metric"] == "latency_p99_ms")
        self.assertAlmostEqual(row["delta"], 0.8, places=6)

    def test_error_rate_rise_is_a_regression_and_voids_gains(self):
        failing = dict(BASELINE, throughput_sps=steady(1150),
                       error_rate=lambda i: 0.001)
        rows = compare(*sides(BASELINE, failing, change_failed=3), SPECS)
        self.assertEqual(verdicts(rows)["error_rate"], "regression")
        self.assertEqual(verdicts(rows)["throughput_sps"], "unchanged")

    def test_more_failed_statements_is_a_regression_even_at_zero_median(self):
        rows = compare(*sides(BASELINE, BASELINE, change_failed=1), SPECS)
        self.assertEqual(verdicts(rows)["error_rate"], "regression")

    def test_metric_missing_from_some_runs_is_an_error(self):
        parent, change = sides(BASELINE, BASELINE)
        del change[3]["workloads"]["w"]["metrics"]["latency_p50_ms"]
        with self.assertRaises(CompareError):
            compare(parent, change, SPECS)
        parent, change = sides(BASELINE, BASELINE)
        parent[0]["workloads"]["w"]["metrics"]["throughput_sps"]["value"] = None
        with self.assertRaises(CompareError):
            compare(parent, change, SPECS)

    def test_workload_missing_from_a_run_is_an_error(self):
        parent, change = sides(BASELINE, BASELINE)
        del change[5]["workloads"]["w"]
        with self.assertRaises(CompareError):
            compare(parent, change, SPECS)

    def test_needs_ten_pairs(self):
        with self.assertRaises(CompareError):
            compare(*sides(BASELINE, BASELINE, pairs=9), SPECS)

    def test_first_side_must_alternate(self):
        parent, change = sides(BASELINE, BASELINE)
        change[1]["started_at"], parent[1]["started_at"] = \
            parent[1]["started_at"], change[1]["started_at"]
        with self.assertRaises(CompareError):
            compare(parent, change, SPECS)


if __name__ == "__main__":
    unittest.main()

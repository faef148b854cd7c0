#!/usr/bin/env python3
"""Unit tests of scripts/ab_bench.py's comparator on fixture JSON pairs.

Runs without a build: every case hands compare() the parsed BENCH_*.json
of a few base/head pairs. Run directly or through ctest.
"""

import importlib.util
import json
import os
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "ab_bench.py")
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def doc(*metrics):
    """One bench run's JSON, round-tripped through the text format."""
    return json.loads(json.dumps({
        "kernels": [],
        "metrics": [{"name": name, "value": value, "unit": unit,
                     "policy": policy}
                    for name, value, unit, policy in metrics]}))


def pairs(base, head, count=5):
    return [base] * count, [head] * count


class Comparator(unittest.TestCase):
    def failures(self, base_docs, head_docs):
        return ab_bench.compare(base_docs, head_docs)[1]

    def test_band_fails_above_bound_and_passes_below(self):
        base = doc(("gemm total_us", 100.0, "us", "band"))
        self.assertTrue(self.failures(
            *pairs(base, doc(("gemm total_us", 130.0, "us", "band")))))
        self.assertFalse(self.failures(
            *pairs(base, doc(("gemm total_us", 110.0, "us", "band")))))

    def test_band_gates_the_median_of_per_pair_ratios(self):
        # Two wild pairs of five do not move the median ratio of 1.10.
        base = [doc(("t", 100.0, "us", "band"))] * 5
        head = [doc(("t", v, "us", "band"))
                for v in (110.0, 300.0, 110.0, 400.0, 110.0)]
        self.assertFalse(self.failures(base, head))
        head[0] = head[2] = doc(("t", 130.0, "us", "band"))
        self.assertTrue(self.failures(base, head))

    def test_band_rate_is_higher_is_better(self):
        base = doc(("rate", 100.0, "1/s", "band"))
        self.assertTrue(self.failures(
            *pairs(base, doc(("rate", 75.0, "1/s", "band")))))
        self.assertFalse(self.failures(
            *pairs(base, doc(("rate", 150.0, "1/s", "band")))))

    def test_exact_fails_on_any_drop_and_passes_on_a_rise(self):
        base = doc(("gemm best tflops", 901.414, "TFLOP/s", "exact"))
        dropped = doc(("gemm best tflops", 901.414 * (1 - 1e-6), "TFLOP/s",
                       "exact"))
        risen = doc(("gemm best tflops", 901.414 * (1 + 1e-6), "TFLOP/s",
                     "exact"))
        self.assertTrue(self.failures(*pairs(base, dropped)))
        self.assertFalse(self.failures(*pairs(base, risen)))
        self.assertFalse(self.failures(*pairs(base, base)))

    def test_report_never_fails(self):
        base = doc(("emit us", 10.0, "us", "report"))
        self.assertFalse(self.failures(
            *pairs(base, doc(("emit us", 1000.0, "us", "report")))))
        self.assertFalse(self.failures(*pairs(base, doc())))

    def test_gated_metric_missing_from_head_fails(self):
        base = doc(("t", 100.0, "us", "band"), ("x", 1.0, "1/s", "exact"))
        self.assertEqual(len(self.failures(
            *pairs(base, doc(("t", 100.0, "us", "band"))))), 1)
        self.assertEqual(len(self.failures(*pairs(base, doc()))), 2)

    def test_metric_new_in_head_is_reported(self):
        lines, failures = ab_bench.compare(
            *pairs(doc(), doc(("t", 100.0, "us", "band"))))
        self.assertFalse(failures)
        self.assertTrue(any("new" in line for line in lines))

    def test_non_finite_value_fails(self):
        base = doc(("t", 100.0, "us", "band"))
        # closeBenchJson writes a non-finite value as null.
        self.assertTrue(self.failures(
            *pairs(base, doc(("t", None, "us", "band")))))
        self.assertTrue(self.failures(
            *pairs(base, doc(("t", float("nan"), "us", "report")))))

    def test_head_without_metrics_list_fails(self):
        base = doc(("t", 100.0, "us", "band"))
        self.assertTrue(self.failures(*pairs(base, {"kernels": []})))

    def test_base_without_metrics_list_is_reported_not_failed(self):
        lines, failures = ab_bench.compare(
            *pairs({"kernels": []},
                   doc(("t", 100.0, "us", "band"))))
        self.assertFalse(failures)
        self.assertTrue(any("predates" in line for line in lines))


if __name__ == "__main__":
    unittest.main()

"""Tests for the benchmark's own arithmetic and result schema.

    python3 simbench/test_report.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import report  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_span_minus_children(self):
        spans = [["pass", -1, 0, 100],
                 ["a", 0, 10, 30],
                 ["b", 0, 40, 90],
                 ["b.child", 2, 50, 60]]
        st = report.self_times(spans, [])
        self.assertAlmostEqual(st[0], 30e-9)
        self.assertAlmostEqual(st[1], 20e-9)
        self.assertAlmostEqual(st[2], 40e-9)
        self.assertAlmostEqual(st[3], 10e-9)

    def test_overlapping_children_count_once(self):
        spans = [["p", -1, 0, 100], ["x", 0, 10, 50], ["y", 0, 30, 70]]
        self.assertAlmostEqual(report.self_times(spans, [])[0], 40e-9)

    def test_children_clipped_to_parent(self):
        spans = [["p", -1, 10, 20], ["x", 0, 0, 15]]
        self.assertAlmostEqual(report.self_times(spans, [])[0], 5e-9)

    def test_leaves_subtract_their_total(self):
        spans = [["gpu.run", -1, 0, 1000]]
        leaves = [["workloads.next", 0, 7, 300],
                  ["harness.checker", 0, 3, 200]]
        self.assertAlmostEqual(report.self_times(spans, leaves)[0], 500e-9)

    def test_never_negative(self):
        spans = [["p", -1, 0, 10]]
        self.assertEqual(report.self_times(spans, [["n", 0, 1, 50]]), [0.0])

    def test_layer_times_sum_by_name(self):
        p = {"spans": [["pass", -1, 0, 100],
                       ["gpu.run", 0, 0, 40],
                       ["gpu.run", 0, 50, 90]],
             "leaves": [["workloads.next", 1, 4, 10],
                        ["workloads.next", 2, 4, 20]]}
        t = report.layer_times(p)
        self.assertAlmostEqual(t["gpu.run_s"], 50e-9)
        self.assertAlmostEqual(t["workloads.next_s"], 30e-9)
        self.assertEqual(t["serve.lookup_s"], 0.0)


class Tail(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertIsNone(report.tail(list(range(10))))
        value, pct, n = report.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_exactly_ten_beyond(self):
        xs = list(range(1000))
        value, pct, n = report.tail(xs)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(n, 1000)

    def test_order_does_not_matter(self):
        xs = [5, 1, 9, 3, 7, 2, 8, 4, 6, 0, 11, 10]
        self.assertEqual(report.tail(xs)[0], 1)


class Names(unittest.TestCase):
    def test_grammar(self):
        for ok in ("wall_s", "gpu.run_s", "noc.latency_p99", "a-b.c_9"):
            self.assertTrue(report.valid_name(ok), ok)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertFalse(report.valid_name(bad), bad)

    def test_every_metric_name_and_unit_is_valid(self):
        for table in (report.END_TO_END, report.PER_LAYER):
            for name, unit in table.items():
                self.assertTrue(report.valid_name(name), name)
                self.assertRegex(unit, report.UNIT_RE)
        self.assertFalse(set(report.END_TO_END) & set(report.PER_LAYER))

    def test_span_metrics_are_per_layer_metrics(self):
        self.assertLessEqual(set(report.SPAN_METRICS),
                             set(report.PER_LAYER))


class Schema(unittest.TestCase):
    def result(self, **kw):
        r = {"correct": True, "attempted": 3, "failed": 0,
             "metrics": {n: {"value": 1.5, "unit": u}
                         for n, u in report.END_TO_END.items()}}
        r.update(kw)
        return r

    def test_good(self):
        self.assertEqual(
            report.validate_result(self.result(), report.END_TO_END), [])

    def test_extra_key(self):
        r = self.result(extra=1)
        self.assertTrue(report.validate_result(r, report.END_TO_END))

    def test_missing_metric(self):
        r = self.result()
        del r["metrics"]["setup_s"]
        self.assertTrue(report.validate_result(r, report.END_TO_END))

    def test_bad_values(self):
        for bad in ({"value": "1", "unit": "s"}, {"value": True, "unit": "s"},
                    {"value": float("nan"), "unit": "s"}, {"value": 1.0},
                    {"value": 1.0, "unit": "ms"}):
            r = self.result()
            r["metrics"]["setup_s"] = bad
            self.assertTrue(report.validate_result(r, report.END_TO_END),
                            bad)

    def test_counts_are_whole(self):
        self.assertTrue(report.validate_result(self.result(attempted=1.0),
                                               report.END_TO_END))
        self.assertTrue(report.validate_result(self.result(attempted=0),
                                               report.END_TO_END))

    def test_benchmark_json_matches(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         report.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         report.PER_LAYER)
        self.assertEqual(bench["command"], ["python3", "simbench/run.py"])
        self.assertEqual(bench["paths"], ["simbench"])


class Derived(unittest.TestCase):
    def doc(self):
        def pass_(traced, wall, spans=(), leaves=()):
            return {"traced": traced, "wall_s": wall, "setup_s": 0.1,
                    "probe_s": 0.5,
                    "cells": [
                        {"label": "a", "secs": 1.0,
                         "cycles": 2000000, "instructions": 3000,
                         "digest": "d1"},
                        {"label": "b", "secs": 4.0,
                         "cycles": 2000000, "instructions": 1000,
                         "digest": "d2"}],
                    "counts": {"gpu.sim_cycles": 4000000.0,
                               "gpu.sm_ticks": 100.0,
                               "gpu.issue_slots_used": 25.0,
                               "core.l1_tag_accesses": 10.0,
                               "core.l1_rejects_mshr_full": 6.0,
                               "core.l1_wb_full_rejects": 0.0},
                    "spans": list(spans), "leaves": list(leaves)}
        spans = [["pass", -1, 0, 6_000_000_000],
                 ["gpu.run", 0, 0, 4_000_000_000]]
        leaves = [["workloads.next", 1, 10, 1_000_000_000]]
        return {"workload": "fig12", "peak_rss_kb": 2048, "attempted": 4,
                "failed": 0,
                "passes": [pass_(False, 5.0), pass_(True, 6.0, spans, leaves),
                           pass_(False, 5.5)]}

    def test_end_to_end(self):
        e = report.end_to_end(self.doc())
        self.assertAlmostEqual(e["wall_s"], 5.25)
        self.assertAlmostEqual(e["wall_norm"], 10.5)
        self.assertAlmostEqual(e["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(e["mcyc_per_s"], 1.0)  # geomean(2, 0.5)
        self.assertAlmostEqual(e["kinstr_per_s"], 0.8)
        self.assertAlmostEqual(e["cell_s_p50"], 2.5)
        self.assertIsNone(e["cell_s_tail"])
        self.assertEqual(e["sim_cycles"], 4000000.0)

    def test_per_layer(self):
        lay = report.per_layer(self.doc())
        self.assertAlmostEqual(lay["gpu.run_s"], 3.0)
        self.assertAlmostEqual(lay["workloads.next_s"], 1.0)
        self.assertEqual(lay["workloads.next_calls"], 10)
        self.assertAlmostEqual(lay["gpu.run_ns_per_cycle"], 750.0)
        self.assertAlmostEqual(lay["gpu.issue_utilization"], 0.25)
        self.assertEqual(lay["core.l1_accepted"], 4.0)
        self.assertAlmostEqual(lay["core.l1_accept_ratio"], 0.4)
        self.assertAlmostEqual(lay["trace.overhead_s"], 0.75)
        self.assertEqual(set(lay), set(report.PER_LAYER))

    def test_determinism(self):
        d = self.doc()
        self.assertEqual(report.determinism_problems(d["passes"]), [])
        d["passes"][2]["cells"][1]["digest"] = "other"
        d["passes"][1]["counts"]["gpu.sm_ticks"] = 101.0
        probs = report.determinism_problems(d["passes"])
        self.assertEqual(len(probs), 2)
        self.assertIn("gpu.sm_ticks", probs[0])

    def test_spread(self):
        self.assertAlmostEqual(report.spread([1, 2, 3, 4, 5]), 3.0 / 3)
        self.assertEqual(report.spread([2.0] * 5), 0.0)


if __name__ == "__main__":
    unittest.main()

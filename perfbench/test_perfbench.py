"""Fast self-tests of the benchmark itself.

Run from the checkout root:  python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import tempfile
import unittest
import unittest.mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
os.environ["TROPBN_THREADS"] = "1"

import tropbn as tb  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def answer(queries, tracer=None):
    _, _, answers, raised = run.run_pass(queries, tracer)
    return answers, raised, run.count_failures(queries, answers, raised)


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def test_rank_rr_small(self):
        queries = workloads.setup_rank_rr(tb, 3, self.tmp.name, size=1)
        self.assertEqual(len(queries),
                         len(workloads.RR_CELLS) + len(workloads.HIGH_DEGREES))
        answers, raised, (failed, wrong) = answer(queries)
        self.assertEqual(wrong, 0)
        # only the high-degree slice may crash, and only by recursion depth
        items = workloads._rr_inputs(3, 1)
        for item, ans, exc in zip(items, answers, raised):
            if exc:
                self.assertIsInstance(ans, RecursionError)
                self.assertIn(workloads.degree_of(item["D"]),
                              workloads.HIGH_DEGREES)

    def test_rank_rr_inputs_follow_seed(self):
        self.assertEqual(workloads._rr_inputs(5, 2), workloads._rr_inputs(5, 2))
        self.assertNotEqual(workloads._rr_inputs(5, 2), workloads._rr_inputs(6, 2))

    def test_rank_rr_oracle_rejects_wrong_rank(self):
        item = workloads._rr_inputs(1, 1)[0]
        g = workloads.genus_of(item["curve"])
        d = workloads.degree_of(item["D"])
        self.assertFalse(workloads.rr_expected_ok(item, (5, 5 - (d - g + 1) + 1)))

    def test_bn_usc_matches_golden_for_other_seeds(self):
        queries = workloads.setup_bn_usc(tb, 7, self.tmp.name)
        _, raised, (failed, wrong) = answer(queries)
        self.assertEqual((failed, wrong), (0, 0))

    def test_lattice_dumbbell_small(self):
        queries = workloads.setup_lattice_dumbbell(tb, 2, self.tmp.name, bar=400)
        _, _, (failed, wrong) = answer(queries)
        self.assertEqual((failed, wrong), (0, 0))


class RuleTest(unittest.TestCase):
    def test_tail_percentile(self):
        xs = list(range(1, 1001))
        self.assertEqual(run.tail_percentile(xs), (99, 990))
        self.assertEqual(run.tail_percentile(list(range(100))), (90, 89))
        self.assertEqual(run.tail_percentile([3, 1, 2] * 5), (100.0, 3))
        self.assertEqual(run.tail_percentile(list(range(20))), (50, 9))

    def test_self_times_of_a_span_tree(self):
        # query 0..10 -> a 1..6 -> b 2..3, c 4..5 ; a2 7..9 ; query 11..12
        parent = [-1, 0, 1, 1, 0, -1]
        start = [0.0, 1.0, 2.0, 4.0, 7.0, 11.0]
        end = [10.0, 6.0, 3.0, 5.0, 9.0, 12.0]
        own = spans.self_times(parent, start, end)
        self.assertEqual(own, [3.0, 3.0, 1.0, 1.0, 2.0, 1.0])
        roots = sum(e - s for s, e, p in zip(start, end, parent) if p < 0)
        self.assertEqual(sum(own), roots)

    def test_layer_metrics_from_spans(self):
        tr = spans.Tracer()
        q = tr.open("query")
        cls = tr.open("bn._class_ok")
        k1 = tr.open("kernel")
        tr.close(k1)
        ral = tr.open("rank.rank_at_least")
        mf = tr.open("rank._minfail")
        k2 = tr.open("kernel")
        tr.close(k2)
        tr.close(mf)
        tr.close(ral)
        tr.close(cls)
        cls2 = tr.open("bn._class_ok")
        tr.close(cls2)
        tr.close(q)
        m = spans.layer_metrics(tr)
        self.assertEqual(m["kernel.calls"], 2)
        self.assertEqual(m["rank.queries"], 1)
        self.assertEqual(m["rank.reductions_per_query"], 1.0)
        self.assertEqual(m["bn.F_tried"], 2)
        self.assertEqual(m["bn.class_hit_ratio"], 0.5)
        total = sum(m[k] for k in spans.SELF_TIME_METRICS) + m["trace.gap_s"]
        self.assertAlmostEqual(total, m["trace.wall_s"], delta=1e-9)

    def test_tracer_restores_the_program(self):
        import tropbn.kernel as kernel
        import tropbn.models as models

        before = (kernel.reduce_divisor, models.IntegerModel.__init__)
        tr = spans.Tracer()
        tr.install()
        self.assertIsNot(kernel.reduce_divisor, before[0])
        self.assertIs(models.kernel.reduce_divisor, kernel.reduce_divisor)
        tr.uninstall()
        self.assertEqual((kernel.reduce_divisor, models.IntegerModel.__init__),
                         before)

    def test_compare_flags_failures_and_wrong_answers(self):
        import compare

        def record(path, failed, correct):
            rec = {"stamp": {"workload": "w", "seed": 1, "trace": 0,
                             "backend": "python", "python": "3"},
                   "result": {"correct": correct, "attempted": 10,
                              "failed": failed},
                   "end_to_end": {k: 1.0 for k in ("wall_s", "setup_s",
                                                   "peak_rss_mb", "query_p50_ms",
                                                   "query_tail_ms")}}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rec, fh)
            return path

        with tempfile.TemporaryDirectory() as tmp:
            base = record(os.path.join(tmp, "b.json"), 1, True)
            same = record(os.path.join(tmp, "s.json"), 1, True)
            more = record(os.path.join(tmp, "m.json"), 2, True)
            bad = record(os.path.join(tmp, "x.json"), 1, False)
            with open(os.devnull, "w") as null, \
                    unittest.mock.patch("sys.stdout", null):
                codes = [compare.main(["--base", base, "--new", new])
                         for new in (same, more, bad)]
        self.assertEqual(codes, [0, 1, 2])

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        e2e = {m["name"] for m in bench["end_to_end"]}
        self.assertEqual(e2e, {"wall_s", "setup_s", "peak_rss_mb",
                               "query_p50_ms", "query_tail_ms"})
        derived = set(spans.layer_metrics(spans.Tracer()))
        derived |= {"trace.overhead_s", "error_rate"}
        self.assertLessEqual({m["name"] for m in bench["per_layer"]}, derived)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

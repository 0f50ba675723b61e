"""Unit tests of compare.py on synthetic run records.

    cd benchmark && python3 -m unittest test_compare
"""

import unittest

import compare

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "pairs_per_s", "unit": "pairs/s", "better": "higher",
         "bound": 0.1},
        {"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer_ns", "unit": "ns", "better": "lower"}],
}


def run(seed, started, metrics, failed=0):
    return {"seed": seed, "seconds": 10, "trace": 0, "started_unix": started,
            "workloads": {"w": {"correct": failed == 0, "attempted": 10,
                                "failed": failed,
                                "metrics": {k: {"value": v, "unit": "x"}
                                            for k, v in metrics.items()}}}}


def alternating(parent_values, change_values, failed_change=0):
    """Parent and change runs in back-to-back pairs, alternating first."""
    parent, change = [], []
    t = 0.0
    for i, (p, c) in enumerate(zip(parent_values, change_values)):
        order = [("p", p), ("c", c)] if i % 2 == 0 else [("c", c), ("p", p)]
        for side, metrics in order:
            t += 1.0
            if side == "p":
                parent.append(run(i, t, metrics))
            else:
                change.append(run(i, t, metrics, failed_change))
    return parent, change


def spread(center, step=0.01, n=10):
    """n values around `center`, at most 5*step apart relatively."""
    return [center * (1 + step * ((i % 5) - 2)) for i in range(n)]


class PairRunsTest(unittest.TestCase):
    def test_accepts_alternating_pairs(self):
        parent, change = alternating([{}] * 10, [{}] * 10)
        pairs = compare.pair_runs(parent, change)
        self.assertEqual(len(pairs), 10)
        self.assertTrue(all(p["seed"] == c["seed"] for p, c in pairs))

    def test_rejects_fewer_than_ten_pairs(self):
        parent, change = alternating([{}] * 9, [{}] * 9)
        with self.assertRaisesRegex(ValueError, "at least 10"):
            compare.pair_runs(parent, change)

    def test_rejects_parent_always_first(self):
        parent = [run(i, 2 * i, {}) for i in range(10)]
        change = [run(i, 2 * i + 1, {}) for i in range(10)]
        with self.assertRaisesRegex(ValueError, "alternate"):
            compare.pair_runs(parent, change)

    def test_rejects_runs_not_in_pairs(self):
        parent = [run(i, i, {}) for i in range(10)]
        change = [run(i, 10 + i, {}) for i in range(10)]
        with self.assertRaisesRegex(ValueError, "back-to-back"):
            compare.pair_runs(parent, change)

    def test_rejects_mixed_settings(self):
        parent, change = alternating([{}] * 10, [{}] * 10)
        change[3]["seconds"] = 20
        with self.assertRaisesRegex(ValueError, "seconds"):
            compare.pair_runs(parent, change)


class VerdictTest(unittest.TestCase):
    def test_improved_when_change_wins_every_pair(self):
        parent = spread(100.0)
        change = [v * 1.2 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         ("improved", 1.0))

    def test_lower_is_better_direction(self):
        parent = spread(1.0)
        change = [v * 0.8 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "improved")
        self.assertEqual(compare.verdict(change, parent, "lower", 0.1)[0],
                         "regressed")

    def test_regressed_beyond_bound(self):
        parent = spread(100.0)
        change = [v * 0.8 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "regressed")

    def test_small_loss_within_bound_is_unchanged(self):
        parent = spread(100.0)
        change = [v * 0.95 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "unchanged")

    def test_wins_within_parent_spread_are_not_a_gain(self):
        parent = spread(100.0, step=0.03)
        change = [v * 1.01 for v in parent]
        result, win_frac = compare.verdict(parent, change, "higher", 0.1)
        self.assertEqual(win_frac, 1.0)
        self.assertEqual(result, "unchanged")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = spread(100.0, step=0.1)
        change = list(reversed(parent))
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "unresolved")

    def test_wide_spread_but_every_change_run_better_is_not_unresolved(self):
        parent = spread(100.0, step=0.1)
        change = [v + 100.0 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "improved")

    def test_ties_count_for_neither_side(self):
        parent = spread(100.0)
        result, win_frac = compare.verdict(parent, list(parent), "higher", 0.1)
        self.assertEqual((result, win_frac), ("unchanged", 0.0))

    def test_per_layer_metrics_have_no_regressed_verdict(self):
        parent = spread(10.0)
        worse = [v * 2 for v in parent]
        self.assertEqual(compare.verdict(parent, worse, "lower", None)[0],
                         "worse")
        self.assertEqual(compare.verdict(parent, list(parent), "lower", None)[0],
                         "no claim")


class CompareTest(unittest.TestCase):
    def test_rows_per_metric_and_workload(self):
        parent, change = alternating(
            [{"pairs_per_s": v, "latency_s": 1.0, "layer_ns": 5.0}
             for v in spread(100.0)],
            [{"pairs_per_s": v * 1.3, "latency_s": 1.0, "layer_ns": 5.0}
             for v in spread(100.0)])
        rows, failed = compare.compare(SPEC, compare.pair_runs(parent, change))
        verdicts = {row[0]: row[6] for row in rows}
        self.assertEqual(verdicts, {"pairs_per_s": "improved",
                                    "latency_s": "unchanged",
                                    "layer_ns": "no claim"})
        self.assertEqual(failed, {"parent": 0, "change": 0})

    def test_gain_is_void_when_the_change_fails_more_checks(self):
        parent, change = alternating(
            [{"pairs_per_s": v} for v in spread(100.0)],
            [{"pairs_per_s": v * 1.3} for v in spread(100.0)],
            failed_change=1)
        rows, failed = compare.compare(SPEC, compare.pair_runs(parent, change))
        self.assertEqual([row[6] for row in rows], ["void"])
        self.assertEqual(failed["change"], 10)

    def test_metric_missing_from_a_run_is_skipped(self):
        parent, change = alternating([{"pairs_per_s": 1.0}] * 10,
                                     [{"pairs_per_s": 1.0}] * 10)
        del change[4]["workloads"]["w"]["metrics"]["pairs_per_s"]
        rows, _ = compare.compare(SPEC, compare.pair_runs(parent, change))
        self.assertEqual(rows, [])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests for scripts/bench_report.py (the bench-manifest tooling).

Covers the pure helpers (slope fitting, audit slack policy, slot
extraction), the schema validator (record types, required fields,
schema_version, run_end trailer), the per-manifest cross-checks (slope and
exponent refits, audit, timelines, throughput ordering, driver counters),
and the validate/baseline commands end-to-end on temp-file manifests.

Stdlib only; registered as the `bench_report_py` CTest target.
"""

import importlib.util
import json
import math
import os
import sys
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "scripts", "bench_report.py")
_spec = importlib.util.spec_from_file_location("bench_report", _SCRIPT)
br = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(br)


def record(rtype, **fields):
    rec = {"record": rtype, "schema_version": br.SCHEMA_VERSION}
    rec.update(fields)
    return rec


def result_row(trial=0, seed=1, estimate=1.0, reported=1024, audited=0):
    return {"trial": trial, "seed": seed, "estimate": estimate, "aux": 0.0,
            "reported_peak_bytes": reported, "audited_peak_bytes": audited,
            "max_divergence_bytes": 0, "wall_seconds": 0.001,
            "queue_wait_seconds": 0.0}


def build_info(**overrides):
    info = {"git_sha": "deadbeef", "compiler": "GNU",
            "compiler_version": "12.2.0", "build_type": "RelWithDebInfo",
            "flags": "-O2 -g -DNDEBUG"}
    info.update(overrides)
    return info


def minimal_manifest(extra=None):
    """A schema-valid manifest: run header, optional extras, run_end."""
    records = [record("run", bench="test-bench", git="deadbeef",
                      build_info=build_info())]
    records.extend(extra or [])
    records.append(record("run_end", records=len(records) + 1))
    return records


def write_manifest(records, directory):
    path = os.path.join(directory, "manifest.jsonl")
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return path


class FitSlopeTest(unittest.TestCase):
    def test_exact_power_law_recovers_exponent(self):
        for exponent in (-2.0 / 3.0, 0.5, 1.0, 2.0):
            points = [(x, 7.0 * x ** exponent) for x in (1, 2, 4, 8, 16)]
            self.assertAlmostEqual(br.fit_slope(points), exponent, places=12)

    def test_underdetermined_inputs_return_none(self):
        self.assertIsNone(br.fit_slope([]))
        self.assertIsNone(br.fit_slope([(1, 1)]))
        # Non-positive coordinates are dropped before fitting.
        self.assertIsNone(br.fit_slope([(0, 1), (1, 0), (2, 5)]))
        # Identical x values: zero variance in log(x).
        self.assertIsNone(br.fit_slope([(4, 1), (4, 100)]))

    def test_constant_curve_fits_zero(self):
        self.assertAlmostEqual(
            br.fit_slope([(1, 3), (10, 3), (100, 3)]), 0.0, places=12)


class AuditSlackTest(unittest.TestCase):
    def test_slack_policy_constants(self):
        self.assertEqual(br.audit_slack_bytes(0), br.AUDIT_SLACK_FLOOR_BYTES)
        self.assertEqual(
            br.audit_slack_bytes(10),
            br.AUDIT_SLACK_FLOOR_BYTES + 10 * br.AUDIT_SLACK_PER_SLOT_BYTES)

    def test_within_slack_is_two_sided(self):
        self.assertTrue(br.within_audit_slack(1000, 1000, 0))
        # Just inside the multiplicative bound either way.
        big = br.AUDIT_SLACK_FLOOR_BYTES * 10
        self.assertTrue(br.within_audit_slack(
            big, br.AUDIT_SLACK_MULTIPLIER * big, 0))
        self.assertTrue(br.within_audit_slack(
            br.AUDIT_SLACK_MULTIPLIER * big, big, 0))
        # Far outside in either direction fails.
        self.assertFalse(br.within_audit_slack(big, 100 * big, 0))
        self.assertFalse(br.within_audit_slack(100 * big, big, 0))

    def test_slots_widen_the_additive_term(self):
        reported = br.AUDIT_SLACK_FLOOR_BYTES
        audited = (br.AUDIT_SLACK_MULTIPLIER * reported +
                   br.AUDIT_SLACK_FLOOR_BYTES +
                   br.AUDIT_SLACK_PER_SLOT_BYTES * 100)
        self.assertFalse(br.within_audit_slack(reported, audited + 1, 100))
        self.assertTrue(br.within_audit_slack(reported, audited, 100))

    def test_batch_slots_reads_sample_and_reservoir(self):
        self.assertEqual(br.batch_slots({"config": {"sample": 32}}), 32)
        self.assertEqual(br.batch_slots({"config": {"reservoir": 24}}), 24)
        self.assertEqual(br.batch_slots({"config": {"n": 100}}), 0)
        self.assertEqual(br.batch_slots({}), 0)


class SchemaTest(unittest.TestCase):
    def test_minimal_manifest_is_valid(self):
        records = minimal_manifest()
        self.assertEqual(br.check_schema("m", records), [])

    def test_unknown_record_type(self):
        records = minimal_manifest([record("mystery", x=1)])
        errors = br.check_schema("m", records)
        self.assertTrue(any("unknown record type" in e for e in errors))

    def test_wrong_schema_version(self):
        records = minimal_manifest()
        records[0]["schema_version"] = br.SCHEMA_VERSION + 1
        errors = br.check_schema("m", records)
        self.assertTrue(any("schema_version" in e for e in errors))

    def test_missing_required_field(self):
        rec = record("slope", curve="c", measured=1.0, predicted=1.0)
        del rec["predicted"]
        rec["consistent"] = True
        records = minimal_manifest([rec])
        errors = br.check_schema("m", records)
        self.assertTrue(any("missing field 'predicted'" in e for e in errors))

    def test_batch_results_are_field_checked(self):
        row = result_row()
        del row["wall_seconds"]
        records = minimal_manifest(
            [record("batch", label="b", trials=1, base_seed=1,
                    results=[row])])
        errors = br.check_schema("m", records)
        self.assertTrue(any("missing 'wall_seconds'" in e for e in errors))

    def test_truncated_manifest_detected(self):
        records = minimal_manifest()[:-1]  # drop run_end
        errors = br.check_schema("m", records)
        self.assertTrue(any("run_end" in e for e in errors))

    def test_run_end_count_mismatch_detected(self):
        records = minimal_manifest()
        records[-1]["records"] = 99
        errors = br.check_schema("m", records)
        self.assertTrue(any("run_end.records=99" in e for e in errors))

    def test_first_record_must_be_run(self):
        records = [record("metrics", metrics={}),
                   record("run_end", records=2)]
        errors = br.check_schema("m", records)
        self.assertTrue(any("first record is not 'run'" in e for e in errors))

    def test_run_without_build_info_fails(self):
        records = minimal_manifest()
        del records[0]["build_info"]
        errors = br.check_schema("m", records)
        self.assertTrue(any("build_info" in e for e in errors))

    def test_build_info_fields_are_checked(self):
        records = minimal_manifest()
        del records[0]["build_info"]["compiler_version"]
        errors = br.check_schema("m", records)
        self.assertTrue(
            any("build_info missing field 'compiler_version'" in e
                for e in errors))
        records[0]["build_info"] = "not-an-object"
        errors = br.check_schema("m", records)
        self.assertTrue(any("not an object" in e for e in errors))


class CrossCheckTest(unittest.TestCase):
    def grouped(self, extra):
        return br.collect(minimal_manifest(extra))

    def curve_points(self, curve, exponent, xs=(1, 2, 4, 8)):
        return [record("curve_point", curve=curve, x=x, y=5.0 * x ** exponent)
                for x in xs]

    def test_consistent_slope_passes(self):
        extra = self.curve_points("c", 0.5)
        measured = br.fit_slope([(r["x"], r["y"]) for r in extra])
        extra.append(record("slope", curve="c", measured=measured,
                            predicted=0.5, consistent=True))
        self.assertEqual(br.check_slopes("m", self.grouped(extra)), [])

    def test_inconsistent_verdict_fails(self):
        extra = [record("slope", curve="c", measured=1.0, predicted=0.5,
                        consistent=False)]
        errors = br.check_slopes("m", self.grouped(extra))
        self.assertTrue(any("inconsistent" in e for e in errors))

    def test_refit_mismatch_beyond_tolerance_fails(self):
        extra = self.curve_points("c", 0.5)
        measured = br.fit_slope([(r["x"], r["y"]) for r in extra])
        extra.append(record(
            "slope", curve="c",
            measured=measured + 10 * br.REFIT_TOLERANCE,
            predicted=0.5, consistent=True))
        errors = br.check_slopes("m", self.grouped(extra))
        self.assertTrue(any("refit" in e for e in errors))

    def test_refit_within_tolerance_passes(self):
        extra = self.curve_points("c", 0.5)
        measured = br.fit_slope([(r["x"], r["y"]) for r in extra])
        extra.append(record(
            "slope", curve="c",
            measured=measured + 0.1 * br.REFIT_TOLERANCE,
            predicted=0.5, consistent=True))
        self.assertEqual(br.check_slopes("m", self.grouped(extra)), [])

    def test_fit_point_count_and_exponent_checked(self):
        extra = self.curve_points("c", -2.0 / 3.0)
        refit = br.fit_slope([(r["x"], r["y"]) for r in extra])
        extra.append(record("fit", curve="c", fitted_exponent=refit,
                            predicted_exponent=-2.0 / 3.0,
                            points=len(extra)))
        self.assertEqual(br.check_fits("m", self.grouped(extra)), [])
        bad = list(extra)
        bad[-1] = record("fit", curve="c", fitted_exponent=refit + 1.0,
                         predicted_exponent=-2.0 / 3.0,
                         points=len(extra) + 3)
        errors = br.check_fits("m", self.grouped(bad))
        self.assertEqual(len(errors), 2)  # point count + exponent

    def test_audit_skips_unaudited_and_flags_violations(self):
        ok_rows = [result_row(audited=0),
                   result_row(trial=1, reported=1024, audited=2048)]
        bad_rows = [result_row(trial=2, reported=1024,
                               audited=10 ** 9)]
        extra = [record("batch", label="ok", trials=2, base_seed=1,
                        config={"sample": 32}, results=ok_rows),
                 record("batch", label="bad", trials=1, base_seed=1,
                        config={"sample": 32}, results=bad_rows)]
        errors = br.check_audit("m", self.grouped(extra))
        self.assertEqual(len(errors), 1)
        self.assertIn("'bad'", errors[0])

    def test_timeline_maxima_must_match_points(self):
        tl = record("timeline", label="t", trial=0, seed=1,
                    max_reported_bytes=100, max_audited_bytes=50,
                    passes=[{"points": [[0, 100, 50], [5, 90, 40]]}])
        self.assertEqual(br.check_timelines("m", self.grouped([tl])), [])
        tl_bad = dict(tl)
        tl_bad["max_reported_bytes"] = 101
        errors = br.check_timelines("m", self.grouped([tl_bad]))
        self.assertTrue(any("max_reported_bytes" in e for e in errors))

    def test_batched_throughput_must_not_regress(self):
        def curves(batched_y):
            return [record("curve_point", curve="replay/er/pairwise",
                           x=1, y=100.0),
                    record("curve_point", curve="replay/er/batched",
                           x=1, y=batched_y)]
        self.assertEqual(
            br.check_throughput_pairs("m", self.grouped(curves(150.0))), [])
        errors = br.check_throughput_pairs("m", self.grouped(curves(50.0)))
        self.assertTrue(any("below pairwise" in e for e in errors))

    def test_driver_counters_ordering(self):
        ok = record("metrics", metrics={"counters": {
            "driver.passes": 4, "driver.passes_requested": 4}})
        bad = record("metrics", metrics={"counters": {
            "driver.passes": 5, "driver.passes_requested": 4}})
        self.assertEqual(
            br.check_driver_counters("m", self.grouped([ok])), [])
        errors = br.check_driver_counters("m", self.grouped([bad]))
        self.assertTrue(any("exceeds" in e for e in errors))


class CommandTest(unittest.TestCase):
    def run_validate(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_manifest(records, tmp)
            args = type("Args", (), {"manifests": [path]})()
            return br.cmd_validate(args)

    def test_validate_accepts_valid_manifest(self):
        extra = [record("curve_point", curve="c", x=x, y=2.0 * x)
                 for x in (1, 2, 4)]
        self.assertEqual(self.run_validate(minimal_manifest(extra)), 0)

    def test_validate_rejects_truncation_and_bad_json(self):
        self.assertEqual(self.run_validate(minimal_manifest()[:-1]), 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "broken.jsonl")
            with open(path, "w", encoding="utf-8") as f:
                f.write("{not json\n")
            args = type("Args", (), {"manifests": [path]})()
            self.assertEqual(br.cmd_validate(args), 1)

    def test_baseline_round_trips_through_validate_schema(self):
        extra = self.baseline_extra()
        with tempfile.TemporaryDirectory() as tmp:
            path = write_manifest(minimal_manifest(extra), tmp)
            out = os.path.join(tmp, "BENCH_baseline.json")
            args = type("Args", (), {"manifests": [path], "out": out})()
            self.assertEqual(br.cmd_baseline(args), 0)
            with open(out, encoding="utf-8") as f:
                baseline = json.load(f)
        self.assertEqual(baseline["schema_version"], br.SCHEMA_VERSION)
        bench = baseline["benches"]["test-bench"]
        self.assertEqual(bench["git"], "deadbeef")
        curve = bench["curves"]["c"]
        self.assertEqual(len(curve["points"]), 4)
        self.assertAlmostEqual(curve["fitted_slope"], 0.5, places=9)
        self.assertAlmostEqual(curve["fitted_exponent"], 0.5, places=9)
        self.assertEqual(bench["batches"]["b"]["trials"], 1)
        self.assertEqual(
            bench["batches"]["b"]["max_reported_peak_bytes"], 1024)

    @staticmethod
    def baseline_extra():
        points = [record("curve_point", curve="c", x=x, y=3.0 * math.sqrt(x))
                  for x in (1, 2, 4, 8)]
        refit = br.fit_slope([(r["x"], r["y"]) for r in points])
        return points + [
            record("fit", curve="c", fitted_exponent=refit,
                   predicted_exponent=0.5, points=len(points)),
            record("slope", curve="c", measured=refit, predicted=0.5,
                   consistent=True),
            record("batch", label="b", trials=1, base_seed=7,
                   config={"sample": 8}, results=[result_row()]),
        ]


def accuracy_record(**overrides):
    rec = record("accuracy", estimator="two-pass-triangle", epsilon=0.25,
                 delta=0.2, trials=10, within=9, frac_within=0.9,
                 within_band=True, max_rel_error=0.4, mean_rel_error=0.1)
    rec.update(overrides)
    return rec


class AccuracyCheckTest(unittest.TestCase):
    def check(self, rec):
        return br.check_accuracy("m", {"accuracy": [rec]})

    def test_consistent_record_passes(self):
        self.assertEqual(self.check(accuracy_record()), [])

    def test_outside_band_is_recorded_not_an_error(self):
        rec = accuracy_record(within=2, frac_within=0.2, within_band=False)
        self.assertEqual(self.check(rec), [])

    def test_zero_trials_band_is_vacuously_true(self):
        rec = accuracy_record(trials=0, within=0, frac_within=0.0,
                              within_band=True)
        self.assertEqual(self.check(rec), [])

    def test_within_exceeding_trials_fails(self):
        errors = self.check(accuracy_record(within=11))
        self.assertTrue(any("exceeds trials" in e for e in errors))

    def test_frac_mismatch_fails(self):
        errors = self.check(accuracy_record(frac_within=0.5))
        self.assertTrue(any("frac_within" in e for e in errors))

    def test_band_verdict_mismatch_fails(self):
        # 9/10 within at delta=0.2 meets the 0.8 bar; claiming False lies.
        errors = self.check(accuracy_record(within_band=False))
        self.assertTrue(any("within_band" in e for e in errors))

    def test_accuracy_schema_fields_required(self):
        rec = accuracy_record()
        del rec["mean_rel_error"]
        errors = br.check_schema("m", minimal_manifest([rec]))
        self.assertTrue(any("mean_rel_error" in e for e in errors))


def prof_record(**overrides):
    rec = record("prof", scope="service.drain", backend="perf_event",
                 fallback=False, count=100, cycles=1e9, instructions=2e9,
                 cache_references=1e7, cache_misses=1e6, branch_misses=1e5,
                 task_clock_ns=4e8, ipc=2.0)
    rec.update(overrides)
    return rec


class ProfCheckTest(unittest.TestCase):
    def check(self, rec):
        return br.check_prof("m", {"profs": [rec]})

    def test_perf_event_record_passes(self):
        self.assertEqual(self.check(prof_record()), [])

    def test_rusage_fallback_record_passes(self):
        # The graceful-degradation path: zero hardware counters, only task
        # clock, fallback flagged. No IPC band applies.
        rec = prof_record(backend="rusage", fallback=True, cycles=0,
                          instructions=0, cache_references=0, cache_misses=0,
                          branch_misses=0, ipc=0.0)
        self.assertEqual(self.check(rec), [])

    def test_negative_counter_fails(self):
        errors = self.check(prof_record(cache_misses=-1))
        self.assertTrue(any("cache_misses" in e for e in errors))

    def test_unknown_backend_fails(self):
        errors = self.check(prof_record(backend="tsc"))
        self.assertTrue(any("unknown backend" in e for e in errors))

    def test_perf_event_cannot_be_a_fallback(self):
        errors = self.check(prof_record(fallback=True))
        self.assertTrue(any("fallback" in e for e in errors))

    def test_ipc_must_match_counters(self):
        errors = self.check(prof_record(ipc=1.5))  # 2e9/1e9 = 2.0
        self.assertTrue(any("instructions/cycles" in e for e in errors))

    def test_ipc_outside_band_fails(self):
        low = prof_record(instructions=1e7, ipc=0.01)
        self.assertTrue(any("plausibility band" in e
                            for e in self.check(low)))
        high = prof_record(instructions=16e9, ipc=16.0)
        self.assertTrue(any("plausibility band" in e
                            for e in self.check(high)))

    def test_rusage_skips_ipc_band(self):
        # rusage reads no cycle counter; a zero IPC is expected, not a bug.
        rec = prof_record(backend="rusage", fallback=True, cycles=0,
                          instructions=0, ipc=0.0)
        self.assertEqual(self.check(rec), [])

    def test_prof_schema_fields_required(self):
        rec = prof_record()
        del rec["task_clock_ns"]
        errors = br.check_schema("m", minimal_manifest([rec]))
        self.assertTrue(any("task_clock_ns" in e for e in errors))

    def test_validate_wires_in_prof_checks(self):
        records = minimal_manifest([prof_record(fallback=True)])
        with tempfile.TemporaryDirectory() as tmp:
            path = write_manifest(records, tmp)
            args = type("Args", (), {"manifests": [path]})()
            self.assertEqual(br.cmd_validate(args), 1)


def write_text(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


VALID_SCRAPE = """\
# TYPE accuracy_within_band gauge
accuracy_within_band{estimator="two-pass-triangle"} 1.0
# TYPE service_errors_latched counter
service_errors_latched{shard="0"} 0
service_errors_latched{shard="1"} 2
# TYPE service_queue_depth histogram
service_queue_depth_bucket{le="1.0"} 3
service_queue_depth_bucket{le="2.0"} 5
service_queue_depth_bucket{le="+Inf"} 6
service_queue_depth_sum 11.0
service_queue_depth_count 6
"""


class ScrapeTest(unittest.TestCase):
    def parse(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            return br.parse_prometheus(write_text(tmp, "m.prom", text))

    def errors(self, text):
        types, samples = self.parse(text)
        return br.check_scrape("m.prom", types, samples)

    def test_valid_scrape_parses_clean(self):
        types, samples = self.parse(VALID_SCRAPE)
        self.assertEqual(types["service_queue_depth"], "histogram")
        self.assertEqual(len(samples), 8)
        self.assertEqual(self.errors(VALID_SCRAPE), [])

    def test_label_unescaping(self):
        types, samples = self.parse(
            '# TYPE g gauge\ng{k="a\\"b\\\\c\\nd"} 1\n')
        self.assertEqual(samples[0][1], {"k": 'a"b\\c\nd'})

    def test_sample_without_type_family_fails(self):
        errors = self.errors("mystery_metric 1\n")
        self.assertTrue(any("no # TYPE family" in e for e in errors))

    def test_missing_inf_bucket_fails(self):
        text = ("# TYPE h histogram\nh_bucket{le=\"1.0\"} 1\n"
                "h_sum 1.0\nh_count 1\n")
        self.assertTrue(any("+Inf" in e for e in self.errors(text)))

    def test_non_cumulative_buckets_fail(self):
        text = ("# TYPE h histogram\nh_bucket{le=\"1.0\"} 5\n"
                "h_bucket{le=\"+Inf\"} 3\nh_sum 1.0\nh_count 3\n")
        self.assertTrue(
            any("not cumulative" in e for e in self.errors(text)))

    def test_inf_bucket_must_equal_count(self):
        text = ("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\n"
                "h_sum 1.0\nh_count 4\n")
        self.assertTrue(any("_count" in e for e in self.errors(text)))

    def test_negative_counter_fails(self):
        text = "# TYPE c counter\nc -1\n"
        self.assertTrue(any("negative counter" in e
                            for e in self.errors(text)))

    def test_bad_sample_line_raises(self):
        with self.assertRaises(br.ManifestError):
            self.parse("# TYPE g gauge\ng not-a-number\n")

    def test_cmd_scrape_require_missing_family_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_text(tmp, "m.prom", VALID_SCRAPE)
            ok = type("Args", (), {"files": [path],
                                   "require": ["service_queue_depth"]})()
            self.assertEqual(br.cmd_scrape(ok), 0)
            bad = type("Args", (), {"files": [path],
                                    "require": ["service_op_latency"]})()
            self.assertEqual(br.cmd_scrape(bad), 1)


def baseline_json(rate, space=50000, peak=4096):
    return {
        "schema_version": br.SCHEMA_VERSION,
        "benches": {
            "bench_service": {
                "curves": {
                    "service_pairs_per_sec/shards=4": {
                        "points": [[8, rate]]},
                    "space_vs_T": {"points": [[100, space]]},
                },
                "batches": {
                    "b": {"max_reported_peak_bytes": peak},
                },
            },
        },
    }


class DiffTest(unittest.TestCase):
    def run_diff(self, old, new, threshold=2.0, only=None, min_x=None):
        with tempfile.TemporaryDirectory() as tmp:
            old_path = write_text(tmp, "old.json", json.dumps(old))
            new_path = write_text(tmp, "new.json", json.dumps(new))
            args = type("Args", (), {"old": old_path, "new": new_path,
                                     "threshold": threshold,
                                     "verbose": False, "only": only,
                                     "min_x": min_x})()
            return br.cmd_diff(args)

    def test_identical_baselines_pass(self):
        self.assertEqual(
            self.run_diff(baseline_json(1e6), baseline_json(1e6)), 0)

    def test_throughput_drop_beyond_threshold_fails(self):
        self.assertEqual(
            self.run_diff(baseline_json(1e6), baseline_json(0.95e6)), 1)

    def test_throughput_drop_within_threshold_passes(self):
        self.assertEqual(
            self.run_diff(baseline_json(1e6), baseline_json(0.99e6)), 0)

    def test_threshold_is_configurable(self):
        self.assertEqual(
            self.run_diff(baseline_json(1e6), baseline_json(0.95e6),
                          threshold=10.0), 0)

    def test_throughput_gain_passes(self):
        self.assertEqual(
            self.run_diff(baseline_json(1e6), baseline_json(2e6)), 0)

    def test_min_x_skips_small_points(self):
        # The only curve point sits at x=8; --min-x above that skips it.
        old, new = baseline_json(1e6), baseline_json(0.5e6)
        self.assertEqual(self.run_diff(old, new, min_x=32), 0)
        self.assertEqual(self.run_diff(old, new, min_x=8), 1)

    def test_only_filter_restricts_comparison(self):
        # The throughput drop is on shards=4; filtering to a non-matching
        # substring skips it (and the space/batch rows), so the diff passes.
        old, new = baseline_json(1e6), baseline_json(0.5e6, peak=999999)
        self.assertEqual(self.run_diff(old, new), 1)
        self.assertEqual(self.run_diff(old, new, only="shards=8"), 0)
        self.assertEqual(self.run_diff(old, new, only="shards=4"), 1)

    def test_space_growth_beyond_threshold_fails(self):
        self.assertEqual(
            self.run_diff(baseline_json(1e6),
                          baseline_json(1e6, space=60000)), 1)

    def test_batch_peak_growth_fails(self):
        self.assertEqual(
            self.run_diff(baseline_json(1e6),
                          baseline_json(1e6, peak=8192)), 1)

    def test_point_missing_from_new_is_noted_not_failed(self):
        new = baseline_json(1e6)
        del new["benches"]["bench_service"]["curves"]["space_vs_T"]
        self.assertEqual(self.run_diff(baseline_json(1e6), new), 0)

    def test_throughput_curve_classifier(self):
        self.assertTrue(br.is_throughput_curve("service_pairs_per_sec/x"))
        self.assertFalse(br.is_throughput_curve("twopass_space_vs_T"))

    def test_prof_curves_are_never_gated(self):
        # Hardware-counter curves measure the machine, not the code: a 10x
        # swing in cache misses per pair (e.g. a different runner, or the
        # PMU disappearing entirely) must not fail the diff.
        def with_prof(base, miss_rate):
            base["benches"]["bench_service"]["curves"][
                "prof/service_drain/shards=4/cache_miss_per_pair"] = {
                    "points": [[8, miss_rate]]}
            return base
        old = with_prof(baseline_json(1e6), 0.5)
        new = with_prof(baseline_json(1e6), 5.0)
        self.assertEqual(self.run_diff(old, new), 0)
        # Absent from new entirely (fallback runner): still passes.
        self.assertEqual(
            self.run_diff(with_prof(baseline_json(1e6), 0.5),
                          baseline_json(1e6)), 0)


if __name__ == "__main__":
    unittest.main()

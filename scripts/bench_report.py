#!/usr/bin/env python3
"""Validate, summarize, fit, and baseline JSONL bench manifests.

The C++ benches emit newline-delimited JSON run manifests via
``--metrics-out`` (see src/obs/manifest.h for the schema).
This script is their consumer:

  validate  — schema-check one or more manifests (record types, required
              fields, schema_version, run_end truncation trailer, the run
              header's build_info stamp), plus the ground-truth space
              audit: every batch result's allocator-audited peak must
              agree with the self-reported peak within the slack
              documented in src/obs/accounting.h. "prof" records
              (hardware-counter aggregates from src/obs/prof.h) must carry
              non-negative counters, an IPC inside a sanity band when the
              perf_event backend measured real cycles, and a fallback flag
              consistent with the backend name.
  report    — human-readable summary: batches, space curves with fitted
              log-log slopes, exponent fits, slope checks, metrics.
  fit       — refit every "fit" record's space curve (log-log least
              squares) and report the fitted exponent next to the paper's
              predicted exponent; fails if the refit disagrees with the
              bench's recorded fit.
  baseline  — regenerate BENCH_baseline.json from a set of manifests
              (curves with fitted exponents, slope verdicts, batch peaks).
  scrape    — parse and validate Prometheus text exposition files written
              by EstimatorService::ScrapeMetrics / obs::WritePrometheusText
              (bench_service --scrape-out): every sample must belong to a
              # TYPE family, histogram buckets must be cumulative and
              consistent with _count, and --require names must be present
              (e.g. service_queue_depth, service_op_latency_seconds,
              service_errors_latched, accuracy_within_band).
  diff      — compare two BENCH_baseline.json files (old new): per-bench
              per-curve relative deltas on throughput/space points; exit 1
              when any throughput point regresses by more than --threshold
              (default 2%) below old, or a space point grows past it;
              --only SUBSTRING restricts the comparison to curve/batch
              names containing SUBSTRING (e.g. 'shards=4'). Curves under
              the "prof/" prefix (hardware-counter rates) are recorded in
              baselines but never gated — they measure the machine, not
              the code.

Slope checking: benches record ``slope`` lines with the measured log-log
slope of a space curve, the model's predicted exponent (e.g. -2/3 for the
two-pass triangle sample-size curve), and the bench's own consistency
verdict. ``validate``/``report`` fail (exit 1) if any slope record is
inconsistent, or if a curve's points refit to a slope that disagrees with
the recorded measurement beyond a small tolerance.

Stdlib only; no third-party imports.
"""

import argparse
import json
import math
import os
import sys

SCHEMA_VERSION = 3

# Counter fields every prof record carries (obs/prof.h ProfCounters).
PROF_COUNTER_FIELDS = ("cycles", "instructions", "cache_references",
                       "cache_misses", "branch_misses", "task_clock_ns")

# Required fields per record type (beyond "record" and "schema_version").
REQUIRED_FIELDS = {
    "run": ["bench", "git", "build_info"],
    "batch": ["label", "trials", "base_seed", "results"],
    "timeline": ["label", "trial", "seed", "max_reported_bytes",
                 "max_audited_bytes", "passes"],
    "curve_point": ["curve", "x", "y"],
    "slope": ["curve", "measured", "predicted", "consistent"],
    "fit": ["curve", "fitted_exponent", "predicted_exponent", "points"],
    "metrics": ["metrics"],
    "accuracy": ["estimator", "epsilon", "delta", "trials", "within",
                 "frac_within", "within_band", "max_rel_error",
                 "mean_rel_error"],
    "prof": ["scope", "backend", "fallback", "count",
             *PROF_COUNTER_FIELDS, "ipc"],
    "run_end": ["records"],
}

# Fields the run header's build_info object must carry (obs/build_info.h).
BUILD_INFO_FIELDS = ("git_sha", "compiler", "compiler_version", "build_type",
                     "flags")

# Hardware-counter backends a prof record may name (obs/prof.h). A record
# whose backend is not "perf_event" came from the graceful-degradation
# chain and must say so via fallback (unless rusage was requested
# explicitly, in which case fallback stays false — so only the converse
# is checkable: perf_event implies fallback == false).
PROF_BACKENDS = ("perf_event", "rusage")

# Sanity band for instructions-per-cycle when the perf_event backend
# measured real cycles. Anything outside is a counter-plumbing bug, not a
# slow program: sub-0.05 IPC means the cycle counter ran while the
# instruction counter did not, and >8 exceeds the retire width of any
# deployed core.
PROF_IPC_MIN = 0.05
PROF_IPC_MAX = 8.0

RESULT_FIELDS = ["trial", "seed", "estimate", "aux", "reported_peak_bytes",
                 "audited_peak_bytes", "max_divergence_bytes",
                 "wall_seconds", "queue_wait_seconds"]

# |refit - recorded| tolerance when refitting a curve's slope or exponent
# from its curve_point records (the bench fits the same least-squares line,
# so any gap beyond float noise means the manifest is internally
# inconsistent).
REFIT_TOLERANCE = 1e-6

# Audit slack policy, mirroring obs::WithinAuditSlack in
# src/obs/accounting.h: each of the two space measurements must bound the
# other within a multiplier plus an additive term covering pre-reserved
# buckets and allocator overheads.
AUDIT_SLACK_MULTIPLIER = 4.0
AUDIT_SLACK_FLOOR_BYTES = 1 << 16
AUDIT_SLACK_PER_SLOT_BYTES = 64

# Batch-config keys that carry the estimator's configured slot count
# (sample size / reservoir capacity), used for the audit slack.
SLOT_CONFIG_KEYS = ("sample", "reservoir")


class ManifestError(Exception):
    pass


def read_manifest(path):
    """Parses one JSONL manifest into a list of records. Raises
    ManifestError on unparseable lines; schema checks are separate."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ManifestError(f"{path}:{lineno}: bad JSON: {e}") from e
    if not records:
        raise ManifestError(f"{path}: empty manifest")
    return records


def check_schema(path, records):
    """Returns a list of schema-violation strings (empty == valid)."""
    errors = []

    def err(i, msg):
        errors.append(f"{path}: record {i + 1}: {msg}")

    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            err(i, "not a JSON object")
            continue
        rtype = rec.get("record")
        if rtype not in REQUIRED_FIELDS:
            err(i, f"unknown record type {rtype!r}")
            continue
        if rec.get("schema_version") != SCHEMA_VERSION:
            err(i, f"schema_version {rec.get('schema_version')!r} != "
                   f"{SCHEMA_VERSION}")
        for field in REQUIRED_FIELDS[rtype]:
            if field not in rec:
                err(i, f"{rtype} record missing field {field!r}")
        if rtype == "batch":
            for j, row in enumerate(rec.get("results", [])):
                for field in RESULT_FIELDS:
                    if field not in row:
                        err(i, f"batch result {j} missing {field!r}")
        if rtype == "run" and "build_info" in rec:
            info = rec["build_info"]
            if not isinstance(info, dict):
                err(i, "build_info is not an object")
            else:
                for field in BUILD_INFO_FIELDS:
                    if field not in info:
                        err(i, f"build_info missing field {field!r}")

    if records and isinstance(records[0], dict):
        if records[0].get("record") != "run":
            errors.append(f"{path}: first record is not 'run'")
    last = records[-1] if isinstance(records[-1], dict) else {}
    if last.get("record") != "run_end":
        errors.append(f"{path}: last record is not 'run_end' "
                      "(truncated manifest?)")
    elif last.get("records") != len(records):
        errors.append(f"{path}: run_end.records={last.get('records')} but "
                      f"manifest has {len(records)} records")
    return errors


def fit_slope(points):
    """Least-squares slope of log(y) vs log(x); None if underdetermined."""
    logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(logs) < 2:
        return None
    n = len(logs)
    mx = sum(p[0] for p in logs) / n
    my = sum(p[1] for p in logs) / n
    denom = sum((p[0] - mx) ** 2 for p in logs)
    if denom == 0:
        return None
    return sum((p[0] - mx) * (p[1] - my) for p in logs) / denom


def collect(records):
    """Groups a manifest's records: run header, batches, curves, slopes,
    exponent fits, timelines, metrics snapshots."""
    out = {"run": None, "batches": [], "curves": {}, "slopes": [],
           "fits": [], "timelines": [], "metrics": [], "accuracy": [],
           "profs": []}
    for rec in records:
        rtype = rec.get("record")
        if rtype == "run" and out["run"] is None:
            out["run"] = rec
        elif rtype == "batch":
            out["batches"].append(rec)
        elif rtype == "curve_point":
            out["curves"].setdefault(rec["curve"], []).append(
                (rec["x"], rec["y"]))
        elif rtype == "slope":
            out["slopes"].append(rec)
        elif rtype == "fit":
            out["fits"].append(rec)
        elif rtype == "timeline":
            out["timelines"].append(rec)
        elif rtype == "metrics":
            out["metrics"].append(rec["metrics"])
        elif rtype == "accuracy":
            out["accuracy"].append(rec)
        elif rtype == "prof":
            out["profs"].append(rec)
    return out


def check_slopes(path, grouped):
    """Cross-checks slope records against their curves. Returns error
    strings for inconsistent verdicts or measurement/refit mismatches."""
    errors = []
    for slope in grouped["slopes"]:
        curve = slope["curve"]
        if not slope["consistent"]:
            errors.append(
                f"{path}: curve {curve!r}: measured slope "
                f"{slope['measured']:.3f} inconsistent with predicted "
                f"{slope['predicted']:.3f}")
        refit = fit_slope(grouped["curves"].get(curve, []))
        if refit is not None and \
                abs(refit - slope["measured"]) > REFIT_TOLERANCE:
            errors.append(
                f"{path}: curve {curve!r}: recorded measured slope "
                f"{slope['measured']:.6f} but points refit to {refit:.6f}")
    return errors


def check_fits(path, grouped):
    """Every "fit" record must agree with a refit of its own curve_point
    data, and its point count with the number of recorded points."""
    errors = []
    for fit in grouped["fits"]:
        curve = fit["curve"]
        points = grouped["curves"].get(curve, [])
        if len(points) != fit["points"]:
            errors.append(
                f"{path}: fit {curve!r}: records {fit['points']} points but "
                f"manifest has {len(points)} curve_point rows")
        refit = fit_slope(points)
        if refit is not None and \
                abs(refit - fit["fitted_exponent"]) > REFIT_TOLERANCE:
            errors.append(
                f"{path}: fit {curve!r}: recorded exponent "
                f"{fit['fitted_exponent']:.6f} but points refit to "
                f"{refit:.6f}")
    return errors


def audit_slack_bytes(slots):
    return AUDIT_SLACK_FLOOR_BYTES + AUDIT_SLACK_PER_SLOT_BYTES * slots


def within_audit_slack(reported, audited, slots):
    """Two-sided audit check, mirroring obs::WithinAuditSlack."""
    add = audit_slack_bytes(slots)
    return (audited <= AUDIT_SLACK_MULTIPLIER * reported + add and
            reported <= AUDIT_SLACK_MULTIPLIER * audited + add)


def batch_slots(batch):
    """The estimator's configured slot count from the batch config (0 when
    the bench recorded none)."""
    config = batch.get("config", {})
    for key in SLOT_CONFIG_KEYS:
        value = config.get(key)
        if isinstance(value, (int, float)):
            return int(value)
    return 0


def check_audit(path, grouped):
    """The ground-truth space audit: in every batch result that carries an
    allocator-audited peak (> 0; communication protocols and amplified
    copy-groups report 0), the audited and self-reported peaks must agree
    within the documented slack."""
    errors = []
    for batch in grouped["batches"]:
        slots = batch_slots(batch)
        for row in batch.get("results", []):
            reported = row.get("reported_peak_bytes", 0)
            audited = row.get("audited_peak_bytes", 0)
            if audited == 0:
                continue  # unaudited run (no memory domain)
            if not within_audit_slack(reported, audited, slots):
                errors.append(
                    f"{path}: batch {batch['label']!r} trial "
                    f"{row.get('trial')}: audited {audited}B vs reported "
                    f"{reported}B exceeds slack "
                    f"(x{AUDIT_SLACK_MULTIPLIER:g} + "
                    f"{audit_slack_bytes(slots)}B, slots={slots})")
    return errors


def check_throughput_pairs(path, grouped):
    """Batched delivery must not regress below per-pair delivery: for every
    curve pair ``<base>/pairwise`` and ``<base>/batched`` (the replay
    microbenchmark records one such pair per graph family), the batched
    curve's mean y must be >= the pairwise curve's mean y."""
    errors = []
    for curve in sorted(grouped["curves"]):
        if not curve.endswith("/pairwise"):
            continue
        base = curve[: -len("/pairwise")]
        batched = grouped["curves"].get(base + "/batched")
        if not batched:
            continue
        pairwise_mean = sum(y for _, y in grouped["curves"][curve]) / \
            len(grouped["curves"][curve])
        batched_mean = sum(y for _, y in batched) / len(batched)
        if batched_mean < pairwise_mean:
            errors.append(
                f"{path}: curve {base!r}: batched throughput "
                f"{batched_mean:.4g} below pairwise {pairwise_mean:.4g}")
    return errors


def check_driver_counters(path, grouped):
    """A run cannot complete more passes than were requested: in every
    metrics snapshot carrying both counters, driver.passes (completed) must
    be <= driver.passes_requested."""
    errors = []
    for i, snap in enumerate(grouped["metrics"]):
        counters = snap.get("counters", {})
        completed = counters.get("driver.passes")
        requested = counters.get("driver.passes_requested")
        if completed is None or requested is None:
            continue
        if completed > requested:
            errors.append(
                f"{path}: metrics snapshot {i}: driver.passes={completed} "
                f"exceeds driver.passes_requested={requested}")
    return errors


def check_timelines(path, grouped):
    """The timeline's recorded maxima must equal the maxima over its
    points (each point is a [pairs, reported, audited] triple)."""
    errors = []
    for tl in grouped["timelines"]:
        reported_max = 0
        audited_max = 0
        for pass_tl in tl.get("passes", []):
            for point in pass_tl.get("points", []):
                reported_max = max(reported_max, point[1])
                audited_max = max(audited_max, point[2])
        if reported_max != tl["max_reported_bytes"]:
            errors.append(
                f"{path}: timeline {tl['label']!r}: max_reported_bytes="
                f"{tl['max_reported_bytes']} but points max to "
                f"{reported_max}")
        if audited_max != tl["max_audited_bytes"]:
            errors.append(
                f"{path}: timeline {tl['label']!r}: max_audited_bytes="
                f"{tl['max_audited_bytes']} but points max to "
                f"{audited_max}")
    return errors


def check_accuracy(path, grouped):
    """Internal consistency of accuracy records (obs/accuracy.h): the
    fraction must equal within/trials, and within_band must equal the
    band test frac_within >= 1 - delta (vacuously true at 0 trials). A
    False within_band is a recorded observation, not an error — benches
    track the guarantee, they do not enforce it here."""
    errors = []
    for rec in grouped["accuracy"]:
        name = rec.get("estimator", "?")
        trials, within = rec.get("trials", 0), rec.get("within", 0)
        if within > trials:
            errors.append(f"{path}: accuracy {name!r}: within={within} "
                          f"exceeds trials={trials}")
            continue
        want_frac = within / trials if trials else 0.0
        if abs(rec.get("frac_within", 0.0) - want_frac) > 1e-9:
            errors.append(
                f"{path}: accuracy {name!r}: frac_within="
                f"{rec.get('frac_within')} but within/trials={want_frac}")
        want_band = trials == 0 or want_frac >= 1.0 - rec.get("delta", 0.0) \
            - 1e-12
        if bool(rec.get("within_band")) != want_band:
            errors.append(
                f"{path}: accuracy {name!r}: within_band="
                f"{rec.get('within_band')} inconsistent with frac_within="
                f"{want_frac:.4f} vs 1-delta="
                f"{1.0 - rec.get('delta', 0.0):.4f}")
        if rec.get("max_rel_error", 0.0) < 0.0 or \
                rec.get("mean_rel_error", 0.0) < 0.0:
            errors.append(f"{path}: accuracy {name!r}: negative error stat")
    return errors


def check_prof(path, grouped):
    """Sanity of hardware-counter aggregates: counters and counts are
    non-negative, the backend is one the profiler can name, the fallback
    flag is consistent with it (a perf_event record is by definition not a
    fallback), and when perf_event measured real cycles the recorded IPC
    both matches instructions/cycles and sits inside the plausibility
    band [PROF_IPC_MIN, PROF_IPC_MAX]. Rusage-backend records carry zero
    hardware counters by construction and skip the IPC band."""
    errors = []
    for rec in grouped["profs"]:
        scope = rec.get("scope", "?")
        where = f"{path}: prof {scope!r}"
        if rec.get("count", 0) < 0:
            errors.append(f"{where}: negative count {rec.get('count')}")
        for field in PROF_COUNTER_FIELDS + ("ipc",):
            value = rec.get(field, 0)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"{where}: bad {field}={value!r}")
        backend = rec.get("backend")
        if backend not in PROF_BACKENDS:
            errors.append(f"{where}: unknown backend {backend!r}")
            continue
        if backend == "perf_event" and rec.get("fallback"):
            errors.append(f"{where}: perf_event backend flagged as "
                          "fallback")
        cycles = rec.get("cycles", 0)
        if backend == "perf_event" and cycles > 0:
            want_ipc = rec.get("instructions", 0) / cycles
            ipc = rec.get("ipc", 0.0)
            if abs(ipc - want_ipc) > 1e-6 * max(1.0, want_ipc):
                errors.append(
                    f"{where}: ipc={ipc:.4f} but instructions/cycles="
                    f"{want_ipc:.4f}")
            if not PROF_IPC_MIN <= ipc <= PROF_IPC_MAX:
                errors.append(
                    f"{where}: ipc={ipc:.4f} outside plausibility band "
                    f"[{PROF_IPC_MIN:g}, {PROF_IPC_MAX:g}]")
    return errors


def cmd_validate(args):
    failed = False
    for path in args.manifests:
        try:
            records = read_manifest(path)
        except ManifestError as e:
            print(f"FAIL {e}")
            failed = True
            continue
        errors = check_schema(path, records)
        if not errors:
            grouped = collect(records)
            errors += check_slopes(path, grouped)
            errors += check_fits(path, grouped)
            errors += check_audit(path, grouped)
            errors += check_timelines(path, grouped)
            errors += check_throughput_pairs(path, grouped)
            errors += check_driver_counters(path, grouped)
            errors += check_accuracy(path, grouped)
            errors += check_prof(path, grouped)
        if errors:
            failed = True
            for e in errors:
                print(f"FAIL {e}")
        else:
            print(f"OK   {path}: {len(records)} records")
    return 1 if failed else 0


def cmd_report(args):
    failed = False
    for path in args.manifests:
        records = read_manifest(path)
        grouped = collect(records)
        run = grouped["run"] or {}
        fitted_by_curve = {f["curve"]: f for f in grouped["fits"]}
        print(f"== {path} ==")
        print(f"bench: {run.get('bench', '?')}  git: {run.get('git', '?')}  "
              f"threads: {run.get('threads', '?')}")
        info = run.get("build_info")
        if isinstance(info, dict):
            print(f"build: {info.get('compiler', '?')} "
                  f"{info.get('compiler_version', '?')} "
                  f"{info.get('build_type', '?')} [{info.get('flags', '')}] "
                  f"@ {info.get('git_sha', '?')[:12]}")
        for batch in grouped["batches"]:
            results = batch["results"]
            est = [r["estimate"] for r in results]
            wall = sum(r["wall_seconds"] for r in results)
            reported = max((r["reported_peak_bytes"] for r in results),
                           default=0)
            audited = max((r["audited_peak_bytes"] for r in results),
                          default=0)
            mean = sum(est) / len(est) if est else 0.0
            audit_str = f", audited {audited}B" if audited else ""
            print(f"  batch {batch['label']}: {batch['trials']} trials, "
                  f"mean estimate {mean:.4g}, peak space {reported}B"
                  f"{audit_str}, wall {wall:.3f}s")
        for tl in grouped["timelines"]:
            npoints = sum(len(p.get("points", [])) for p in tl["passes"])
            print(f"  timeline {tl['label']}: {len(tl['passes'])} passes, "
                  f"{npoints} points, max reported "
                  f"{tl['max_reported_bytes']}B, audited "
                  f"{tl['max_audited_bytes']}B")
        for curve, points in sorted(grouped["curves"].items()):
            refit = fit_slope(points)
            slope_str = f", fitted slope {refit:.3f}" if refit is not None \
                else ""
            fit = fitted_by_curve.get(curve)
            fit_str = (f" (predicted exponent "
                       f"{fit['predicted_exponent']:.3f})" if fit else "")
            print(f"  curve {curve}: {len(points)} points{slope_str}"
                  f"{fit_str}")
        for slope in grouped["slopes"]:
            verdict = "OK" if slope["consistent"] else "INCONSISTENT"
            print(f"  slope {slope['curve']}: measured "
                  f"{slope['measured']:.3f} vs predicted "
                  f"{slope['predicted']:.3f} [{verdict}]")
            if not slope["consistent"]:
                failed = True
        for fit in grouped["fits"]:
            print(f"  fit {fit['curve']}: exponent "
                  f"{fit['fitted_exponent']:+.3f} vs predicted "
                  f"{fit['predicted_exponent']:+.3f} "
                  f"({fit['points']} points)")
        for rec in grouped["accuracy"]:
            verdict = "WITHIN" if rec["within_band"] else "OUTSIDE"
            print(f"  accuracy {rec['estimator']}: {rec['within']}/"
                  f"{rec['trials']} trials within eps={rec['epsilon']:g} "
                  f"(need >= {1.0 - rec['delta']:.3f}) [{verdict} band], "
                  f"max rel err {rec['max_rel_error']:.3g}")
        for rec in grouped["profs"]:
            fb = ", FALLBACK" if rec.get("fallback") else ""
            ipc = rec.get("ipc", 0.0)
            ipc_str = f", ipc {ipc:.2f}" if ipc > 0 else ""
            print(f"  prof {rec['scope']}: {rec['count']} scopes via "
                  f"{rec['backend']}{fb}, task clock "
                  f"{rec.get('task_clock_ns', 0) / 1e6:.2f}ms{ipc_str}")
        for snap in grouped["metrics"]:
            counters = snap.get("counters", {})
            for name in sorted(counters):
                print(f"  metric {name} = {counters[name]}")
    return 1 if failed else 0


def cmd_fit(args):
    """Refits every recorded space curve and prints the measured exponent
    next to the paper's prediction. Exit 1 if any refit disagrees with the
    bench's recorded fit, or (with --require) if a manifest has no fits."""
    failed = False
    for path in args.manifests:
        records = read_manifest(path)
        grouped = collect(records)
        run = grouped["run"] or {}
        bench = run.get("bench", os.path.basename(path))
        if not grouped["fits"]:
            level = "FAIL" if args.require else "note"
            print(f"{level} {path}: no fit records")
            failed = failed or args.require
            continue
        for fit in grouped["fits"]:
            curve = fit["curve"]
            points = grouped["curves"].get(curve, [])
            refit = fit_slope(points)
            status = "OK"
            if refit is None:
                status = "UNDERDETERMINED"
            elif abs(refit - fit["fitted_exponent"]) > REFIT_TOLERANCE:
                status = "MISMATCH"
                failed = True
            refit_str = f"{refit:+.4f}" if refit is not None else "n/a"
            print(f"{bench}: {curve}: fitted {fit['fitted_exponent']:+.4f} "
                  f"(refit {refit_str}) vs predicted "
                  f"{fit['predicted_exponent']:+.4f} "
                  f"[{len(points)} points] {status}")
    return 1 if failed else 0


def cmd_baseline(args):
    baseline = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "scripts/bench_report.py baseline",
        "benches": {},
    }
    for path in args.manifests:
        records = read_manifest(path)
        errors = check_schema(path, records)
        if errors:
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
            return 1
        grouped = collect(records)
        run = grouped["run"] or {}
        bench = run.get("bench", os.path.basename(path))
        fitted_by_curve = {f["curve"]: f for f in grouped["fits"]}
        entry = {"git": run.get("git", "unknown"), "curves": {}, "slopes": []}
        for curve, points in sorted(grouped["curves"].items()):
            refit = fit_slope(points)
            curve_entry = {
                "points": [[x, y] for x, y in points],
                "fitted_slope": refit,
            }
            fit = fitted_by_curve.get(curve)
            if fit is not None:
                curve_entry["fitted_exponent"] = fit["fitted_exponent"]
                curve_entry["predicted_exponent"] = fit["predicted_exponent"]
            entry["curves"][curve] = curve_entry
        for slope in grouped["slopes"]:
            entry["slopes"].append({
                "curve": slope["curve"],
                "measured": slope["measured"],
                "predicted": slope["predicted"],
                "consistent": slope["consistent"],
            })
        batches = {}
        for batch in grouped["batches"]:
            results = batch["results"]
            est = sorted(r["estimate"] for r in results)
            batches[batch["label"]] = {
                "trials": batch["trials"],
                "base_seed": batch["base_seed"],
                "median_estimate": est[len(est) // 2] if est else 0.0,
                "max_reported_peak_bytes": max(
                    (r["reported_peak_bytes"] for r in results), default=0),
                "max_audited_peak_bytes": max(
                    (r["audited_peak_bytes"] for r in results), default=0),
            }
        entry["batches"] = batches
        baseline["benches"][bench] = entry
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}: {len(baseline['benches'])} benches")
    return 0


def parse_prometheus(path):
    """Parses a Prometheus text exposition (version 0.0.4) file into
    (types, samples): types maps family name -> "counter"/"gauge"/
    "histogram"; samples is a list of (name, labels_dict, value, lineno).
    Raises ManifestError on syntactically invalid lines."""
    types = {}
    samples = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 2 and parts[1] == "TYPE":
                    if len(parts) != 4 or parts[3] not in (
                            "counter", "gauge", "histogram", "summary",
                            "untyped"):
                        raise ManifestError(
                            f"{path}:{lineno}: malformed # TYPE line")
                    if parts[2] in types:
                        raise ManifestError(
                            f"{path}:{lineno}: duplicate # TYPE for "
                            f"{parts[2]!r}")
                    types[parts[2]] = parts[3]
                continue  # HELP / comments pass through
            name, labels, value = parse_prometheus_sample(path, lineno, line)
            samples.append((name, labels, value, lineno))
    return types, samples


def parse_prometheus_sample(path, lineno, line):
    """One sample line: ``name{k="v",...} value`` or ``name value``."""
    brace = line.find("{")
    labels = {}
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            raise ManifestError(f"{path}:{lineno}: unbalanced braces")
        name = line[:brace]
        rest = line[close + 1:].strip()
        body = line[brace + 1:close]
        # Label values are escaped (\\, \", \n); split on unquoted commas.
        i = 0
        while i < len(body):
            eq = body.find("=", i)
            if eq < 0 or len(body) <= eq + 1 or body[eq + 1] != '"':
                raise ManifestError(
                    f"{path}:{lineno}: malformed label in {body!r}")
            key = body[i:eq]
            j = eq + 2
            value_chars = []
            while j < len(body):
                c = body[j]
                if c == "\\" and j + 1 < len(body):
                    value_chars.append(
                        {"n": "\n", "\\": "\\", '"': '"'}.get(
                            body[j + 1], body[j + 1]))
                    j += 2
                    continue
                if c == '"':
                    break
                value_chars.append(c)
                j += 1
            if j >= len(body) or body[j] != '"':
                raise ManifestError(
                    f"{path}:{lineno}: unterminated label value")
            labels[key] = "".join(value_chars)
            i = j + 1
            if i < len(body) and body[i] == ",":
                i += 1
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ManifestError(f"{path}:{lineno}: malformed sample line")
        name, rest = parts
    try:
        value = float(rest)
    except ValueError:
        raise ManifestError(
            f"{path}:{lineno}: non-numeric sample value {rest!r}") from None
    if not all(c.isalnum() or c in "_:" for c in name) or not name:
        raise ManifestError(f"{path}:{lineno}: invalid metric name {name!r}")
    return name, labels, value


def base_family(name):
    """The # TYPE family a sample belongs to: histogram samples use the
    _bucket/_sum/_count suffixes of their family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)], suffix
    return name, ""


def check_scrape(path, types, samples):
    """Structural validation of one parsed scrape. Returns error strings."""
    errors = []
    # Group histogram series by (family, non-le labels).
    series = {}
    for name, labels, value, lineno in samples:
        family, suffix = base_family(name)
        ftype = types.get(family) if suffix else types.get(name)
        if suffix and ftype == "histogram":
            key_labels = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            entry = series.setdefault((family, key_labels),
                                      {"buckets": [], "sum": None,
                                       "count": None})
            if suffix == "_bucket":
                le = labels.get("le")
                if le is None:
                    errors.append(f"{path}:{lineno}: histogram bucket "
                                  f"without le label")
                    continue
                entry["buckets"].append(
                    (math.inf if le == "+Inf" else float(le), value))
            elif suffix == "_sum":
                entry["sum"] = value
            else:
                entry["count"] = value
        elif types.get(name) in ("counter", "gauge"):
            if types[name] == "counter" and value < 0:
                errors.append(f"{path}:{lineno}: negative counter {name}")
        else:
            errors.append(
                f"{path}:{lineno}: sample {name!r} has no # TYPE family")
    for (family, key_labels), entry in sorted(series.items()):
        where = f"{path}: histogram {family}{dict(key_labels) or ''}"
        buckets = entry["buckets"]
        if not buckets or buckets[-1][0] != math.inf:
            errors.append(f"{where}: missing le=\"+Inf\" bucket")
            continue
        for (lo, c0), (hi, c1) in zip(buckets, buckets[1:]):
            if hi <= lo:
                errors.append(f"{where}: bucket bounds not increasing")
                break
            if c1 < c0:
                errors.append(f"{where}: bucket counts not cumulative")
                break
        if entry["count"] is None or entry["sum"] is None:
            errors.append(f"{where}: missing _count or _sum")
        elif buckets[-1][1] != entry["count"]:
            errors.append(f"{where}: +Inf bucket {buckets[-1][1]:g} != "
                          f"_count {entry['count']:g}")
    return errors


def cmd_scrape(args):
    failed = False
    for path in args.files:
        try:
            types, samples = parse_prometheus(path)
        except ManifestError as e:
            print(f"FAIL {e}")
            failed = True
            continue
        errors = check_scrape(path, types, samples)
        families = {base_family(name)[0] for name, _, _, _ in samples}
        for required in args.require or []:
            if required not in families:
                errors.append(f"{path}: required family {required!r} absent")
        if errors:
            failed = True
            for e in errors:
                print(f"FAIL {e}")
        else:
            hist = sum(1 for t in types.values() if t == "histogram")
            print(f"OK   {path}: {len(samples)} samples, "
                  f"{len(types)} families ({hist} histograms)")
    return 1 if failed else 0


def baseline_curve_points(baseline):
    """Flattens a BENCH_baseline.json into {(bench, curve, x): y}."""
    points = {}
    for bench, entry in baseline.get("benches", {}).items():
        for curve, cdata in entry.get("curves", {}).items():
            for x, y in cdata.get("points", []):
                points[(bench, curve, x)] = y
    return points


def baseline_batch_peaks(baseline):
    """Flattens batch peaks into {(bench, label): max_reported_peak}."""
    peaks = {}
    for bench, entry in baseline.get("benches", {}).items():
        for label, bdata in entry.get("batches", {}).items():
            peaks[(bench, label)] = bdata.get("max_reported_peak_bytes", 0)
    return peaks


# Curves where y is a rate (higher is better); a drop is a regression.
# Everything else is treated as a size/space curve where growth regresses.
THROUGHPUT_CURVE_MARKERS = ("pairs_per_sec", "per_sec", "throughput")

# Hardware-counter curves (prefix "prof/"): kept in the baseline for
# inspection but excluded from diff gating — IPC and cache-miss rates are
# a property of the machine (and of whether the runner's PMU is exposed
# at all), not of the code, so a cross-host diff would always "regress".
PROF_CURVE_PREFIX = "prof/"


def is_throughput_curve(curve):
    return any(marker in curve for marker in THROUGHPUT_CURVE_MARKERS)


def cmd_diff(args):
    with open(args.old, "r", encoding="utf-8") as f:
        old = json.load(f)
    with open(args.new, "r", encoding="utf-8") as f:
        new = json.load(f)
    old_points = baseline_curve_points(old)
    new_points = baseline_curve_points(new)
    old_peaks = baseline_batch_peaks(old)
    new_peaks = baseline_batch_peaks(new)
    threshold = args.threshold / 100.0
    breaches = []
    compared = 0

    only = getattr(args, "only", None)
    min_x = getattr(args, "min_x", None)
    for key in sorted(old_points):
        if key not in new_points:
            continue
        bench, curve, x = key
        if curve.startswith(PROF_CURVE_PREFIX):
            continue  # hardware-dependent; recorded but never gated
        if only and only not in curve:
            continue
        if min_x is not None and x < min_x:
            continue
        before, after = old_points[key], new_points[key]
        if before <= 0:
            continue
        compared += 1
        delta = (after - before) / before
        direction = "throughput" if is_throughput_curve(curve) else "space"
        regressed = (delta < -threshold if direction == "throughput"
                     else delta > threshold)
        marker = " REGRESSION" if regressed else ""
        if regressed or args.verbose:
            print(f"{bench}: {curve} @ x={x:g}: {before:.4g} -> {after:.4g} "
                  f"({delta:+.2%}, {direction}){marker}")
        if regressed:
            breaches.append(key)

    for key in sorted(old_peaks):
        if key not in new_peaks:
            continue
        bench, label = key
        if only and only not in label:
            continue
        before, after = old_peaks[key], new_peaks[key]
        if before <= 0:
            continue
        compared += 1
        delta = (after - before) / before
        regressed = delta > threshold
        if regressed or args.verbose:
            marker = " REGRESSION" if regressed else ""
            print(f"{bench}: batch {label!r} peak: {before}B -> {after}B "
                  f"({delta:+.2%}, space){marker}")
        if regressed:
            breaches.append(key)

    missing = sorted((bench, curve, x)
                     for bench, curve, x in set(old_points) - set(new_points)
                     if not curve.startswith(PROF_CURVE_PREFIX))
    for bench, curve, x in missing[:10]:
        print(f"note {bench}: {curve} @ x={x:g} absent from {args.new}")
    print(f"{'FAIL' if breaches else 'OK  '} compared {compared} points, "
          f"{len(breaches)} regression(s) beyond {args.threshold:g}%")
    return 1 if breaches else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema-check manifests")
    p.add_argument("manifests", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="summarize manifests")
    p.add_argument("manifests", nargs="+")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fit", help="refit space-vs-T exponents")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--require", action="store_true",
                   help="fail on manifests with no fit records")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("baseline", help="regenerate BENCH_baseline.json")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--out", default="BENCH_baseline.json")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("scrape",
                       help="validate Prometheus text exposition files")
    p.add_argument("files", nargs="+")
    p.add_argument("--require", action="append", metavar="FAMILY",
                   help="fail unless this metric family is present "
                        "(repeatable)")
    p.set_defaults(func=cmd_scrape)

    p = sub.add_parser("diff",
                       help="compare two BENCH_baseline.json files")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--threshold", type=float, default=2.0,
                   help="regression threshold in percent (default 2)")
    p.add_argument("--verbose", action="store_true",
                   help="print every compared point, not just regressions")
    p.add_argument("--only", default=None, metavar="SUBSTRING",
                   help="compare only curves/batches whose name contains "
                        "SUBSTRING (e.g. 'shards=4')")
    p.add_argument("--min-x", type=float, default=None, dest="min_x",
                   help="skip curve points with x below this (small-x "
                        "points have millisecond windows dominated by "
                        "thread-placement noise)")
    p.set_defaults(func=cmd_diff)

    args = parser.parse_args()
    try:
        return args.func(args)
    except ManifestError as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

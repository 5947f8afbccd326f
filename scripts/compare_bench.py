#!/usr/bin/env python3
"""Diff two osched_bench --out JSON reports with a tolerance band.

Compares a baseline report against a current one, metric by metric:

* Wall-clock metrics ("seconds", "*_per_sec", "peak_rss_*") are compared
  with a relative tolerance band (--tolerance, default 0.30): jobs/sec may
  drop by up to that fraction, seconds/RSS may grow by up to that fraction,
  before the diff counts as a perf regression. Direction matters — getting
  faster or smaller is never a regression.
* Metrics prefixed "tier_" describe WHICH code path produced the numbers
  (e23's tier_order_width 0/16: whether Theorem 1's dispatch walked an
  order table) — not scheduling outputs, since dispatch with and without
  the table makes bit-identical decisions. Differences are reported as
  informational notes, never as regressions or mismatches.
* Metrics prefixed "seeded_" are deterministic ONLY per seed (e20's chaos
  schedule and e22's burst-warped workload move with --seed, and e22's
  per-shard overload counters — seeded_hot_deferred, seeded_total_sheds,
  seeded_shard_shed_spread — derive from them): they are compared exactly,
  like the deterministic class below, but only when both reports carry the
  same top-level root_seed and scale; otherwise they are skipped with an
  informational note (never promoted to an error by --fail-on-missing —
  a rotating-seed CI report is expected to disagree with the committed
  baseline on them).
* Every other metric is treated as a deterministic output of (seed, scale)
  — rejected counts, flow times, dual objectives — and must match exactly
  (mean, min and max). A mismatch means the two binaries scheduled
  differently, which is a correctness failure, not noise.

Scenarios/cases/metrics present only in the CURRENT report are warnings
(the suite grows over time); --fail-on-missing promotes them to errors.
Anything the BASELINE has that the current report lost — a whole case, or
one of the core deterministic metrics (rejected/completed/total_flow) — is
a determinism error (exit 2) outright: losing those columns must never
downgrade the correctness gate to a warning.

For e17's sharded cases the script also prints shard-scaling efficiency
(jobs/s per worker relative to the single-session case) for both reports,
and for e22's multi-tenant cases an informational fairness line (hot-tenant
deferrals and the per-shard shed spread).

Exit codes: 0 OK, 1 perf regression beyond tolerance, 2 determinism
mismatch or structural/schema error (including an unreadable or off-schema
report — never conflated with the advisory exit 1).

Usage:
  compare_bench.py baseline.json current.json [--tolerance 0.30]
                   [--fail-on-missing]
"""
import argparse
import json
import sys

EXPECTED_SCHEMA = "osched.bench.report"

# "workers" is the shard driver's resolved worker count — shaped by the
# host's core count, not by scheduling decisions, so it belongs to the
# wall-clock class (band-compared), not the deterministic one.
PERF_EXACT = {"seconds", "compute_seconds", "wall_seconds", "workers"}
# Memory metrics are wall-clock-class (banded, never exact-matched) AND get
# their own band (--rss-tolerance): RSS is an OS-level reading (allocator
# retention, page granularity) whose noise profile is unrelated to
# wall-clock jitter, so e.g. CI can band time loosely while gating memory
# tightly — the e18 storage-backend gate. Note store_bytes is deliberately
# NOT here: an instance's exact backend footprint is deterministic and must
# match exactly.
RSS_PREFIXES = ("peak_rss", "rss_")
PERF_PREFIXES = RSS_PREFIXES
PERF_SUFFIXES = ("_per_sec",)


def is_rss_metric(name: str) -> bool:
    return name.startswith(RSS_PREFIXES)

# Metrics that every scheduling case emits and whose absence (on either
# side) is treated as a determinism failure, not a schema warning: a report
# that silently lost its rejected/completed/total_flow columns must never
# pass the cross-binary correctness gate.
CORE_DETERMINISTIC = ("rejected", "completed", "total_flow")

# Deterministic per seed, not per binary: the value is an exact function of
# (root_seed, scale) — e20's chaos schedules are drawn from the root seed —
# so exact comparison is only meaningful between same-seed, same-scale
# reports. Everywhere else these are skipped, not warned about.
SEEDED_PREFIX = "seeded_"

# Code-path attribution, not output: the order-table width that served the
# case (tier_order_width). Both paths are bit-identical by contract, so a
# tier change can explain a perf delta but can never itself be a regression
# or a determinism error.
TIER_PREFIX = "tier_"


def is_seeded_metric(name: str) -> bool:
    return name.startswith(SEEDED_PREFIX)


def is_tier_metric(name: str) -> bool:
    return name.startswith(TIER_PREFIX)


def is_perf_metric(name: str) -> bool:
    return (
        name in PERF_EXACT
        or name.startswith(PERF_PREFIXES)
        or name.endswith(PERF_SUFFIXES)
    )


def higher_is_better(name: str) -> bool:
    return name.endswith(PERF_SUFFIXES)


def load_report(path: str) -> dict:
    # Structural failures exit 2 (the gating code), NOT 1: CI treats exit 1
    # as advisory tolerance drift, and a missing/renamed/off-schema baseline
    # must never pass as a perf warning.
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"compare_bench: cannot load {path}: {error}", file=sys.stderr)
        sys.exit(2)
    if report.get("schema") != EXPECTED_SCHEMA:
        print(f"compare_bench: {path}: schema {report.get('schema')!r}, "
              f"want {EXPECTED_SCHEMA!r}", file=sys.stderr)
        sys.exit(2)
    return report


def index_cases(report: dict) -> dict:
    out = {}
    for scenario in report.get("scenarios", []):
        for case in scenario.get("cases", []):
            out[(scenario["name"], case["label"])] = case.get("metrics", {})
    return out


def report_shard_efficiency(side: str, cases: dict) -> None:
    """Prints shard-scaling efficiency for every e17 sharded case.

    Efficiency = sharded jobs/s per worker, relative to the single-session
    case of the same scenario: 1.0 means adding workers costs nothing,
    below 1/workers means sharding is slower than not sharding at all.
    """
    for (scenario, label), metrics in sorted(cases.items()):
        if "sharded" not in label:
            continue
        single = None
        for (other_scenario, other_label), other in cases.items():
            if other_scenario == scenario and "stream t1" in other_label:
                single = other
                break
        if single is None:
            continue
        try:
            sharded_jps = metrics["jobs_per_sec"]["mean"]
            single_jps = single["jobs_per_sec"]["mean"]
            workers = metrics.get("workers", {}).get("mean") or 1.0
        except (KeyError, TypeError):
            continue
        if not single_jps or single_jps <= 0 or not workers:
            continue
        speedup = sharded_jps / single_jps
        print(f"compare_bench: shard-scaling [{side}] {scenario}/{label}: "
              f"{speedup:.2f}x vs single session over {workers:.0f} "
              f"worker(s) = efficiency {speedup / workers:.2f}")


def report_fairness_spread(side: str, cases: dict) -> None:
    """Prints the multi-tenant fairness picture for every e22 DRR case.

    Informational only (the gating comparison of these seeded_* columns
    happens in the main loop when seeds match): how often the hot tenant
    was deferred back to its quantum, and how unevenly the overload sheds
    landed across the shards (0 = perfectly even).
    """
    for (scenario, label), metrics in sorted(cases.items()):
        if "drr" not in label:
            continue
        try:
            deferred = metrics["seeded_hot_deferred"]["mean"]
            spread = metrics["seeded_shard_shed_spread"]["mean"]
            sheds = metrics["seeded_total_sheds"]["mean"]
        except (KeyError, TypeError):
            continue
        print(f"compare_bench: fairness [{side}] {scenario}/{label}: "
              f"hot tenant deferred {deferred:.0f}x; {sheds:.0f} shed(s) "
              f"across shards, spread {spread:.0f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="relative band for wall-clock metrics "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--rss-tolerance", type=float, default=None,
                        help="relative band for memory metrics (peak_rss_*, "
                             "rss_*); defaults to --tolerance")
    parser.add_argument("--fail-on-missing", action="store_true",
                        help="treat one-sided scenarios/cases/metrics as "
                             "errors instead of warnings")
    args = parser.parse_args()

    base_report = load_report(args.baseline)
    cur_report = load_report(args.current)
    base = index_cases(base_report)
    cur = index_cases(cur_report)

    # seeded_* metrics are only comparable between reports generated from
    # the same root seed at the same scale (see module docstring).
    seeds_comparable = (
        base_report.get("root_seed") is not None
        and base_report.get("root_seed") == cur_report.get("root_seed")
        and base_report.get("scale") == cur_report.get("scale")
    )

    perf_regressions = []
    determinism_errors = []
    warnings = []
    tier_notes = []
    compared = 0
    seeded_skipped = 0

    for key in sorted(set(base) | set(cur)):
        scenario, label = key
        if key not in cur:
            # A case the BASELINE has but the current report lost takes its
            # deterministic trio with it — that is a correctness failure,
            # not suite growth.
            determinism_errors.append(
                f"{scenario}/{label}: present in baseline but missing from "
                f"current report (its deterministic metrics are gone)")
            continue
        if key not in base:
            warnings.append(f"{scenario}/{label}: only in current")
            continue
        metrics = sorted(set(base[key]) | set(cur[key]))
        for name in metrics:
            if name not in base[key] or name not in cur[key]:
                side = "baseline" if name not in cur[key] else "current"
                if name in CORE_DETERMINISTIC:
                    determinism_errors.append(
                        f"{scenario}/{label}/{name}: deterministic metric "
                        f"only in {side} report")
                else:
                    warnings.append(f"{scenario}/{label}/{name}: only in {side}")
                continue
            b, c = base[key][name], cur[key][name]
            where = f"{scenario}/{label}/{name}"
            if is_tier_metric(name):
                if b.get("mean") != c.get("mean"):
                    tier_notes.append(
                        f"{where}: {b.get('mean')!r} -> {c.get('mean')!r} "
                        f"(code-path attribution only; outputs are "
                        f"bit-identical across tiers)")
                continue
            if is_seeded_metric(name):
                if not seeds_comparable:
                    seeded_skipped += 1
                    continue
                compared += 1
                for stat in ("mean", "min", "max"):
                    if b.get(stat) != c.get(stat):
                        determinism_errors.append(
                            f"{where}.{stat}: {b.get(stat)!r} != "
                            f"{c.get(stat)!r} (seeded metric must match "
                            f"exactly between same-seed reports)")
                        break
                continue
            compared += 1
            if is_perf_metric(name):
                b_mean, c_mean = b.get("mean"), c.get("mean")
                if not b_mean or b_mean <= 0 or c_mean is None:
                    continue  # degenerate timing (zero/null): nothing to band
                tolerance = args.tolerance
                if is_rss_metric(name) and args.rss_tolerance is not None:
                    tolerance = args.rss_tolerance
                ratio = c_mean / b_mean
                if higher_is_better(name):
                    ok = ratio >= 1.0 - tolerance
                    direction = "dropped to"
                else:
                    ok = ratio <= 1.0 + tolerance
                    direction = "grew to"
                if not ok:
                    perf_regressions.append(
                        f"{where}: {direction} {ratio:.2f}x of baseline "
                        f"({b_mean:.6g} -> {c_mean:.6g}, tolerance "
                        f"{tolerance:.0%})")
            else:
                for stat in ("mean", "min", "max"):
                    if b.get(stat) != c.get(stat):
                        determinism_errors.append(
                            f"{where}.{stat}: {b.get(stat)!r} != "
                            f"{c.get(stat)!r} (deterministic metric must "
                            f"match exactly)")
                        break

    report_shard_efficiency("baseline", base)
    report_shard_efficiency("current", cur)
    report_fairness_spread("baseline", base)
    report_fairness_spread("current", cur)

    for message in tier_notes:
        print(f"compare_bench: note: dispatch tier changed: {message}")
    for message in warnings:
        print(f"compare_bench: WARN: {message}", file=sys.stderr)
    for message in perf_regressions:
        print(f"compare_bench: PERF REGRESSION: {message}", file=sys.stderr)
    for message in determinism_errors:
        print(f"compare_bench: DETERMINISM MISMATCH: {message}",
              file=sys.stderr)

    if seeded_skipped:
        print(f"compare_bench: note: skipped {seeded_skipped} seeded_* "
              f"metric(s) — reports differ in root_seed or scale, so "
              f"seed-dependent outputs are not comparable")
    print(f"compare_bench: compared {compared} metrics: "
          f"{len(perf_regressions)} perf regression(s), "
          f"{len(determinism_errors)} determinism mismatch(es), "
          f"{len(warnings)} warning(s)")

    if determinism_errors or (warnings and args.fail_on_missing):
        sys.exit(2)
    if perf_regressions:
        sys.exit(1)


if __name__ == "__main__":
    main()

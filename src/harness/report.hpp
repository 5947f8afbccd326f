// Report emission for batch runs: versioned JSON, CSV, console tables.
//
// The JSON schema is stable and versioned (kReportSchemaVersion) so CI can
// archive BENCH_*.json artifacts and diff metric trajectories across
// commits. Everything under "scenarios" is a deterministic function of
// (selection, seed, scale); timing lives in separate fields ("jobs",
// "*_seconds") that JsonOptions::include_timing can strip, which is how the
// determinism test compares a --jobs 1 run against a --jobs 8 run
// byte-for-byte. Exception: scenarios tagged "perf" (e16-e23) carry
// wall-clock columns (seconds, throughput, peak RSS) among their metrics.
// Only those columns vary run to run, so exclude the "perf" tag from
// byte-level determinism diffs; scripts/compare_bench.py diffs the other
// columns exactly.
//
// Schema (version 1):
//   {
//     "schema": "osched.bench.report",
//     "schema_version": 1,
//     "root_seed": <uint>,
//     "scale": <number>,
//     "passed": <bool>,
//     "scenarios": [
//       {
//         "name": <string>, "tags": [<string>...],
//         "passed": <bool>, "note": <string>,
//         "cases": [
//           {
//             "label": <string>,
//             "params": {<name>: <number>, ...},
//             "metrics": {
//               <name>: {"mean":, "stddev":, "min":, "max":, "count":}, ...
//             }
//           }, ...
//         ],
//         "compute_seconds": <number>      // only with include_timing
//       }, ...
//     ],
//     "jobs": <uint>,                      // only with include_timing
//     "wall_seconds": <number>             // only with include_timing
//   }
#pragma once

#include <ostream>
#include <string>

#include "harness/runner.hpp"

namespace osched::harness {

inline constexpr int kReportSchemaVersion = 1;
inline constexpr const char* kReportSchemaName = "osched.bench.report";

struct JsonOptions {
  /// Strip the non-deterministic fields (timing, worker count).
  bool include_timing = true;
};

/// Serializes the batch as schema-versioned JSON (2-space indent, fields in
/// fixed order, shortest round-trip doubles; NaN/Inf become null).
std::string to_json(const BatchReport& batch, const JsonOptions& options = {});

/// Long-form CSV: scenario,case,metric,mean,stddev,min,max,count.
void write_csv(const BatchReport& batch, std::ostream& out);

/// Console rendering: one table per scenario (rows = cases, columns = metric
/// means ± stddev) plus the verdict lines, in the style the bench binaries
/// used to print.
void print_tables(const BatchReport& batch, std::ostream& out);

}  // namespace osched::harness

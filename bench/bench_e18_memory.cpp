// E18 — storage-backend memory scaling (registered scenario "e18_memory").
//
// The perf tier behind the pluggable processing-store refactor: the SAME
// closed-form workload (workload/generated_family.hpp) runs through the
// Theorem 1 scheduler under each storage backend, and the scenario verdict
// asserts the refactor's two contracts in-process:
//
//  1. Determinism: rejected / completed / total_flow are BIT-identical
//     between backends of the same workload — storage must be invisible to
//     scheduling.
//  2. Memory: the compact backends undercut the dense matrix by >= 4x in
//     measured store bytes (sparse at eligibility 1/16; generator at
//     m = 2048, whose store is the job records only).
//
// Memory is reported three ways: store_bytes (the instance's exact backend
// footprint — deterministic, diffed exactly by scripts/compare_bench.py),
// rss_delta_mib (current-RSS growth across the case: build + run + live
// instance, band-compared) and peak_rss_mib (process high-water mark —
// monotone, so the grid orders generator/sparse cases BEFORE their dense
// twins; run with --jobs 1 to keep per-case readings meaningful).
//
// Tags: "perf" + "slow" like e16/e17; CI's perf-smoke job runs it at
// --scale 0.05 with the compare gate (rss_* metrics take the --rss-tolerance
// band there).
#include <algorithm>
#include <string>

#include "core/flow/rejection_flow.hpp"
#include "harness/registry.hpp"
#include "util/timer.hpp"
#include "workload/generated_family.hpp"

#include "peak_rss.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <unistd.h>

#include <cstdio>
#endif

namespace {

using namespace osched;
using harness::CaseSpec;
using harness::MetricRow;
using harness::Scenario;
using harness::ScenarioReport;
using harness::UnitContext;
using harness::Verdict;
// Peak RSS is monotone per process, hence compact backends first.
using bench::peak_rss_mib;

/// CURRENT resident set in MiB (0.0 where unsupported). Unlike the peak,
/// this moves down when memory is returned, so before/after deltas isolate
/// one case's footprint. malloc_trim first hands freed arena pages back so
/// the reading reflects live allocations, not allocator retention.
double current_rss_mib() {
#if defined(__linux__)
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  long total = 0;
  long resident = 0;
  const int got = std::fscanf(statm, "%ld %ld", &total, &resident);
  std::fclose(statm);
  if (got != 2) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident) * static_cast<double>(page) /
         (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

MetricRow run_e18_unit(const UnitContext& ctx) {
  const auto backend = static_cast<StorageBackend>(
      static_cast<int>(ctx.param("backend")));
  workload::ClosedFormConfig config;
  config.num_jobs = ctx.scaled(static_cast<std::size_t>(ctx.param("n")));
  config.num_machines = static_cast<std::size_t>(ctx.param("m"));
  config.eligibility = ctx.param_or("eligibility", 1.0);
  // SCENARIO seed, not the per-case unit seed: backend pairs must run the
  // SAME workload or the verdict's byte-equality would compare apples to
  // oranges (cells differ by (n, m, eligibility), which is in the config).
  config.seed = ctx.scenario_seed;

  const double rss_before = current_rss_mib();
  const Instance instance = workload::make_closed_form_instance(config, backend);

  util::Timer timer;
  const RejectionFlowResult result =
      run_rejection_flow(instance, {.epsilon = 0.25});
  const double seconds = timer.elapsed_seconds();
  // Sampled while the instance is still live: the delta is the case's
  // build + store + run working set.
  const double rss_after = current_rss_mib();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(config.num_jobs) / seconds : 0.0);
  row.set("store_bytes", static_cast<double>(instance.store_bytes()));
  row.set("rss_delta_mib", std::max(0.0, rss_after - rss_before));
  row.set("peak_rss_mib", peak_rss_mib());
  // Deterministic outputs: identical across runs, binaries, --jobs values
  // AND storage backends for one (seed, scale) — the cross-backend equality
  // is asserted in the verdict below.
  row.set("rejected", static_cast<double>(result.schedule.num_rejected()));
  row.set("completed", static_cast<double>(result.schedule.num_completed()));
  row.set("total_flow", result.schedule.total_flow(instance));
  return row;
}

Scenario make_e18() {
  Scenario scenario;
  scenario.name = "e18_memory";
  scenario.description =
      "storage-backend memory scaling: dense vs sparse-CSR vs generator on "
      "one closed-form workload, byte-identical outputs asserted";
  scenario.tags = {"perf", "storage", "slow"};
  scenario.repetitions = 1;
  const struct {
    const char* label;
    StorageBackend backend;
    double n;
    double m;
    double eligibility;
  } cells[] = {
      // Compact backends FIRST (peak RSS is a process high-water mark).
      // The m=2048 sweep the dense backend cannot afford at full n:
      {"generator n=100000 m=2048", StorageBackend::kGenerator, 100000, 2048,
       1.0},
      // Backend-equality pairs (generator vs dense at reduced n; sparse vs
      // dense at eligibility 1/16):
      {"gendiff generator n=20000 m=2048", StorageBackend::kGenerator, 20000,
       2048, 1.0},
      {"sparse elig=1/16 n=100000 m=512", StorageBackend::kSparseCsr, 100000,
       512, 0.0625},
      {"gendiff dense n=20000 m=2048", StorageBackend::kDense, 20000, 2048,
       1.0},
      {"dense elig=1/16 n=100000 m=512", StorageBackend::kDense, 100000, 512,
       0.0625},
  };
  for (const auto& cell : cells) {
    scenario.grid.push_back(
        CaseSpec(cell.label)
            .with("backend", static_cast<double>(cell.backend))
            .with("n", cell.n)
            .with("m", cell.m)
            .with("eligibility", cell.eligibility));
  }
  scenario.run_unit = run_e18_unit;
  scenario.evaluate = [](const ScenarioReport& report) {
    // Contract 1: byte-identical deterministic outputs per backend pair.
    const struct {
      const char* compact;
      const char* dense;
    } pairs[] = {
        {"gendiff generator n=20000 m=2048", "gendiff dense n=20000 m=2048"},
        {"sparse elig=1/16 n=100000 m=512", "dense elig=1/16 n=100000 m=512"},
    };
    for (const auto& pair : pairs) {
      const auto& compact = report.case_result(pair.compact);
      const auto& dense = report.case_result(pair.dense);
      for (const char* metric : {"rejected", "completed", "total_flow"}) {
        const double a = compact.metric(metric).mean();
        const double b = dense.metric(metric).mean();
        if (a != b) {
          return Verdict{false, std::string("backend mismatch on ") + metric +
                                    " (" + pair.compact + " vs " + pair.dense +
                                    "): " + std::to_string(a) + " vs " +
                                    std::to_string(b)};
        }
      }
      // Contract 2: the compact backend stores >= 4x less than the dense
      // matrix of the same workload (store_bytes is exact, not sampled).
      const double compact_bytes = compact.metric("store_bytes").mean();
      const double dense_bytes = dense.metric("store_bytes").mean();
      if (!(compact_bytes * 4.0 <= dense_bytes)) {
        return Verdict{false, std::string(pair.compact) +
                                  " stores " + std::to_string(compact_bytes) +
                                  " bytes, not >= 4x under dense's " +
                                  std::to_string(dense_bytes)};
      }
      // RSS cross-check, asserted only when the dense twin's measured
      // growth is big enough (>= 64 MiB) for allocator noise to wash out —
      // reduced-scale CI runs stay informational.
      const double compact_rss = compact.metric("rss_delta_mib").mean();
      const double dense_rss = dense.metric("rss_delta_mib").mean();
      if (dense_rss >= 64.0 && !(compact_rss * 4.0 <= dense_rss)) {
        return Verdict{false, std::string(pair.compact) + " RSS delta " +
                                  std::to_string(compact_rss) +
                                  " MiB, not >= 4x under dense's " +
                                  std::to_string(dense_rss) + " MiB"};
      }
    }
    return Verdict{true,
                   "backends byte-identical; sparse and generator stores >= "
                   "4x under dense"};
  };
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e18);

}  // namespace

// E16 — flat-memory hot-path throughput (registered scenario "e16_hotpath").
//
// The perf tier behind the arena-treap / slot-event-queue / eligibility-
// adjacency rewrite: it drives the Theorem 1 scheduler at production scale
// (n up to 10^6 jobs, m up to 256 machines) across dense, sparse
// (restricted-assignment) and adversarial (bursty bimodal, rejection-heavy)
// workloads, and reports jobs/sec plus peak RSS so BENCH_*.json finally
// tracks a throughput trajectory, not just solution quality.
//
// Deterministic side metrics (rejected, total_flow) double as the
// correctness gate: scripts/compare_bench.py checks them for exact equality
// between two reports while giving the wall-clock metrics a tolerance band.
// Peak RSS is the process high-water mark, so run this tier with --jobs 1
// for meaningful memory numbers (parallel units share one address space).
//
// Tags: "perf" (wall-clock metric values vary run to run — keep out of
// determinism diffs) and "slow" (excluded from quick batches via the
// "-slow" filter token; CI's perf-smoke job runs it at --scale 0.05).
#include "core/flow/rejection_flow.hpp"
#include "harness/registry.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

#include "peak_rss.hpp"

namespace {

using namespace osched;
using harness::CaseSpec;
using harness::MetricRow;
using harness::Scenario;
using harness::ScenarioReport;
using harness::UnitContext;
using harness::Verdict;
using bench::peak_rss_mib;

enum class Family {
  kDense = 0,    ///< fully unrelated: every machine eligible
  kSparse,       ///< restricted assignment: few eligible machines per job
  kAdversarial,  ///< bursty bimodal overload: heavy Rule 1/2 churn
};

Instance hotpath_workload(Family family, std::size_t n, std::size_t m,
                          double eligibility, std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  switch (family) {
    case Family::kDense:
      config.load = 1.1;
      config.sizes.dist = workload::SizeDistribution::kPareto;
      config.machines.model = workload::MachineModel::kUnrelated;
      break;
    case Family::kSparse:
      config.load = 1.1;
      config.sizes.dist = workload::SizeDistribution::kPareto;
      config.machines.model = workload::MachineModel::kRestricted;
      config.machines.eligibility = eligibility;
      break;
    case Family::kAdversarial:
      // Overloaded bursts of mostly-tiny jobs with a heavy elephant tail:
      // the arrival pattern the rejection rules exist to survive, and the
      // worst case for pending-queue churn.
      config.load = 1.4;
      config.arrivals.kind = workload::ArrivalKind::kBursty;
      config.arrivals.burst_factor = 16.0;
      config.sizes.dist = workload::SizeDistribution::kBimodal;
      config.sizes.bimodal_fraction = 0.08;
      config.sizes.max_size = 50.0;
      config.machines.model = workload::MachineModel::kUnrelated;
      break;
  }
  return workload::generate_workload(config);
}

MetricRow run_hotpath_unit(const UnitContext& ctx) {
  const auto family = static_cast<Family>(static_cast<int>(ctx.param("family")));
  const std::size_t n = ctx.scaled(static_cast<std::size_t>(ctx.param("n")));
  const auto m = static_cast<std::size_t>(ctx.param("m"));
  const double eligibility = ctx.param_or("eligibility", 1.0);

  const Instance instance =
      hotpath_workload(family, n, m, eligibility, ctx.seed);

  util::Timer timer;
  const RejectionFlowResult result =
      run_rejection_flow(instance, {.epsilon = 0.25});
  const double seconds = timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  // Deterministic outputs: identical across runs, binaries and --jobs
  // values for one (seed, scale) — compare_bench.py diffs them exactly.
  row.set("rejected", static_cast<double>(result.schedule.num_rejected()));
  row.set("completed", static_cast<double>(result.schedule.num_completed()));
  row.set("total_flow", result.schedule.total_flow(instance));
  return row;
}

Scenario make_e16() {
  Scenario scenario;
  scenario.name = "e16_hotpath";
  scenario.description =
      "hot-path throughput at scale: jobs/s + peak RSS, dense/sparse/"
      "adversarial";
  scenario.tags = {"perf", "hotpath", "slow"};
  scenario.repetitions = 1;
  const struct {
    const char* label;
    Family family;
    double n;
    double m;
    double eligibility;
  } cells[] = {
      {"dense n=100000 m=8", Family::kDense, 100000, 8, 1.0},
      {"dense n=100000 m=64", Family::kDense, 100000, 64, 1.0},
      {"dense n=1000000 m=16", Family::kDense, 1000000, 16, 1.0},
      {"dense n=200000 m=256", Family::kDense, 200000, 256, 1.0},
      {"sparse n=1000000 m=64", Family::kSparse, 1000000, 64, 0.1},
      {"sparse n=200000 m=256", Family::kSparse, 200000, 256, 0.05},
      {"adversarial n=1000000 m=8", Family::kAdversarial, 1000000, 8, 1.0},
      {"adversarial n=200000 m=64", Family::kAdversarial, 200000, 64, 1.0},
      // m-sweep at fixed n: the machine-selection index's scaling story —
      // pre-index, jobs/s fell superlinearly with m on exactly this curve.
      // Appended AFTER the original grid: unit seeds derive from the case
      // index, so earlier cases keep their committed deterministic metrics.
      {"msweep dense n=100000 m=64", Family::kDense, 100000, 64, 1.0},
      {"msweep dense n=100000 m=256", Family::kDense, 100000, 256, 1.0},
      {"msweep dense n=100000 m=512", Family::kDense, 100000, 512, 1.0},
  };
  for (const auto& cell : cells) {
    scenario.grid.push_back(CaseSpec(cell.label)
                                .with("family", static_cast<double>(cell.family))
                                .with("n", cell.n)
                                .with("m", cell.m)
                                .with("eligibility", cell.eligibility));
  }
  scenario.run_unit = run_hotpath_unit;
  scenario.evaluate = [](const ScenarioReport&) {
    return Verdict{true, "informational: throughput tracked, not asserted"};
  };
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e16);

}  // namespace

// Differential wall for the machine-selection dispatch index.
//
// Every policy with an argmin-lambda dispatch (Theorem 1, Theorem 2, the
// weighted extension) carries two dispatch modes: kIndexed — cached
// per-machine lower bounds, best-first heap, idle-machine order walk — and
// kLinearScan — the reference exhaustive scan, no pruning. The contract
// under test: both modes make BIT-IDENTICAL decisions (same schedule under
// a zero-tolerance diff, same counters, same certificates, double for
// double) for every workload family, eligibility density, machine count
// and seed, including the Rule-2 victim ablations whose random draws would
// amplify any divergence. The rotating OSCHED_FUZZ_SEED hook lets CI
// explore fresh instances every run, reproducibly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "core/energy_flow/energy_flow.hpp"
#include "core/flow/rejection_flow.hpp"
#include "extensions/weighted_flow.hpp"
#include "fuzz_seed.hpp"
#include "service/scheduler_session.hpp"
#include "sim/schedule_io.hpp"
#include "workload/generators.hpp"

namespace osched {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("dispatch_index_test", 77);
}

Instance make_workload(double eligibility, std::uint64_t seed, std::size_t n,
                       std::size_t m, bool weighted) {
  workload::WorkloadConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.2;
  config.sizes.dist = workload::SizeDistribution::kPareto;
  if (weighted) config.weights = workload::WeightDistribution::kUniform;
  if (eligibility < 1.0) {
    config.machines.model = workload::MachineModel::kRestricted;
    config.machines.eligibility = eligibility;
  }
  return workload::generate_workload(config);
}

void expect_same_schedule(const Schedule& a, const Schedule& b,
                          const std::string& context) {
  ScheduleDiffOptions strict;
  strict.time_tolerance = 0.0;  // byte-identical, not tolerance-equal
  const auto diffs = diff_schedules(a, b, strict);
  ASSERT_TRUE(diffs.empty()) << context << ": " << diffs.size()
                             << " schedule diffs; first: " << diffs.front();
}

// The grid every policy is exercised over: eligibility densities from
// fully dense to very sparse, machine counts around the dispatch's
// block/cutover boundaries (including non-multiples of 8).
const double kDensities[] = {1.0, 0.5, 0.1};
const std::size_t kMachineCounts[] = {3, 8, 33, 64};
constexpr std::size_t kJobs = 600;
constexpr std::uint64_t kSeeds = 3;

TEST(DispatchIndex, Theorem1IndexedEqualsLinearScan) {
  for (const double density : kDensities) {
    for (const std::size_t m : kMachineCounts) {
      for (std::uint64_t s = 0; s < kSeeds; ++s) {
        const Instance instance =
            make_workload(density, base_seed() + 13 * s, kJobs, m, false);
        RejectionFlowOptions indexed;
        indexed.epsilon = 0.25;
        indexed.dispatch = DispatchMode::kIndexed;
        RejectionFlowOptions linear = indexed;
        linear.dispatch = DispatchMode::kLinearScan;

        const RejectionFlowResult a = run_rejection_flow(instance, indexed);
        const RejectionFlowResult b = run_rejection_flow(instance, linear);
        const std::string context = "t1 density=" + std::to_string(density) +
                                    " m=" + std::to_string(m) + " seed+" +
                                    std::to_string(13 * s);
        expect_same_schedule(a.schedule, b.schedule, context);
        EXPECT_EQ(a.rule1_rejections, b.rule1_rejections) << context;
        EXPECT_EQ(a.rule2_rejections, b.rule2_rejections) << context;
        EXPECT_EQ(a.sum_lambda, b.sum_lambda) << context;
        EXPECT_EQ(a.beta_integral, b.beta_integral) << context;
        EXPECT_EQ(a.dual_objective, b.dual_objective) << context;
        EXPECT_EQ(a.opt_lower_bound, b.opt_lower_bound) << context;
        ASSERT_EQ(a.lambda.size(), b.lambda.size()) << context;
        for (std::size_t j = 0; j < a.lambda.size(); ++j) {
          ASSERT_EQ(a.lambda[j], b.lambda[j]) << context << " job " << j;
          ASSERT_EQ(a.definitive_finish[j], b.definitive_finish[j])
              << context << " job " << j;
        }
      }
    }
  }
}

TEST(DispatchIndex, Theorem1VictimAblationsStayIdentical) {
  // kRandom draws from the victim RNG in dispatch order; kSmallest/kNewest
  // change which erase paths run. All of them must be mode-invariant.
  const Rule2Victim victims[] = {Rule2Victim::kLargest, Rule2Victim::kSmallest,
                                 Rule2Victim::kNewest, Rule2Victim::kRandom};
  const Instance instance = make_workload(1.0, base_seed() + 99, kJobs, 16, false);
  for (const Rule2Victim victim : victims) {
    RejectionFlowOptions indexed;
    indexed.epsilon = 0.2;
    indexed.rule2_victim = victim;
    indexed.dispatch = DispatchMode::kIndexed;
    RejectionFlowOptions linear = indexed;
    linear.dispatch = DispatchMode::kLinearScan;
    const RejectionFlowResult a = run_rejection_flow(instance, indexed);
    const RejectionFlowResult b = run_rejection_flow(instance, linear);
    const std::string context = std::string("victim=") + to_string(victim);
    expect_same_schedule(a.schedule, b.schedule, context);
    EXPECT_EQ(a.rule2_rejections, b.rule2_rejections) << context;
    EXPECT_EQ(a.sum_lambda, b.sum_lambda) << context;
  }
}

TEST(DispatchIndex, Theorem1SpeedAugmentedStaysIdentical) {
  // speed != 1 exercises the effective-processing division and the
  // rounded-up float speed in the bound path.
  const Instance instance = make_workload(0.5, base_seed() + 7, kJobs, 9, false);
  for (const double speed : {1.0, 1.5, 2.0}) {
    RejectionFlowOptions indexed;
    indexed.epsilon = 0.25;
    indexed.speed = speed;
    indexed.dispatch = DispatchMode::kIndexed;
    RejectionFlowOptions linear = indexed;
    linear.dispatch = DispatchMode::kLinearScan;
    const RejectionFlowResult a = run_rejection_flow(instance, indexed);
    const RejectionFlowResult b = run_rejection_flow(instance, linear);
    const std::string context = "speed=" + std::to_string(speed);
    expect_same_schedule(a.schedule, b.schedule, context);
    EXPECT_EQ(a.sum_lambda, b.sum_lambda) << context;
  }
}

TEST(DispatchIndex, WeightedExtIndexedEqualsLinearScan) {
  for (const double density : kDensities) {
    for (const std::size_t m : kMachineCounts) {
      for (std::uint64_t s = 0; s < kSeeds; ++s) {
        const Instance instance =
            make_workload(density, base_seed() + 31 * s, kJobs, m, true);
        WeightedFlowOptions indexed;
        indexed.epsilon = 0.25;
        indexed.dispatch = DispatchMode::kIndexed;
        WeightedFlowOptions linear = indexed;
        linear.dispatch = DispatchMode::kLinearScan;

        const WeightedFlowResult a = run_weighted_rejection_flow(instance, indexed);
        const WeightedFlowResult b = run_weighted_rejection_flow(instance, linear);
        const std::string context = "wext density=" + std::to_string(density) +
                                    " m=" + std::to_string(m) + " seed+" +
                                    std::to_string(31 * s);
        expect_same_schedule(a.schedule, b.schedule, context);
        EXPECT_EQ(a.rule1_rejections, b.rule1_rejections) << context;
        EXPECT_EQ(a.rule2_rejections, b.rule2_rejections) << context;
        EXPECT_EQ(a.rejected_weight, b.rejected_weight) << context;
      }
    }
  }
}

TEST(DispatchIndex, Theorem2IndexedEqualsLinearScan) {
  for (const double density : {1.0, 0.5}) {
    for (const std::size_t m : {3, 8, 17}) {
      for (std::uint64_t s = 0; s < kSeeds; ++s) {
        const Instance instance = make_workload(
            density, base_seed() + 41 * s, 300, static_cast<std::size_t>(m), true);
        EnergyFlowOptions indexed;
        indexed.epsilon = 0.5;
        indexed.alpha = 2.0;
        indexed.dispatch = DispatchMode::kIndexed;
        EnergyFlowOptions linear = indexed;
        linear.dispatch = DispatchMode::kLinearScan;

        const EnergyFlowResult a = run_energy_flow(instance, indexed);
        const EnergyFlowResult b = run_energy_flow(instance, linear);
        const std::string context = "t2 density=" + std::to_string(density) +
                                    " m=" + std::to_string(m) + " seed+" +
                                    std::to_string(41 * s);
        expect_same_schedule(a.schedule, b.schedule, context);
        EXPECT_EQ(a.rejections, b.rejections) << context;
        EXPECT_EQ(a.sum_lambda, b.sum_lambda) << context;
        EXPECT_EQ(a.v_integral, b.v_integral) << context;
        EXPECT_EQ(a.dual_objective, b.dual_objective) << context;
        ASSERT_EQ(a.lambda.size(), b.lambda.size()) << context;
        for (std::size_t j = 0; j < a.lambda.size(); ++j) {
          ASSERT_EQ(a.lambda[j], b.lambda[j]) << context << " job " << j;
        }
      }
    }
  }
}

// The order table stores machine ids as uint16, so it exists only below
// m = 65536. This pins the exact cutover (65535 → width 16, 65536/65537 →
// no table, width 0), proves dispatch with and without the table makes
// bit-identical decisions against the exhaustive scan, and checks the
// facade surfaces the width. Sparse rows keep the 65537-machine instances
// tiny (memory is O(eligible entries), not n×m).
TEST(DispatchIndex, OrderTableEndsAtTheUint16IdCeiling) {
  for (const std::size_t m :
       {std::size_t{65535}, std::size_t{65536}, std::size_t{65537}}) {
    std::vector<Job> jobs;
    std::vector<std::vector<SparseEntry>> rows;
    for (std::size_t k = 0; k < 12; ++k) {
      Job job;
      job.id = static_cast<JobId>(k);
      job.release = static_cast<Time>(k) * 0.25;
      jobs.push_back(job);
      // Eligible on a handful of machines spread across the full id range —
      // including m-1, the id that overflows uint16 once m > 65536.
      rows.push_back({{static_cast<MachineId>(k % 7), 2.0 + 0.125 * k},
                      {static_cast<MachineId>(m / 2 + k), 1.0 + 0.25 * k},
                      {static_cast<MachineId>(m - 1 - k), 3.0 + 0.5 * k}});
      std::sort(rows.back().begin(), rows.back().end(),
                [](const SparseEntry& a, const SparseEntry& b) {
                  return a.machine < b.machine;
                });
    }
    const Instance instance =
        Instance::from_sparse_rows(std::move(jobs), m, std::move(rows));
    const int expect_width = m < 65536 ? 16 : 0;
    EXPECT_EQ(instance.dispatch_order_width(), expect_width) << "m=" << m;
    EXPECT_EQ(instance.p_order_row(0) != nullptr, expect_width == 16)
        << "m=" << m;

    // Either side of the boundary, indexed dispatch (with or without the
    // table) stays bit-identical to the exhaustive scan.
    RejectionFlowOptions indexed;
    indexed.epsilon = 0.5;
    RejectionFlowOptions linear = indexed;
    linear.dispatch = DispatchMode::kLinearScan;
    const RejectionFlowResult a = run_rejection_flow(instance, indexed);
    const RejectionFlowResult b = run_rejection_flow(instance, linear);
    expect_same_schedule(a.schedule, b.schedule, "m=" + std::to_string(m));

    // And the facade surfaces the width; the dispatch loops are scalar, so
    // the tier reads 0 from a batch run and from a streamed session alike.
    const api::RunSummary summary =
        api::run(api::Algorithm::kTheorem1, instance);
    EXPECT_EQ(summary.dispatch_order_width, expect_width) << "m=" << m;
    EXPECT_EQ(summary.dispatch_simd_tier, 0) << "m=" << m;

    service::SessionOptions options;
    options.storage = StorageBackend::kSparseCsr;
    service::SchedulerSession session(api::Algorithm::kTheorem1, m, options);
    for (std::size_t k = 0; k < instance.num_jobs(); ++k) {
      session.submit(make_stream_job(instance, static_cast<JobId>(k)));
    }
    const api::RunSummary streamed = session.drain();
    EXPECT_EQ(streamed.dispatch_order_width, 0) << "m=" << m;
    EXPECT_EQ(streamed.dispatch_simd_tier, 0) << "m=" << m;
  }
}

// The same three boundary cells through the WEIGHTED policy (a second,
// independent instantiation over InstanceView), dense rows this time so
// the order table, where it exists, covers every id from 0 to m-1
// contiguously. Dense at m = 65537 would be 65537 doubles per job, so n is
// kept tiny.
TEST(DispatchIndex, WeightedExtCrossesTheWidthBoundaryIdentically) {
  for (const std::size_t m :
       {std::size_t{65535}, std::size_t{65536}, std::size_t{65537}}) {
    std::vector<Job> jobs;
    for (std::size_t k = 0; k < 4; ++k) {
      Job job;
      job.id = static_cast<JobId>(k);
      job.release = static_cast<Time>(k) * 0.5;
      job.weight = 1.0 + 0.5 * k;
      jobs.push_back(job);
    }
    // Machine-major matrix; deterministic, collision-rich sizes: many exact
    // ties so the (p, id) tie-break is exercised with and without a table.
    std::vector<std::vector<Work>> processing(m, std::vector<Work>(4));
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < 4; ++k) {
        processing[i][k] = 1.0 + static_cast<double>((i * 7 + k) % 13);
      }
    }
    const Instance instance(std::move(jobs), std::move(processing));
    EXPECT_EQ(instance.dispatch_order_width(), m < 65536 ? 16 : 0)
        << "m=" << m;

    WeightedFlowOptions indexed;
    indexed.epsilon = 0.4;
    indexed.dispatch = DispatchMode::kIndexed;
    WeightedFlowOptions linear = indexed;
    linear.dispatch = DispatchMode::kLinearScan;
    const WeightedFlowResult a = run_weighted_rejection_flow(instance, indexed);
    const WeightedFlowResult b = run_weighted_rejection_flow(instance, linear);
    const std::string context = "wext m=" + std::to_string(m);
    expect_same_schedule(a.schedule, b.schedule, context);
    EXPECT_EQ(a.rejected_weight, b.rejected_weight) << context;
  }
}

}  // namespace
}  // namespace osched

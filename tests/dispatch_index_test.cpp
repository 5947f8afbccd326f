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
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/scheduler_api.hpp"
#include "core/energy_flow/energy_flow.hpp"
#include "core/flow/rejection_flow.hpp"
#include "extensions/weighted_flow.hpp"
#include "fuzz_seed.hpp"
#include "service/job_store.hpp"
#include "service/scheduler_session.hpp"
#include "sim/schedule_io.hpp"
#include "util/rng.hpp"
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

// Dense rows whose candidates tie under the float bounds. Each job draws a
// base p (an exact float for half the jobs, an off-grid double for the
// rest) and places p, nextafter(p, +inf), p * (1 + 2^-30) and exact
// duplicates of p on several machines; the other machines get clearly
// larger sizes. All four values round down to the same float, so
// the sweep and the live-list bound cannot tell those machines apart and
// the exact lambda re-check, with its id tie-break, decides every such
// dispatch. Arrivals come in waves of 2m jobs at `load` times the fleet's
// capacity, so most machines back up (the sweep); a trickle of m/8 jobs
// at a tenth of that load follows each wave while the queues drain, so
// the ordered path weighs busy hot machines against idle cold ones.
Instance make_near_tie_workload(std::size_t m, std::uint64_t seed,
                                std::size_t n, double load) {
  util::Rng rng(seed);
  std::vector<Job> jobs(n);
  std::vector<std::vector<Work>> processing(m, std::vector<Work>(n));
  Time release = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const Work p = j % 2 == 0
                       ? 0.125 * static_cast<double>(rng.uniform_int(4, 24))
                       : 1.0 / 3.0 + 0.1 * static_cast<double>(j % 17);
    const Work near[] = {p, std::nextafter(p, kTimeInfinity),
                         p * (1.0 + 0x1p-30), p};
    for (std::size_t i = 0; i < m; ++i) {
      processing[i][j] = p * (2.0 + 0.25 * static_cast<double>(rng.index(9)));
    }
    for (std::size_t k = 0; k < 12; ++k) {
      // Every third job spreads its near-ties over the whole fleet; the
      // rest use the hot set: eight machines m/8 apart, each at a
      // different lane of its 8-wide argmin block.
      const std::size_t hot = rng.index(8);
      const std::size_t i = j % 3 == 0 ? rng.index(m) : (m / 8) * hot + hot;
      processing[i][j] = near[k % 4];
    }
    jobs[j].id = static_cast<JobId>(j);
    jobs[j].release = release;
    // Mean size about 2 with most work on the tied machines: `load` full
    // fleets' worth of arrivals per unit of time inside a wave.
    const bool trickle = j % (2 * m + m / 8) >= 2 * m;
    release += rng.exponential((trickle ? 0.1 : 1.0) * load *
                               static_cast<double>(m) / 2.0);
  }
  return Instance(std::move(jobs), std::move(processing));
}

void expect_same_t1(const RejectionFlowResult& a, const RejectionFlowResult& b,
                    const std::string& context) {
  expect_same_schedule(a.schedule, b.schedule, context);
  EXPECT_EQ(a.rule1_rejections, b.rule1_rejections) << context;
  EXPECT_EQ(a.rule2_rejections, b.rule2_rejections) << context;
  EXPECT_EQ(a.sum_lambda, b.sum_lambda) << context;
  EXPECT_EQ(a.dual_objective, b.dual_objective) << context;
  ASSERT_EQ(a.lambda.size(), b.lambda.size()) << context;
  for (std::size_t j = 0; j < a.lambda.size(); ++j) {
    ASSERT_EQ(a.lambda[j], b.lambda[j]) << context << " job " << j;
  }
}

TEST(DispatchIndex, Theorem1NearTiesMatchLinearScanOnEveryStore) {
  for (const std::size_t m : {std::size_t{64}, std::size_t{256}}) {
    const Instance dense =
        make_near_tie_workload(m, base_seed() + m, 6 * m, 1.6);
    ASSERT_NE(dense.p_order_row(0).data(), nullptr);
    const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
    for (const double speed : {1.0, 1.5}) {
      RejectionFlowOptions linear;
      linear.epsilon = 0.25;
      linear.speed = speed;
      linear.dispatch = DispatchMode::kLinearScan;
      RejectionFlowOptions indexed = linear;
      indexed.dispatch = DispatchMode::kIndexed;
      const std::string context =
          "near-tie m=" + std::to_string(m) + " speed=" + std::to_string(speed);
      const RejectionFlowResult reference = run_rejection_flow(dense, linear);
      ASSERT_GT(reference.rule2_rejections, 0u) << context;
      expect_same_t1(run_rejection_flow(dense, indexed), reference,
                     context + " batch");
      expect_same_t1(run_rejection_flow(sparse, indexed),
                     run_rejection_flow(sparse, linear), context + " sparse");
    }

    // Streamed sessions have no order table. They run at speed 1; a
    // speed change on every machine at t = 0 takes them, and the batch
    // references, to 1.5 through the fleet's per-machine divisors.
    FleetPlan all_fast;
    for (std::size_t i = 0; i < m; ++i) {
      all_fast.events.push_back({0.0, static_cast<MachineId>(i),
                                 FleetEventKind::kSpeedChange, 1.5});
    }
    for (const FleetPlan& plan : {FleetPlan{}, all_fast}) {
      RejectionFlowOptions linear;
      linear.epsilon = 0.25;
      linear.dispatch = DispatchMode::kLinearScan;
      linear.fleet = plan;
      RejectionFlowOptions indexed = linear;
      indexed.dispatch = DispatchMode::kIndexed;
      const std::string context = "near-tie m=" + std::to_string(m) +
                                  (plan.empty() ? " no plan" : " fleet x1.5");
      const RejectionFlowResult reference = run_rejection_flow(dense, linear);
      expect_same_t1(run_rejection_flow(dense, indexed), reference,
                     context + " batch");
      for (const StorageBackend storage :
           {StorageBackend::kDense, StorageBackend::kSparseCsr}) {
        service::SessionOptions options;
        options.storage = storage;
        options.run.epsilon = 0.25;
        options.run.fleet = plan;
        const api::RunSummary streamed = service::streamed_session_run(
            api::Algorithm::kTheorem1, dense, options, 256);
        const std::string where =
            context + " streamed " + to_string(storage);
        expect_same_schedule(streamed.schedule, reference.schedule, where);
        EXPECT_EQ(streamed.rule1_rejections, reference.rule1_rejections)
            << where;
        EXPECT_EQ(streamed.rule2_rejections, reference.rule2_rejections)
            << where;
        EXPECT_EQ(streamed.dispatch_order_width, 0) << where;
      }
    }
  }
}

TEST(DispatchIndex, Theorem1HeapTieGoesToTheLowerMachineId) {
  // Two machines tie in exact lambda but not in bound, so the tie is
  // settled inside the heap loop of the indexed sweep: with eps = 0.25 and
  // the last job's p = 1 on both machines,
  //   machine 0 queues p = 2:           bound 6 * margin, lambda 4 + 1 + 1
  //   machine 1 queues p = 0.25, 0.75:  bound 5.5 * margin, lambda 4 + 2 + 0
  // Machine 1 seeds the search and machine 0 ties it from the heap; the
  // lexicographic (lambda, id) rule must pick machine 0, as the linear scan
  // does. Both machines run a long job, so the sweep (not the ordered path)
  // decides, and p = 100 on the other machine pins every earlier job.
  std::vector<Job> jobs(6);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].id = static_cast<JobId>(j);
  }
  // processing[i][j]: columns are jobs L0, L1, q2, q0.25, q0.75, arrival.
  const std::vector<std::vector<Work>> processing = {
      {10.0, 100.0, 2.0, 100.0, 100.0, 1.0},
      {100.0, 10.0, 100.0, 0.25, 0.75, 1.0},
  };
  const Instance dense(jobs, processing);
  ASSERT_EQ(dense.validate(), "");
  for (const Instance& instance :
       {dense, dense.with_backend(StorageBackend::kSparseCsr)}) {
    RejectionFlowOptions linear;
    linear.epsilon = 0.25;
    linear.dispatch = DispatchMode::kLinearScan;
    RejectionFlowOptions indexed = linear;
    indexed.dispatch = DispatchMode::kIndexed;
    const std::string context =
        std::string("heap tie ") + to_string(instance.backend());
    const RejectionFlowResult reference = run_rejection_flow(instance, linear);
    const RejectionFlowResult result = run_rejection_flow(instance, indexed);
    expect_same_t1(result, reference, context);
    EXPECT_EQ(reference.rule1_rejections + reference.rule2_rejections, 0u)
        << context;
    EXPECT_EQ(result.schedule.record(5).machine, 0) << context;
    EXPECT_EQ(result.lambda[5], 0.25 / 1.25 * 6.0) << context;
  }
}

// Runs `instance` through every Theorem 1 path that must agree with the
// batch linear scan: batch indexed (dense and sparse stores) and streamed
// dense and sparse sessions, which have no order table and so take the
// idle scan. Returns the reference.
RejectionFlowResult expect_every_path_matches_linear(
    const Instance& instance, const RejectionFlowOptions& options,
    const std::string& context) {
  RejectionFlowOptions linear = options;
  linear.dispatch = DispatchMode::kLinearScan;
  RejectionFlowOptions indexed = options;
  indexed.dispatch = DispatchMode::kIndexed;
  const RejectionFlowResult reference = run_rejection_flow(instance, linear);
  expect_same_t1(run_rejection_flow(instance, indexed), reference,
                 context + " batch");
  const Instance sparse = instance.with_backend(StorageBackend::kSparseCsr);
  expect_same_t1(run_rejection_flow(sparse, indexed),
                 run_rejection_flow(sparse, linear), context + " batch sparse");
  if (options.speed != 1.0) return reference;  // sessions run at base speed 1
  for (const StorageBackend storage :
       {StorageBackend::kDense, StorageBackend::kSparseCsr}) {
    service::SessionOptions session;
    session.storage = storage;
    session.run.epsilon = options.epsilon;
    session.run.fleet = options.fleet;
    const api::RunSummary streamed = service::streamed_session_run(
        api::Algorithm::kTheorem1, instance, session, 64);
    const std::string where = context + " streamed " + to_string(storage);
    expect_same_schedule(streamed.schedule, reference.schedule, where);
    EXPECT_EQ(streamed.rule1_rejections, reference.rule1_rejections) << where;
    EXPECT_EQ(streamed.rule2_rejections, reference.rule2_rejections) << where;
    EXPECT_EQ(streamed.fleet.forced_rejections,
              reference.fleet.forced_rejections)
        << where;
    EXPECT_EQ(streamed.dispatch_order_width, 0) << where;
  }
  return reference;
}

// A job may carry p up to DBL_MAX, where lambda = p/eps + p overflows to
// +inf on every machine. Every path then follows the linear scan: no
// finite lambda means no machine, a forced rejection with a zero dual
// contribution — never an abort, never a dispatch at lambda = +inf.
TEST(DispatchIndex, Theorem1NoFiniteLambdaIsAForcedRejection) {
  std::vector<Job> one(1);
  one[0].id = 0;
  const Instance single(one, {{1e308}, {1e308}});
  ASSERT_EQ(single.validate(), "");
  RejectionFlowOptions options;
  options.epsilon = 0.1;
  const RejectionFlowResult lone =
      expect_every_path_matches_linear(single, options, "single job");
  EXPECT_EQ(lone.schedule.record(0).fate, JobFate::kRejectedPending);
  EXPECT_EQ(lone.schedule.record(0).machine, kInvalidMachine);
  EXPECT_EQ(lone.fleet.forced_rejections, 1u);
  EXPECT_EQ(lone.lambda[0], 0.0);

  // A mix: jobs that overflow everywhere, jobs that overflow on some
  // machines only, some ineligible entries, and bursts of normal jobs that
  // back every machine up so the bound sweep (dense and sparse) decides
  // too. The last third holds jobs near 1e38, whose lambda is finite but
  // whose float bounds leave the float range; they come last because a
  // normal job queued behind one would start at about 1e38, where its
  // duration is lost to rounding.
  for (const std::size_t m : {std::size_t{4}, std::size_t{16}}) {
    util::Rng rng(base_seed() + 5 * m);
    const std::size_t n = 40 * m;
    std::vector<Job> jobs(n);
    std::vector<std::vector<Work>> processing(m, std::vector<Work>(n));
    Time release = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        const double jitter = 1.0 + 0.125 * static_cast<double>(rng.index(8));
        Work p = 0.5 * jitter;
        const bool last_third = 3 * j >= 2 * n;
        if (j % 6 == 0) p = std::numeric_limits<double>::max() / jitter;
        if (last_third && j % 6 != 0) p = 1e38 * jitter;
        if (!last_third && j % 6 == 2 && i % 2 == 0) p = 1e308 / jitter;
        if (j % 6 == 3 && i == j % m) p = kTimeInfinity;
        processing[i][j] = p;
      }
      jobs[j].id = static_cast<JobId>(j);
      jobs[j].release = release;
      release += j % (3 * m) < 2 * m ? 0.01 : 0.5;
    }
    const Instance mixed(std::move(jobs), std::move(processing));
    ASSERT_EQ(mixed.validate(), "");
    for (const double eps : {0.1, 0.99}) {
      options.epsilon = eps;
      const RejectionFlowResult reference = expect_every_path_matches_linear(
          mixed, options,
          "overflow m=" + std::to_string(m) + " eps=" + std::to_string(eps));
      EXPECT_GT(reference.fleet.forced_rejections, 0u);
      for (std::size_t j = 0; j < n; ++j) {
        if (reference.schedule.record(static_cast<JobId>(j)).machine ==
            kInvalidMachine) {
          EXPECT_EQ(reference.lambda[j], 0.0) << "job " << j;
        }
      }
    }
  }
}

// Float bounds past the float range, in the dense sweep. At eps = 0.01,
// machine 0 queues one p = 1 job and twenty p = 1e38 jobs, so the last
// job's p = 3e36 there has a finite float bound (its queue minimum is 1)
// but an exact lambda above FLT_MAX. Machine 1 is idle with p = 3.4e36:
// its bound overflows the float range, yet its lambda (3.434e38) is the
// smallest. Machines 2 and 3 are busy (so the sweep decides, not the
// ordered path), and machine 4, drained before the last two arrivals,
// would have the smallest lambda of all but must stay masked. The very
// last job is sparse: p = 1e308 wherever it is eligible and active, so no
// lambda is finite, and the sparse sweep's rival screen must still keep
// the drained machine out.
TEST(DispatchIndex, Theorem1BoundsPastTheFloatRangeStaySound) {
  constexpr Work kInf = kTimeInfinity;
  std::vector<Job> jobs;
  std::vector<std::vector<Work>> rows;  // job-major here, transposed below
  const auto add = [&](Time release, std::vector<Work> row) {
    Job job;
    job.id = static_cast<JobId>(jobs.size());
    job.release = release;
    jobs.push_back(job);
    rows.push_back(std::move(row));
  };
  add(0.0, {1e300, kInf, kInf, kInf, kInf});  // runs on 0
  add(0.0, {kInf, kInf, 1e300, kInf, kInf});  // runs on 2
  add(0.0, {kInf, kInf, kInf, 1e300, kInf});  // runs on 3
  add(0.0, {kInf, kInf, 1.0, kInf, kInf});    // queued on 2
  add(0.0, {kInf, kInf, kInf, 1.0, kInf});    // queued on 3
  add(0.0, {1.0, kInf, kInf, kInf, kInf});    // 0's queue minimum
  for (int k = 0; k < 20; ++k) add(0.0, {1e38, kInf, kInf, kInf, kInf});
  add(1.0, {3e36, 3.4e36, 1e300, 1e300, 1.0});
  add(1.0, {1e308, kInf, 1e308, 1e308, 1.0});
  std::vector<std::vector<Work>> processing(5, std::vector<Work>(jobs.size()));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t i = 0; i < 5; ++i) processing[i][j] = rows[j][i];
  }
  const Instance dense(std::move(jobs), std::move(processing));
  ASSERT_EQ(dense.validate(), "");
  const auto no_finite = static_cast<JobId>(dense.num_jobs() - 1);
  const JobId past_float = no_finite - 1;
  for (const Instance& instance :
       {dense, dense.with_backend(StorageBackend::kSparseCsr)}) {
    RejectionFlowOptions linear;
    linear.epsilon = 0.01;
    linear.dispatch = DispatchMode::kLinearScan;
    linear.fleet.events = {{0.5, 4, FleetEventKind::kDrain}};
    RejectionFlowOptions indexed = linear;
    indexed.dispatch = DispatchMode::kIndexed;
    const std::string context =
        std::string("float range ") + to_string(instance.backend());
    const RejectionFlowResult reference = run_rejection_flow(instance, linear);
    expect_same_t1(run_rejection_flow(instance, indexed), reference, context);
    EXPECT_EQ(reference.schedule.record(past_float).machine, 1) << context;
    EXPECT_EQ(reference.schedule.record(no_finite).machine, kInvalidMachine)
        << context;
  }
}

// Edges of the idle scan (the dispatch's idle argmin wherever no sound
// order table exists). Rows mix p values whose minimum is shared by
// several machines or lies one ulp below them, values just inside and
// outside the 2^-40 near-tie band, subnormal p (where the band's relative
// slack vanishes and distinct p can share a rounded lambda), and p near
// DBL_MAX on some machines. Arrivals alternate between bursts and lulls so
// the live list both stays short (the idle scan decides) and overflows
// the cutover (the sweep decides).
Instance make_idle_edge_workload(std::size_t m, std::uint64_t seed,
                                 std::size_t n) {
  util::Rng rng(seed);
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<Job> jobs(n);
  std::vector<std::vector<Work>> processing(m, std::vector<Work>(n));
  Time release = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const Work p = j % 4 == 3 ? tiny * static_cast<double>(1 + rng.index(4))
                              : 0.25 + 0.125 * static_cast<double>(rng.index(12));
    const Work near[] = {p,
                         p > tiny ? std::nextafter(p, 0.0) : p,
                         std::nextafter(p, kTimeInfinity),
                         p * (1.0 + 0x1p-41),
                         p * (1.0 + 0x1p-39),
                         tiny * static_cast<double>(1 + rng.index(3)),
                         std::numeric_limits<double>::max() /
                             static_cast<double>(1 + rng.index(3))};
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t pick = rng.index(10);
      processing[i][j] =
          pick < 7 ? near[pick] : p * (2.0 + static_cast<double>(pick));
    }
    if (j % 5 == 4) processing[rng.index(m)][j] = kTimeInfinity;
    jobs[j].id = static_cast<JobId>(j);
    jobs[j].release = release;
    release += j % (4 * m) < m ? 0.002 : rng.exponential(2.0 * m);
  }
  return Instance(std::move(jobs), std::move(processing));
}

// A fleet plan whose membership and speed changes land on machines that go
// idle: machine 0 runs at half speed for the whole run (so a batch run
// never walks its order table), the last machine starts down and joins
// mid-run, and others drain, fail, rejoin and change speed mid-run.
FleetPlan make_idle_edge_plan(std::size_t m, Time horizon) {
  FleetPlan plan;
  const auto at = [&](double f) { return f * horizon; };
  const auto id = [&](std::size_t i) { return static_cast<MachineId>(i % m); };
  plan.events = {
      {0.0, id(0), FleetEventKind::kSpeedChange, 0.5},
      {at(0.1), id(1), FleetEventKind::kDrain},
      {at(0.2), id(2), FleetEventKind::kSpeedChange, 0.5},
      {at(0.3), id(1), FleetEventKind::kJoin},
      {at(0.3), id(m - 1), FleetEventKind::kJoin},
      {at(0.35), id(3), FleetEventKind::kFail},
      {at(0.5), id(2), FleetEventKind::kSpeedChange, 1.0},
      {at(0.55), id(3), FleetEventKind::kJoin},
      {at(0.6), id(4), FleetEventKind::kSpeedChange, 1.5},
      {at(0.7), id(5), FleetEventKind::kDrain},
      {at(0.8), id(4), FleetEventKind::kFail},
      {at(0.85), id(5), FleetEventKind::kJoin},
      {at(0.9), id(4), FleetEventKind::kJoin},
  };
  plan.initially_down = {id(m - 1)};
  plan.rejection_budget = 4;
  return plan;
}

TEST(DispatchIndex, Theorem1IdleScanEdgesMatchLinearScan) {
  for (const std::size_t m : {std::size_t{8}, std::size_t{37}}) {
    const Instance instance =
        make_idle_edge_workload(m, base_seed() + 3 * m, 30 * m);
    ASSERT_EQ(instance.validate(), "");
    const FleetPlan plan =
        make_idle_edge_plan(m, instance.job(instance.num_jobs() - 1).release);
    for (const double eps : {0.01, 0.1, 0.5, 0.99}) {
      for (const bool with_plan : {false, true}) {
        for (const double speed : {1.0, 1.5}) {
          RejectionFlowOptions options;
          options.epsilon = eps;
          options.speed = speed;
          if (with_plan) options.fleet = plan;
          expect_every_path_matches_linear(
              instance, options,
              "idle edges m=" + std::to_string(m) + " eps=" +
                  std::to_string(eps) + " speed=" + std::to_string(speed) +
                  (with_plan ? " plan" : ""));
        }
      }
    }
  }
}

// Subnormal ties the relative band alone would miss: at base speed 1.5,
// p = 2 and p = 1 (in units of the smallest subnormal) both round to
// q = fl(p / 1.5) = 1 unit, so their lambdas are equal and the lower id —
// the LARGER p — must win. A machine-0 multiplier from t = 0 keeps the
// batch run off its order table.
TEST(DispatchIndex, Theorem1SubnormalTieGoesToTheLowerMachineId) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<Job> jobs(1);
  jobs[0].id = 0;
  const Instance instance(jobs, {{1.0}, {2.0 * tiny}, {tiny}});
  RejectionFlowOptions options;
  options.epsilon = 0.5;
  options.speed = 1.5;
  options.fleet.events = {{0.0, 0, FleetEventKind::kSpeedChange, 2.0}};
  ASSERT_EQ((2.0 * tiny) / 1.5, tiny / 1.5);
  const RejectionFlowResult reference =
      expect_every_path_matches_linear(instance, options, "subnormal tie");
  EXPECT_EQ(reference.schedule.record(0).machine, 1);
}

// Inputs that force both of the ordered walk's fallbacks to the exact idle
// scan. A batch store keeps only each job's K = kPOrderPrefix cheapest
// machines in (p, id) order. Here every job's cheapest machines are one
// set of K + 8: its four lowest ids carry q, the rest carry p < q, and at
// eps = 0.3 both have the same idle lambda bit for bit. So the prefix
// holds only p machines, the idle tie walk runs off its end, and the
// argmin is a lower-id q machine that only the scan sees. The plan holds
// the whole set down for the first half of the run, and fails part of it
// later, so the prefix often holds no active idle machine at all. Every
// fifth job also loses one other machine (count < m, a listed adjacency).
// Bursts of m jobs back machines up so that the sweep decides some
// dispatches too.
struct PrefixFallbackCase {
  Instance instance;
  std::vector<MachineId> cheap;  // the K + 8 cheapest machines of every job
  std::vector<MachineId> past_prefix;  // the four q machines among them
};

PrefixFallbackCase make_prefix_fallback_case(std::size_t m, std::uint64_t seed,
                                             double eps) {
  constexpr std::size_t kK = service::StreamingJobStore::kPOrderPrefix;
  const double p = 1.0 + 15.0 / 64.0;
  const double q = std::nextafter(p, kTimeInfinity);
  PrefixFallbackCase out;
  for (std::size_t t = 0; t < kK + 8; ++t) {
    out.cheap.push_back(static_cast<MachineId>((7 * t + 3) % m));
  }
  std::vector<MachineId> sorted = out.cheap;
  std::sort(sorted.begin(), sorted.end());
  out.past_prefix.assign(sorted.begin(), sorted.begin() + 4);
  util::Rng rng(seed);
  const std::size_t n = 8 * m;
  std::vector<Job> jobs(n);
  std::vector<std::vector<Work>> processing(m, std::vector<Work>(n));
  Time release = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    // A power-of-two scale keeps the two idle lambdas bit-equal.
    const double scale = static_cast<double>(1u << rng.index(3));
    for (std::size_t i = 0; i < m; ++i) {
      processing[i][j] =
          scale * p * (2.0 + static_cast<double>(rng.index(6)));
    }
    for (std::size_t t = 0; t < sorted.size(); ++t) {
      processing[static_cast<std::size_t>(sorted[t])][j] =
          scale * (t < 4 ? q : p);
    }
    if (j % 5 == 4) {
      std::size_t i = rng.index(m);
      while (std::count(sorted.begin(), sorted.end(), i) != 0) i = (i + 1) % m;
      processing[i][j] = kTimeInfinity;
    }
    jobs[j].id = static_cast<JobId>(j);
    jobs[j].release = release;
    release += j % (4 * m) < m ? 0.001
                               : rng.exponential(static_cast<double>(m) / 8.0);
  }
  out.instance = Instance(std::move(jobs), std::move(processing));
  // The premise of both fallbacks: bit-equal idle lambdas, and a prefix of
  // p machines only, shorter than the eligible list.
  EXPECT_EQ(q / eps + q, p / eps + p);
  for (std::size_t j = 0; j < 10; ++j) {
    const auto job = static_cast<JobId>(j);
    const auto order = out.instance.p_order_row(job);
    EXPECT_EQ(order.size(), kK);
    EXPECT_LT(order.size(), out.instance.eligible_machines(job).size());
    for (const std::uint16_t i : order) {
      EXPECT_EQ(out.instance.processing(i, job),
                out.instance.processing(sorted.back(), job));
    }
  }
  return out;
}

TEST(DispatchIndex, Theorem1OrderPrefixFallbacksMatchLinearScan) {
  constexpr double kEps = 0.3;
  for (const std::size_t m : {std::size_t{64}, std::size_t{256}}) {
    const PrefixFallbackCase c =
        make_prefix_fallback_case(m, base_seed() + 11 * m, kEps);
    ASSERT_EQ(c.instance.validate(), "");
    const Time horizon = c.instance.job(c.instance.num_jobs() - 1).release;
    FleetPlan plan;
    plan.initially_down = c.cheap;
    for (const MachineId i : c.cheap) {
      plan.events.push_back({0.5 * horizon, i, FleetEventKind::kJoin});
    }
    for (const auto& [at, kind] : {std::pair{0.75, FleetEventKind::kFail},
                                   std::pair{0.85, FleetEventKind::kJoin}}) {
      for (std::size_t t = 0; t < c.cheap.size(); t += 2) {
        plan.events.push_back({at * horizon, c.cheap[t], kind});
      }
    }
    plan.rejection_budget = 4;
    ASSERT_EQ(plan.validate(m), "");
    for (const bool with_plan : {false, true}) {
      RejectionFlowOptions options;
      options.epsilon = kEps;
      if (with_plan) options.fleet = plan;
      const std::string context = "prefix fallback m=" + std::to_string(m) +
                                  (with_plan ? " plan" : "");
      const RejectionFlowResult reference =
          expect_every_path_matches_linear(c.instance, options, context);
      // The q machines lie past every prefix and win tied idle
      // dispatches, so the fallbacks decided some of the run.
      std::size_t on_q = 0;
      for (std::size_t j = 0; j < c.instance.num_jobs(); ++j) {
        const MachineId i =
            reference.schedule.record(static_cast<JobId>(j)).machine;
        on_q += std::count(c.past_prefix.begin(), c.past_prefix.end(), i);
      }
      EXPECT_GT(on_q, 0u) << context;
    }
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
    EXPECT_EQ(instance.p_order_row(0).data() != nullptr, expect_width == 16)
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
// independent instantiation over the job store), dense rows this time so
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

// Tests for the scheduler facade: name round-trips, per-algorithm wiring
// (option mapping, certificates, counters, energy in the report), the
// empty instance, and the validator hookup.
#include <gtest/gtest.h>

#include <cctype>

#include "api/scheduler_api.hpp"
#include "baselines/immediate_rejection.hpp"
#include "baselines/list_scheduler.hpp"
#include "core/energy_flow/energy_flow.hpp"
#include "core/flow/rejection_flow.hpp"
#include "extensions/weighted_flow.hpp"
#include "instance/builders.hpp"
#include "sim/schedule_io.hpp"
#include "workload/generators.hpp"

namespace osched::api {
namespace {

TEST(Api, AlgorithmNamesRoundTrip) {
  for (const std::string& name : algorithm_names()) {
    const auto parsed = parse_algorithm(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(to_string(*parsed), name);
  }
  EXPECT_FALSE(parse_algorithm("nope").has_value());
  EXPECT_FALSE(parse_algorithm("").has_value());
}

TEST(Api, ParseAlgorithmIsCaseInsensitiveOverTheFullTable) {
  // Table-driven over every published name: the exact string, UPPER,
  // Capitalized and mIxEd forms all parse to the same algorithm; near-miss
  // spellings do not.
  const struct {
    const char* name;
    Algorithm expected;
  } table[] = {
      {"theorem1", Algorithm::kTheorem1},
      {"theorem2", Algorithm::kTheorem2},
      {"theorem3", Algorithm::kTheorem3},
      {"weighted-ext", Algorithm::kWeightedExt},
      {"greedy-spt", Algorithm::kGreedySpt},
      {"fifo", Algorithm::kFifo},
      {"immediate-reject", Algorithm::kImmediateReject},
  };
  ASSERT_EQ(std::size(table), algorithm_names().size())
      << "table out of sync with algorithm_names()";
  for (const auto& entry : table) {
    std::string upper = entry.name;
    std::string mixed = entry.name;
    for (std::size_t i = 0; i < upper.size(); ++i) {
      upper[i] = static_cast<char>(std::toupper(upper[i]));
      if (i % 2 == 0) mixed[i] = upper[i];
    }
    for (const std::string& variant : {std::string(entry.name), upper, mixed}) {
      const auto parsed = parse_algorithm(variant);
      ASSERT_TRUE(parsed.has_value()) << variant;
      EXPECT_EQ(*parsed, entry.expected) << variant;
    }
  }
  // Case folding is not fuzzy matching.
  EXPECT_FALSE(parse_algorithm("theorem").has_value());
  EXPECT_FALSE(parse_algorithm("THEOREM1 ").has_value());
  EXPECT_FALSE(parse_algorithm("greedy_spt").has_value());
}

Instance flow_workload(std::uint64_t seed, std::size_t jobs = 150) {
  workload::WorkloadConfig config;
  config.num_jobs = jobs;
  config.num_machines = 3;
  config.load = 1.3;
  config.seed = seed;
  return workload::generate_workload(config);
}

/// A fail/throttle plan over flow_workload's three machines: machine 1 slows
/// to half speed, machine 0 fails (its running job shed from the budget)
/// and rejoins, and machine 1 recovers.
FleetPlan fail_throttle_plan(const Instance& instance) {
  const auto release_at = [&](double q) {
    const auto j = static_cast<double>(instance.num_jobs() - 1) * q;
    return instance.job(static_cast<JobId>(j)).release;
  };
  FleetPlan plan;
  plan.events = {
      {release_at(0.2), 1, FleetEventKind::kSpeedChange, 0.5},
      {release_at(0.35), 0, FleetEventKind::kFail},
      {release_at(0.6), 0, FleetEventKind::kJoin},
      {release_at(0.8), 1, FleetEventKind::kSpeedChange, 1.0},
  };
  plan.rejection_budget = 2;
  return plan;
}

/// A direct per-algorithm call's result, in RunSummary's terms.
struct DirectRun {
  Schedule schedule;
  double certified_lower_bound = 0.0;
  std::size_t rule1_rejections = 0;
  std::size_t rule2_rejections = 0;
  FleetStats fleet;
};

/// Runs `algorithm` through its own entry point with the options api::run
/// documents for it, spelled out here independently of the library's table.
DirectRun run_direct(Algorithm algorithm, const Instance& instance,
                     double epsilon, double alpha, const FleetPlan& plan) {
  DirectRun out;
  switch (algorithm) {
    case Algorithm::kTheorem1: {
      auto result =
          run_rejection_flow(instance, {.epsilon = epsilon, .fleet = plan});
      out.schedule = std::move(result.schedule);
      out.certified_lower_bound = result.opt_lower_bound;
      out.rule1_rejections = result.rule1_rejections;
      out.rule2_rejections = result.rule2_rejections;
      out.fleet = result.fleet;
      break;
    }
    case Algorithm::kTheorem2: {
      auto result = run_energy_flow(
          instance, {.epsilon = epsilon, .alpha = alpha, .fleet = plan});
      out.schedule = std::move(result.schedule);
      out.rule1_rejections = result.rejections;
      out.fleet = result.fleet;
      break;
    }
    case Algorithm::kWeightedExt: {
      auto result = run_weighted_rejection_flow(
          instance, {.epsilon = epsilon, .fleet = plan});
      out.schedule = std::move(result.schedule);
      out.rule1_rejections = result.rule1_rejections;
      out.rule2_rejections = result.rule2_rejections;
      out.fleet = result.fleet;
      break;
    }
    case Algorithm::kGreedySpt:
      out.schedule = run_list_scheduler(
          instance,
          {DispatchRule::kMinCompletion, QueueDiscipline::kSpt, plan},
          &out.fleet);
      break;
    case Algorithm::kFifo:
      out.schedule = run_list_scheduler(
          instance, {DispatchRule::kMinBacklog, QueueDiscipline::kFifo, plan},
          &out.fleet);
      break;
    case Algorithm::kImmediateReject: {
      auto result =
          run_immediate_rejection(instance, {.eps = epsilon, .fleet = plan});
      out.schedule = std::move(result.schedule);
      out.rule1_rejections = result.rejections;
      out.fleet = result.fleet;
      break;
    }
    case Algorithm::kTheorem3:
      ADD_FAILURE() << "theorem3 is not an online policy";
      break;
  }
  return out;
}

void expect_same_fleet(const FleetStats& a, const FleetStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.joins, b.joins) << where;
  EXPECT_EQ(a.drains, b.drains) << where;
  EXPECT_EQ(a.fails, b.fails) << where;
  EXPECT_EQ(a.redispatched, b.redispatched) << where;
  EXPECT_EQ(a.fault_rejections, b.fault_rejections) << where;
  EXPECT_EQ(a.forced_rejections, b.forced_rejections) << where;
  EXPECT_EQ(a.budget_spent, b.budget_spent) << where;
  EXPECT_EQ(a.speed_changes, b.speed_changes) << where;
  EXPECT_EQ(a.throttles, b.throttles) << where;
  EXPECT_EQ(a.recoveries, b.recoveries) << where;
  EXPECT_EQ(a.min_speed_multiplier, b.min_speed_multiplier) << where;
}

// Pins api::run's option mapping for every online algorithm against the
// direct call it stands for. The batch == streamed walls cannot catch a
// wrong mapping, since both drivers read one policy table. Non-default ε
// and α, and a fleet plan, make a dropped or swapped option visible.
TEST(Api, EveryOnlineAlgorithmMatchesItsDirectCall) {
  const Instance instance = flow_workload(5);
  const FleetPlan plan = fail_throttle_plan(instance);
  ScheduleDiffOptions strict;
  strict.time_tolerance = 0.0;
  for (const bool with_fleet : {false, true}) {
    RunOptions options;
    options.epsilon = 0.35;
    options.alpha = 2.5;
    if (with_fleet) options.fleet = plan;
    for (const Algorithm algorithm :
         {Algorithm::kTheorem1, Algorithm::kTheorem2, Algorithm::kWeightedExt,
          Algorithm::kGreedySpt, Algorithm::kFifo,
          Algorithm::kImmediateReject}) {
      const std::string where = std::string(to_string(algorithm)) +
                                (with_fleet ? " with fleet" : " static");
      const RunSummary summary = run(algorithm, instance, options);
      const DirectRun direct =
          run_direct(algorithm, instance, 0.35, 2.5, options.fleet);

      const auto diffs = diff_schedules(summary.schedule, direct.schedule, strict);
      EXPECT_TRUE(diffs.empty()) << where << ": " << diffs.size()
                                 << " schedule diffs; first: " << diffs.front();
      EXPECT_EQ(summary.certified_lower_bound, direct.certified_lower_bound)
          << where;
      EXPECT_EQ(summary.rule1_rejections, direct.rule1_rejections) << where;
      EXPECT_EQ(summary.rule2_rejections, direct.rule2_rejections) << where;
      expect_same_fleet(summary.fleet, direct.fleet, where);
      // The plan fires: the fleet case exercises a fail and a throttle.
      EXPECT_EQ(summary.fleet.fails, with_fleet ? 1u : 0u) << where;
      EXPECT_EQ(summary.fleet.throttles, with_fleet ? 1u : 0u) << where;
      if (algorithm == Algorithm::kTheorem1) {
        EXPECT_GT(summary.certified_lower_bound, 0.0) << where;
      }
    }
  }
}

// A valid instance with no jobs (validate() returns "") is a run with
// nothing to decide, for every algorithm: Theorem 3 included, whose speed
// grid has no deadline window to span.
TEST(Api, EveryAlgorithmRunsTheEmptyInstance) {
  const Instance empty({}, std::vector<std::vector<Work>>(3));
  ASSERT_EQ(empty.validate(), "");
  for (const std::string& name : algorithm_names()) {
    const auto summary = run_by_name(name, empty);
    ASSERT_TRUE(summary.has_value()) << name;
    EXPECT_EQ(summary->schedule.num_jobs(), 0u) << name;
    EXPECT_EQ(summary->report.num_jobs, 0u) << name;
    EXPECT_EQ(summary->report.energy, 0.0) << name;
    EXPECT_EQ(summary->certified_lower_bound, 0.0) << name;
  }
}

TEST(Api, FlowAlgorithmsReportNoEnergy) {
  const Instance instance = flow_workload(6);
  for (Algorithm algorithm : {Algorithm::kTheorem1, Algorithm::kWeightedExt,
                              Algorithm::kGreedySpt, Algorithm::kFifo,
                              Algorithm::kImmediateReject}) {
    const RunSummary summary = run(algorithm, instance);
    EXPECT_EQ(summary.report.energy, 0.0) << to_string(algorithm);
    EXPECT_EQ(summary.report.num_jobs, instance.num_jobs());
    EXPECT_EQ(summary.algorithm, algorithm);
  }
}

TEST(Api, NoRejectionBaselinesCompleteEverything) {
  const Instance instance = flow_workload(7);
  for (Algorithm algorithm : {Algorithm::kGreedySpt, Algorithm::kFifo}) {
    const RunSummary summary = run(algorithm, instance);
    EXPECT_EQ(summary.report.num_completed, instance.num_jobs());
    EXPECT_EQ(summary.report.num_rejected, 0u);
  }
}

TEST(Api, Theorem2FillsEnergyInTheReport) {
  const Instance instance = flow_workload(8, 60);
  RunOptions options;
  options.epsilon = 0.4;
  options.alpha = 2.5;
  const RunSummary summary = run(Algorithm::kTheorem2, instance, options);
  EXPECT_GT(summary.report.energy, 0.0);
  EXPECT_GT(summary.report.total_weighted_flow, 0.0);
}

TEST(Api, Theorem3RunsDeadlineInstancesAndCertifies) {
  workload::WorkloadConfig config;
  config.num_jobs = 25;
  config.num_machines = 2;
  config.load = 0.7;
  config.with_deadlines = true;
  config.seed = 9;
  const Instance instance = workload::generate_workload(config);

  RunOptions options;
  options.alpha = 2.0;
  options.speed_levels = 6;
  const RunSummary summary = run(Algorithm::kTheorem3, instance, options);
  EXPECT_EQ(summary.report.num_completed, instance.num_jobs());
  EXPECT_GT(summary.report.energy, 0.0);
  EXPECT_GT(summary.certified_lower_bound, 0.0);
  // Theorem 3: ALG <= alpha^alpha * OPT, and the certificate is a lower
  // bound on OPT within the strategy space, so ALG / LB <= alpha^alpha must
  // hold on every instance.
  EXPECT_LE(summary.report.energy,
            std::pow(options.alpha, options.alpha) *
                    summary.certified_lower_bound +
                1e-6);
}

TEST(Api, ImmediateRejectStaysWithinItsBudget) {
  const Instance instance = flow_workload(10);
  RunOptions options;
  options.epsilon = 0.2;
  const RunSummary summary = run(Algorithm::kImmediateReject, instance, options);
  EXPECT_LE(summary.report.rejected_fraction, 0.2 + 1e-9);
}

TEST(Api, RunByNameMatchesEnumDispatchAndRejectsUnknown) {
  const Instance instance = flow_workload(11);
  RunOptions options;
  options.epsilon = 0.25;
  const auto by_name = run_by_name("theorem1", instance, options);
  ASSERT_TRUE(by_name.has_value());
  const RunSummary direct = run(Algorithm::kTheorem1, instance, options);
  EXPECT_DOUBLE_EQ(by_name->report.total_flow, direct.report.total_flow);
  EXPECT_EQ(by_name->report.num_rejected, direct.report.num_rejected);

  EXPECT_FALSE(run_by_name("no-such-policy", instance, options).has_value());
}

}  // namespace
}  // namespace osched::api

// Fault-injection wall for dynamic fleet membership (sim/fleet.hpp).
//
// Three layers of guarantees:
//  * semantics — hand-built instances pin down exactly what join/drain/fail
//    do: a killed running job restarts elsewhere (or is shed under budget),
//    queued work survives a drain, a join cancels a drain, initially-down
//    machines are invisible until they join, and a speed change scales only
//    jobs STARTED at or after it (in-flight work keeps its start-time speed);
//  * degradation — a fleet plan can starve or kill machines, but no policy
//    may ever crash, deadlock, or leave a job undecided: every job completes
//    or is rejected, across every algorithm x storage backend x plan shape,
//    with the independent validator on;
//  * equivalence — the indexed dispatch path and the linear-scan reference
//    stay bit-identical under fleet masking, and a streamed session fed the
//    same plan makes bit-identical decisions to the batch engine (fleet
//    events share the completions' delivery discipline, so the streaming
//    differential contract extends to them).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "baselines/list_scheduler.hpp"
#include "core/energy_flow/energy_flow.hpp"
#include "core/flow/rejection_flow.hpp"
#include "extensions/weighted_flow.hpp"
#include "fuzz_seed.hpp"
#include "service/scheduler_session.hpp"
#include "sim/schedule_io.hpp"
#include "workload/generated_family.hpp"

namespace osched {
namespace {

std::uint64_t base_seed() { return testing::fuzz_base_seed("fleet_test", 7); }

const api::Algorithm kFleetCapable[] = {
    api::Algorithm::kTheorem1,    api::Algorithm::kTheorem2,
    api::Algorithm::kWeightedExt, api::Algorithm::kGreedySpt,
    api::Algorithm::kFifo,        api::Algorithm::kImmediateReject,
};

/// Dense two-machine instance from explicit (release, p_m0, p_m1) rows.
Instance two_machine_instance(
    const std::vector<std::array<double, 3>>& rows) {
  std::vector<Job> jobs(rows.size());
  std::vector<std::vector<Work>> processing(2,
                                            std::vector<Work>(rows.size()));
  for (std::size_t k = 0; k < rows.size(); ++k) {
    jobs[k].id = static_cast<JobId>(k);
    jobs[k].release = rows[k][0];
    processing[0][k] = rows[k][1];
    processing[1][k] = rows[k][2];
  }
  return Instance(std::move(jobs), std::move(processing));
}

/// `f`-quantile of the instance's (sorted) release times — fleet plans built
/// from these land exactly on arrival instants, exercising the
/// events<=fleet<=arrivals tie order.
Time release_quantile(const Instance& instance, double f) {
  const auto last = static_cast<double>(instance.num_jobs() - 1);
  const auto idx = static_cast<JobId>(f * last);
  return instance.job(idx).release;
}

/// Kill/recover churn: fail machine 0 early, bring it back, fail machine 1
/// late, with a small shed budget.
FleetPlan churn_plan(const Instance& instance) {
  FleetPlan plan;
  plan.events = {
      {release_quantile(instance, 0.25), 0, FleetEventKind::kFail},
      {release_quantile(instance, 0.50), 0, FleetEventKind::kJoin},
      {release_quantile(instance, 0.75), 1, FleetEventKind::kFail},
  };
  plan.rejection_budget = 3;
  return plan;
}

/// Capacity churn without sheds: a machine that starts outside the fleet,
/// a drain later cancelled by a join, and a no-budget fail whose killed job
/// must be restarted (shed_killed_running off).
FleetPlan drain_plan(const Instance& instance) {
  FleetPlan plan;
  plan.initially_down = {2};
  plan.events = {
      {release_quantile(instance, 0.25), 3, FleetEventKind::kDrain},
      {release_quantile(instance, 0.40), 2, FleetEventKind::kJoin},
      {release_quantile(instance, 0.60), 4, FleetEventKind::kFail},
      {release_quantile(instance, 0.80), 3, FleetEventKind::kJoin},
  };
  plan.rejection_budget = 0;
  plan.shed_killed_running = false;
  return plan;
}

/// Mid-run speed degradation interleaved with membership churn: throttles
/// and recoveries, including a multiplier applied while its machine is down
/// (it must take effect when the machine rejoins), so scaled x down masking
/// and the scaled-dispatch fixups are both exercised.
FleetPlan speed_plan(const Instance& instance) {
  FleetPlan plan;
  plan.events = {
      {release_quantile(instance, 0.15), 1, FleetEventKind::kSpeedChange, 0.5},
      {release_quantile(instance, 0.30), 0, FleetEventKind::kFail},
      {release_quantile(instance, 0.45), 0, FleetEventKind::kSpeedChange, 0.25},
      {release_quantile(instance, 0.60), 0, FleetEventKind::kJoin},
      {release_quantile(instance, 0.75), 2, FleetEventKind::kSpeedChange, 2.0},
      {release_quantile(instance, 0.90), 1, FleetEventKind::kSpeedChange, 1.0},
  };
  plan.rejection_budget = 2;
  return plan;
}

TEST(FleetPlan, ValidateCatchesStructuralProblems) {
  const auto problems_of = [](const FleetPlan& plan, std::size_t m) {
    return plan.validate(m);
  };

  FleetPlan ok;
  ok.events = {{1.0, 0, FleetEventKind::kFail},
               {2.0, 0, FleetEventKind::kJoin}};
  EXPECT_EQ(problems_of(ok, 2), "");

  FleetPlan out_of_range;
  out_of_range.events = {{1.0, 5, FleetEventKind::kFail}};
  EXPECT_NE(problems_of(out_of_range, 2), "");

  FleetPlan unsorted;
  unsorted.events = {{2.0, 0, FleetEventKind::kFail},
                     {1.0, 1, FleetEventKind::kFail}};
  EXPECT_NE(problems_of(unsorted, 2), "");

  FleetPlan join_of_active;
  join_of_active.events = {{1.0, 0, FleetEventKind::kJoin}};
  EXPECT_NE(problems_of(join_of_active, 2), "");

  FleetPlan drain_of_down;
  drain_of_down.events = {{1.0, 0, FleetEventKind::kFail},
                          {2.0, 0, FleetEventKind::kDrain}};
  EXPECT_NE(problems_of(drain_of_down, 2), "");

  FleetPlan fail_of_down;
  fail_of_down.events = {{1.0, 0, FleetEventKind::kFail},
                         {2.0, 0, FleetEventKind::kFail}};
  EXPECT_NE(problems_of(fail_of_down, 2), "");

  FleetPlan dup_down;
  dup_down.initially_down = {1, 1};
  EXPECT_NE(problems_of(dup_down, 2), "");

  FleetPlan negative_time;
  negative_time.events = {{-1.0, 0, FleetEventKind::kFail}};
  EXPECT_NE(problems_of(negative_time, 2), "");
}

TEST(FleetPlan, ValidateCatchesBadSpeedEvents) {
  FleetPlan ok;  // same instant on DIFFERENT machines stays legal
  ok.events = {{1.0, 0, FleetEventKind::kSpeedChange, 0.5},
               {1.0, 1, FleetEventKind::kSpeedChange, 2.0},
               {2.0, 0, FleetEventKind::kSpeedChange, 1.0}};
  EXPECT_EQ(ok.validate(2), "");

  FleetPlan on_down;  // legal in any membership state
  on_down.initially_down = {0};
  on_down.events = {{1.0, 0, FleetEventKind::kSpeedChange, 0.5}};
  EXPECT_EQ(on_down.validate(2), "");

  for (const double bad : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    FleetPlan plan;
    plan.events = {{1.0, 0, FleetEventKind::kSpeedChange, bad}};
    EXPECT_NE(plan.validate(2), "") << "multiplier " << bad;
  }

  FleetPlan speed_out_of_range;
  speed_out_of_range.events = {{1.0, 7, FleetEventKind::kSpeedChange, 0.5}};
  EXPECT_NE(speed_out_of_range.validate(2), "");

  // Two events on one machine at one instant have no defined order: rejected
  // outright, for speed pairs and across kinds alike.
  FleetPlan dup_speed;
  dup_speed.events = {{1.0, 0, FleetEventKind::kSpeedChange, 0.5},
                      {1.0, 0, FleetEventKind::kSpeedChange, 2.0}};
  EXPECT_NE(dup_speed.validate(2), "");

  FleetPlan dup_mixed;
  dup_mixed.events = {{1.0, 0, FleetEventKind::kFail},
                      {1.0, 0, FleetEventKind::kJoin}};
  EXPECT_NE(dup_mixed.validate(2), "");
}

TEST(FleetPlan, ValidateAcceptsRandomSpeedPlansAndCatchesMutations) {
  // Property check: any time-sorted, duplicate-free speed plan with finite
  // positive multipliers validates clean, and one injected corruption —
  // whichever kind — always turns the verdict non-empty.
  std::mt19937_64 rng(base_seed() + 909);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t m = 2 + rng() % 5;
    FleetPlan plan;
    Time t = 0.0;
    const std::size_t n = 1 + rng() % 8;
    for (std::size_t k = 0; k < n; ++k) {
      t += 0.25 + static_cast<double>(rng() % 8) * 0.25;  // strictly increasing
      plan.events.push_back({t, static_cast<MachineId>(rng() % m),
                             FleetEventKind::kSpeedChange,
                             0.25 + static_cast<double>(rng() % 16) * 0.25});
    }
    ASSERT_EQ(plan.validate(m), "") << "trial " << trial;

    FleetPlan bad = plan;
    const std::size_t victim = rng() % bad.events.size();
    switch (rng() % 5) {
      case 0: bad.events[victim].speed = 0.0; break;
      case 1: bad.events[victim].speed = -1.0; break;
      case 2:
        bad.events[victim].speed = std::numeric_limits<double>::quiet_NaN();
        break;
      case 3: bad.events[victim].machine = static_cast<MachineId>(m); break;
      case 4: bad.events.push_back(bad.events.back()); break;  // duplicate
    }
    EXPECT_NE(bad.validate(m), "") << "trial " << trial;
  }
}

TEST(FleetState, NumActiveCountsEveryMachineWithOrWithoutAPlan) {
  FleetState no_plan;
  no_plan.init(4, FleetPlan{});
  EXPECT_FALSE(no_plan.enabled());
  EXPECT_EQ(no_plan.num_active(), 4u);

  FleetPlan plan;
  plan.initially_down = {2};
  FleetState fleet;
  fleet.init(4, plan);
  EXPECT_TRUE(fleet.enabled());
  EXPECT_EQ(fleet.num_active(), 3u);
  EXPECT_FALSE(fleet.active(2));

  // apply() reports exactly the fails (the events that orphan work).
  EXPECT_FALSE(fleet.apply({1.0, 2, FleetEventKind::kJoin}));
  EXPECT_EQ(fleet.num_active(), 4u);
  EXPECT_TRUE(fleet.apply({2.0, 0, FleetEventKind::kFail}));
  EXPECT_FALSE(fleet.apply({3.0, 1, FleetEventKind::kDrain}));
  EXPECT_EQ(fleet.num_active(), 2u);
  EXPECT_EQ(fleet.stats.joins, 1u);
  EXPECT_EQ(fleet.stats.fails, 1u);
  EXPECT_EQ(fleet.stats.drains, 1u);
}

TEST(FleetSemantics, FailRestartsTheKilledRunningJobElsewhere) {
  // One job, running on machine 0 (the faster one, and the first of two
  // idle ones) when it fails mid-execution. Non-preemptive: the 5 time
  // units of progress are lost; with no shed budget every policy must
  // restart the job from scratch on the survivor.
  const Instance instance = two_machine_instance({{0.0, 10.0, 20.0}});
  for (const api::Algorithm algorithm : kFleetCapable) {
    const std::string name = api::to_string(algorithm);
    api::RunOptions options;
    options.fleet.events = {{5.0, 0, FleetEventKind::kFail}};
    const api::RunSummary summary = api::run(algorithm, instance, options);

    const JobRecord& rec = summary.schedule.record(0);
    EXPECT_TRUE(rec.completed()) << name;
    EXPECT_EQ(rec.machine, 1) << name;
    EXPECT_EQ(rec.start, 5.0) << name;  // restarted the instant the fail hit
    // The full p_1j = 20 from scratch at the start-time speed: 1 for every
    // policy but Theorem 2, whose speed scales with the pending weight.
    EXPECT_EQ(rec.end, 5.0 + 20.0 / rec.speed) << name;
    if (algorithm != api::Algorithm::kTheorem2) {
      EXPECT_EQ(rec.end, 25.0) << name;
    }
    EXPECT_EQ(summary.fleet.fails, 1u) << name;
    EXPECT_EQ(summary.fleet.redispatched, 1u) << name;
    EXPECT_EQ(summary.fleet.fault_rejections, 0u) << name;
    EXPECT_EQ(summary.fleet.budget_spent, 0u) << name;
  }
}

TEST(FleetSemantics, BudgetShedsTheKilledRunningJobInstead) {
  const Instance instance = two_machine_instance({{0.0, 10.0, 20.0}});
  for (const api::Algorithm algorithm : kFleetCapable) {
    const std::string name = api::to_string(algorithm);
    api::RunOptions options;
    options.fleet.events = {{5.0, 0, FleetEventKind::kFail}};
    options.fleet.rejection_budget = 1;  // shed_killed_running defaults on
    const api::RunSummary summary = api::run(algorithm, instance, options);

    const JobRecord& rec = summary.schedule.record(0);
    EXPECT_EQ(rec.fate, JobFate::kRejectedRunning) << name;
    EXPECT_EQ(rec.rejection_time, 5.0) << name;
    EXPECT_EQ(rec.machine, 0) << name;
    EXPECT_EQ(summary.fleet.fails, 1u) << name;
    EXPECT_EQ(summary.fleet.fault_rejections, 1u) << name;
    EXPECT_EQ(summary.fleet.forced_rejections, 0u) << name;
    EXPECT_EQ(summary.fleet.budget_spent, 1u) << name;
    EXPECT_EQ(summary.fleet.redispatched, 0u) << name;
  }
}

TEST(FleetSemantics, TotalFleetLossForceRejectsButNeverDeadlocks) {
  // Machine 0 dies holding a running job; the only other machine is never
  // in the fleet. The killed job and the post-fail arrival both have no
  // active eligible machine: forced rejections, past the zero budget — the
  // run completes and validates rather than wedging.
  std::vector<Job> jobs(2);
  jobs[0].id = 0;
  jobs[0].release = 0.0;
  jobs[1].id = 1;
  jobs[1].release = 6.0;
  Instance instance(std::move(jobs), {{10.0, 5.0}});

  for (const api::Algorithm algorithm : kFleetCapable) {
    api::RunOptions options;
    options.fleet.events = {{5.0, 0, FleetEventKind::kFail}};
    const api::RunSummary summary = api::run(algorithm, instance, options);
    EXPECT_EQ(summary.report.num_rejected, 2u) << api::to_string(algorithm);
    EXPECT_EQ(summary.report.num_completed, 0u) << api::to_string(algorithm);
    EXPECT_EQ(summary.fleet.forced_rejections, 2u) << api::to_string(algorithm);
    EXPECT_EQ(summary.fleet.fault_rejections, 2u) << api::to_string(algorithm);
  }
}

TEST(FleetSemantics, DrainFinishesQueuedWorkAndJoinCancelsIt) {
  const Instance instance = two_machine_instance({
      {0.0, 4.0, 4.5},    // -> m0, runs [0, 4)
      {0.0, 4.0, 4.5},    // -> m1 (m0 busy), runs [0, 4.5)
      {1.0, 1.0, 1.0},    // -> m0's queue; must survive the drain
      {3.0, 1.0, 3.0},    // arrives while m0 drains -> m1
      {7.0, 1.0, 100.0},  // arrives after m0 rejoined -> m0
  });
  ListSchedulerOptions options;
  options.fleet.events = {{2.0, 0, FleetEventKind::kDrain},
                          {6.0, 0, FleetEventKind::kJoin}};
  FleetStats stats;
  const Schedule schedule = run_list_scheduler(instance, options, &stats);

  EXPECT_EQ(schedule.record(2).machine, 0);  // queued before the drain: stays
  EXPECT_TRUE(schedule.record(2).completed());
  EXPECT_EQ(schedule.record(3).machine, 1);  // drain masks m0 for new work
  EXPECT_EQ(schedule.record(4).machine, 0);  // join cancelled the drain
  EXPECT_EQ(stats.drains, 1u);
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.fails, 0u);
}

TEST(FleetSemantics, SpeedChangeScalesStartsNotInFlightWork) {
  // Job 0 is running on m0 when the t=5 throttle lands: non-preemptive work
  // keeps its start-time speed, so it still ends at 10. Job 1 is DISPATCHED
  // under the throttle (effective p = 4/0.5 = 8 beats m1's 100) and STARTS
  // at 10, after the throttle, so it runs 8 wall-clock units. Job 2 starts
  // after the t=12 recovery to 2x and runs 6/2 = 3 units.
  const Instance instance = two_machine_instance({
      {0.0, 10.0, 100.0},
      {6.0, 4.0, 100.0},
      {13.0, 6.0, 100.0},
  });
  ListSchedulerOptions options;
  options.fleet.events = {{5.0, 0, FleetEventKind::kSpeedChange, 0.5},
                          {12.0, 0, FleetEventKind::kSpeedChange, 2.0}};
  FleetStats stats;
  const Schedule schedule = run_list_scheduler(instance, options, &stats);

  EXPECT_EQ(schedule.record(0).machine, 0);
  EXPECT_EQ(schedule.record(0).end, 10.0);  // in-flight: throttle-proof
  EXPECT_EQ(schedule.record(1).machine, 0);
  EXPECT_EQ(schedule.record(1).start, 10.0);
  EXPECT_EQ(schedule.record(1).end, 18.0);  // 4 / 0.5
  EXPECT_EQ(schedule.record(2).machine, 0);
  EXPECT_EQ(schedule.record(2).start, 18.0);
  EXPECT_EQ(schedule.record(2).end, 21.0);  // 6 / 2.0
  EXPECT_EQ(stats.speed_changes, 2u);
  EXPECT_EQ(stats.throttles, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.min_speed_multiplier, 0.5);
}

TEST(FleetSemantics, ThrottleRedirectsDispatchOnMerit) {
  // Before the throttle m0 wins (4 < 5). Job 1 arrives after m0 dropped to
  // quarter speed: its effective p there is 16, so min-completion now sends
  // it to the idle m1 even with m0 finishing soon.
  const Instance instance = two_machine_instance({
      {0.0, 4.0, 5.0},
      {2.0, 4.0, 5.0},
  });
  ListSchedulerOptions options;
  options.fleet.events = {{1.0, 0, FleetEventKind::kSpeedChange, 0.25}};
  FleetStats stats;
  const Schedule schedule = run_list_scheduler(instance, options, &stats);

  EXPECT_EQ(schedule.record(0).machine, 0);
  EXPECT_EQ(schedule.record(0).end, 4.0);
  EXPECT_EQ(schedule.record(1).machine, 1);
  EXPECT_EQ(schedule.record(1).start, 2.0);
  EXPECT_EQ(schedule.record(1).end, 7.0);
  EXPECT_EQ(stats.throttles, 1u);
  EXPECT_EQ(stats.min_speed_multiplier, 0.25);
}

TEST(FleetSemantics, SpeedChangeOnDownMachineTakesEffectAtRejoin) {
  // m0 fails while idle, is throttled while DOWN, and rejoins: the stored
  // multiplier must survive the membership round-trip. Job 1 then avoids the
  // half-speed m0 (effective p 20 vs 11); job 2 takes it at half speed.
  const Instance instance = two_machine_instance({
      {0.0, 2.0, 50.0},
      {4.0, 10.0, 11.0},
      {4.0, 3.0, 50.0},
  });
  ListSchedulerOptions options;
  options.fleet.events = {{2.5, 0, FleetEventKind::kFail},
                          {3.0, 0, FleetEventKind::kSpeedChange, 0.5},
                          {3.5, 0, FleetEventKind::kJoin}};
  FleetStats stats;
  const Schedule schedule = run_list_scheduler(instance, options, &stats);

  EXPECT_EQ(schedule.record(0).machine, 0);
  EXPECT_EQ(schedule.record(0).end, 2.0);
  EXPECT_EQ(schedule.record(1).machine, 1);
  EXPECT_EQ(schedule.record(1).end, 15.0);
  EXPECT_EQ(schedule.record(2).machine, 0);
  EXPECT_EQ(schedule.record(2).start, 4.0);
  EXPECT_EQ(schedule.record(2).end, 10.0);  // 3 / 0.5
  EXPECT_EQ(stats.fails, 1u);
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.speed_changes, 1u);
  EXPECT_EQ(stats.throttles, 1u);
}

TEST(FleetSemantics, InitiallyDownMachineIsInvisibleUntilItJoins) {
  const Instance instance = two_machine_instance({
      {0.0, 5.0, 0.5},  // m1 would win, but it is not in the fleet yet
      {2.0, 5.0, 0.5},  // after the join m1 wins on merit
  });
  ListSchedulerOptions options;
  options.fleet.initially_down = {1};
  options.fleet.events = {{1.0, 1, FleetEventKind::kJoin}};
  FleetStats stats;
  const Schedule schedule = run_list_scheduler(instance, options, &stats);

  EXPECT_EQ(schedule.record(0).machine, 0);
  EXPECT_EQ(schedule.record(1).machine, 1);
  EXPECT_EQ(stats.joins, 1u);
}

TEST(FleetWall, NoPolicyCrashesOrLeaksJobsOnAnyBackend) {
  // The degradation wall: every algorithm x every storage backend x both
  // plan shapes, with the independent validator on. Machines die holding
  // running and queued jobs; every job must still end terminal.
  const StorageBackend backends[] = {StorageBackend::kDense,
                                     StorageBackend::kSparseCsr,
                                     StorageBackend::kGenerator};
  for (std::uint64_t s = 0; s < 2; ++s) {
    workload::ClosedFormConfig config;
    config.num_jobs = 250;
    config.num_machines = 6;
    config.seed = base_seed() + 31 * s;
    config.load = 1.3;
    for (const StorageBackend backend : backends) {
      const Instance instance =
          workload::make_closed_form_instance(config, backend);
      const FleetPlan plans[] = {churn_plan(instance), drain_plan(instance),
                                 speed_plan(instance)};
      for (std::size_t p = 0; p < 3; ++p) {
        for (const api::Algorithm algorithm : kFleetCapable) {
          api::RunOptions options;
          options.fleet = plans[p];
          const api::RunSummary summary =
              api::run(algorithm, instance, options);
          const std::string context = std::string(api::to_string(algorithm)) +
                                      " backend=" + to_string(backend) +
                                      " plan=" + std::to_string(p) +
                                      " seed+=" + std::to_string(31 * s);
          EXPECT_EQ(summary.report.num_completed + summary.report.num_rejected,
                    config.num_jobs)
              << context << ": a job was left undecided";
          const FleetStats& fleet = summary.fleet;
          const std::size_t expected_fails[] = {2u, 1u, 1u};
          EXPECT_EQ(fleet.fails, expected_fails[p]) << context;
          EXPECT_LE(fleet.budget_spent, plans[p].rejection_budget) << context;
          EXPECT_LE(fleet.forced_rejections, fleet.fault_rejections) << context;
          if (p == 2) {
            EXPECT_EQ(fleet.speed_changes, 4u) << context;
            EXPECT_EQ(fleet.throttles, 2u) << context;
            EXPECT_EQ(fleet.recoveries, 2u) << context;
            EXPECT_EQ(fleet.min_speed_multiplier, 0.25) << context;
          }
        }
      }
    }
  }
}

/// The equivalence walls' instances: one closed-form family under every
/// storage backend. Dense runs fully eligible and restricted (rows with
/// +inf holes, so dispatch walks explicit adjacencies), CSR restricted, and
/// the generator fully eligible by contract. m = 16 at a moderate load
/// keeps the live list small enough (<= count/4 + 1) that
/// dispatch_ordered's exact idle scan and live-list check over the held
/// row run, including while speed_plan's multipliers are in force.
struct WallCase {
  StorageBackend backend;
  double eligibility;
  std::size_t num_machines = 16;
  double load = 0.8;
  std::size_t num_jobs = 300;
};

/// The backend cases above plus `overloaded`: a dense few-machine case in
/// which churn_plan and drain_plan take out a third of the fleet, so
/// rejections and redispatch are frequent.
std::vector<WallCase> wall_cases(const WallCase& overloaded) {
  return {{StorageBackend::kDense, 1.0},
          {StorageBackend::kDense, 0.5},
          {StorageBackend::kSparseCsr, 0.5},
          {StorageBackend::kGenerator, 1.0},
          overloaded};
}

workload::ClosedFormConfig wall_config(std::uint64_t seed,
                                       const WallCase& wall) {
  workload::ClosedFormConfig config;
  config.num_jobs = wall.num_jobs;
  config.num_machines = wall.num_machines;
  config.seed = seed;
  config.load = wall.load;
  config.eligibility = wall.eligibility;
  return config;
}

std::string wall_context(const WallCase& wall) {
  return std::string("backend=") + to_string(wall.backend) +
         " eligibility=" + std::to_string(wall.eligibility) +
         " m=" + std::to_string(wall.num_machines) +
         " load=" + std::to_string(wall.load);
}

TEST(FleetWall, IndexedDispatchMatchesLinearScanUnderFleetMasking) {
  // The dispatch index masks inactive machines out of its float bound
  // sweep; the linear-scan reference simply skips them. Both must remain
  // bit-identical with machines failing, draining, joining, and changing
  // speed mid-run (speed rewrites the scaled machines' bounds), on
  // every storage backend.
  for (const WallCase& wall :
       wall_cases({StorageBackend::kDense, 1.0, 6, 1.2, 300})) {
    const workload::ClosedFormConfig config =
        wall_config(base_seed() + 101, wall);
    const Instance instance =
        workload::make_closed_form_instance(config, wall.backend);
    const FleetPlan plans[] = {churn_plan(instance), drain_plan(instance),
                               speed_plan(instance)};
    const std::string backend = wall_context(wall);

    ScheduleDiffOptions strict;
    strict.time_tolerance = 0.0;
    for (std::size_t p = 0; p < 3; ++p) {
      const FleetPlan& plan = plans[p];
      const std::string context = backend + " plan=" + std::to_string(p);
      {
        RejectionFlowOptions a{.fleet = plan};
        RejectionFlowOptions b{.dispatch = DispatchMode::kLinearScan,
                               .fleet = plan};
        const auto indexed = run_rejection_flow(instance, a);
        const auto linear = run_rejection_flow(instance, b);
        const auto diffs =
            diff_schedules(indexed.schedule, linear.schedule, strict);
        EXPECT_TRUE(diffs.empty())
            << context << " theorem1: " << diffs.size() << " diffs";
        EXPECT_EQ(indexed.fleet.redispatched, linear.fleet.redispatched)
            << context;
      }
      {
        EnergyFlowOptions a;
        a.fleet = plan;
        EnergyFlowOptions b = a;
        b.dispatch = DispatchMode::kLinearScan;
        const auto indexed = run_energy_flow(instance, a);
        const auto linear = run_energy_flow(instance, b);
        const auto diffs =
            diff_schedules(indexed.schedule, linear.schedule, strict);
        EXPECT_TRUE(diffs.empty())
            << context << " theorem2: " << diffs.size() << " diffs";
        EXPECT_EQ(indexed.fleet.redispatched, linear.fleet.redispatched)
            << context;
      }
      {
        WeightedFlowOptions a{.fleet = plan};
        WeightedFlowOptions b{.dispatch = DispatchMode::kLinearScan,
                              .fleet = plan};
        const auto indexed = run_weighted_rejection_flow(instance, a);
        const auto linear = run_weighted_rejection_flow(instance, b);
        const auto diffs =
            diff_schedules(indexed.schedule, linear.schedule, strict);
        EXPECT_TRUE(diffs.empty())
            << context << " weighted: " << diffs.size() << " diffs";
        EXPECT_EQ(indexed.fleet.redispatched, linear.fleet.redispatched)
            << context;
      }
    }
  }
}

TEST(FleetWall, StreamedFleetRunIsBitIdenticalToBatch) {
  // The streaming differential contract extended to fleet plans: fleet
  // events are delivered with the completions' discipline, so any chunking
  // (including chunk=1, with advance() calls landing between fleet events)
  // reproduces the batch run exactly — schedule, report, and counters.
  // Each instance streams into a session of its own backend, whose store
  // rows (dense blocks, CSR tiles, synthesized generator tiles) feed the
  // row-based dispatch scans.
  for (const WallCase& wall :
       wall_cases({StorageBackend::kDense, 1.0, 6, 1.25, 250})) {
    const workload::ClosedFormConfig config =
        wall_config(base_seed() + 202, wall);
    const Instance instance =
        workload::make_closed_form_instance(config, wall.backend);
    service::SessionOptions session_options;
    session_options.storage = wall.backend;
    if (wall.backend == StorageBackend::kGenerator) {
      session_options.generator = workload::make_closed_form_generator(config);
    }

    ScheduleDiffOptions strict;
    strict.time_tolerance = 0.0;
    const FleetPlan plans[] = {churn_plan(instance), drain_plan(instance),
                               speed_plan(instance)};
    for (std::size_t p = 0; p < 3; ++p) {
      session_options.run.fleet = plans[p];
      const api::RunOptions& options = session_options.run;
      for (const api::Algorithm algorithm : kFleetCapable) {
        const api::RunSummary batch = api::run(algorithm, instance, options);
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}}) {
          const api::RunSummary streamed = service::streamed_session_run(
              algorithm, instance, session_options, chunk);
          const std::string context =
              std::string(api::to_string(algorithm)) + " " +
              wall_context(wall) + " plan=" + std::to_string(p) +
              " chunk=" + std::to_string(chunk);
          const auto diffs =
              diff_schedules(batch.schedule, streamed.schedule, strict);
          EXPECT_TRUE(diffs.empty())
              << context << ": " << diffs.size() << " schedule diffs";
          EXPECT_EQ(batch.report.total_flow, streamed.report.total_flow)
              << context;
          EXPECT_EQ(batch.report.num_rejected, streamed.report.num_rejected)
              << context;
          EXPECT_EQ(batch.fleet.redispatched, streamed.fleet.redispatched)
              << context;
          EXPECT_EQ(batch.fleet.fault_rejections,
                    streamed.fleet.fault_rejections)
              << context;
          EXPECT_EQ(batch.fleet.forced_rejections,
                    streamed.fleet.forced_rejections)
              << context;
          EXPECT_EQ(batch.fleet.budget_spent, streamed.fleet.budget_spent)
              << context;
          EXPECT_EQ(batch.fleet.speed_changes, streamed.fleet.speed_changes)
              << context;
          EXPECT_EQ(batch.fleet.throttles, streamed.fleet.throttles) << context;
          EXPECT_EQ(batch.fleet.recoveries, streamed.fleet.recoveries)
              << context;
          EXPECT_EQ(batch.fleet.min_speed_multiplier,
                    streamed.fleet.min_speed_multiplier)
              << context;
        }
      }
    }
  }
}

}  // namespace
}  // namespace osched

// Tests for the simulation substrate: event queue, engine ordering,
// schedule record, objectives, energy integration and the independent
// validator.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "instance/builders.hpp"
#include "instance/power.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "sim/validator.hpp"

namespace osched {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.schedule(5.0, 0, 1);
  queue.schedule(1.0, 0, 2);
  queue.schedule(3.0, 1, 3);
  EXPECT_EQ(queue.pop().job, 2);
  EXPECT_EQ(queue.pop().job, 3);
  EXPECT_EQ(queue.pop().job, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue queue;
  queue.schedule(2.0, 0, 10);
  queue.schedule(2.0, 0, 11);
  EXPECT_EQ(queue.pop().job, 10);
  EXPECT_EQ(queue.pop().job, 11);
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue queue;
  const auto id1 = queue.schedule(1.0, 0, 1);
  queue.schedule(2.0, 0, 2);
  queue.cancel(id1);
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.pop().job, 2);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, GenerationReuseNoStaleFire) {
  // Cancel, then re-schedule: the new event reuses the cancelled event's
  // slot, and the stale heap entry (same slot, older generation) must not
  // fire or shadow the replacement.
  EventQueue queue;
  const auto id1 = queue.schedule(1.0, 0, 1);
  queue.cancel(id1);
  const auto id2 = queue.schedule(2.0, 0, 2);  // reuses the slot
  EXPECT_NE(id1, id2);
  ASSERT_TRUE(queue.peek_time().has_value());
  EXPECT_DOUBLE_EQ(*queue.peek_time(), 2.0);
  EXPECT_EQ(queue.pop().job, 2);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DeepSlotRecyclingStaysLive) {
  // Many cancel/re-schedule rounds through the same slot: every generation
  // must stay distinguishable from its predecessors.
  EventQueue queue;
  std::uint64_t handle = queue.schedule(1.0, 0, 0);
  for (int round = 1; round <= 100; ++round) {
    queue.cancel(handle);
    handle = queue.schedule(1.0 + round, 0, round);
  }
  const SimEvent fired = queue.pop();
  EXPECT_EQ(fired.job, 100);
  EXPECT_DOUBLE_EQ(fired.time, 101.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, InterleavedCancelKeepsScheduleOrder) {
  EventQueue queue;
  const auto a = queue.schedule(5.0, 0, 1);
  queue.schedule(5.0, 0, 2);
  const auto c = queue.schedule(5.0, 0, 3);
  queue.schedule(5.0, 0, 4);  // reuse era: no cancels yet
  queue.cancel(a);
  queue.cancel(c);
  queue.schedule(5.0, 0, 5);  // reuses a slot; still fires last (newest seq)
  EXPECT_EQ(queue.pop().job, 2);
  EXPECT_EQ(queue.pop().job, 4);
  EXPECT_EQ(queue.pop().job, 5);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PeekTimeSkipsCancelled) {
  EventQueue queue;
  const auto id1 = queue.schedule(1.0, 0, 1);
  queue.schedule(4.0, 0, 2);
  queue.cancel(id1);
  ASSERT_TRUE(queue.peek_time().has_value());
  EXPECT_DOUBLE_EQ(*queue.peek_time(), 4.0);
}

// ---------------------------------------------------------------- Engine

class RecordingHooks : public SimulationHooks {
 public:
  explicit RecordingHooks(SimEngine& engine) : engine_(engine) {}

  void on_arrival(JobId job, Time now) override {
    log.push_back({'A', job, now});
    if (schedule_on_arrival_.count(job) > 0) {
      engine_.events().schedule(schedule_on_arrival_[job], 0, job);
    }
  }
  void on_event(const SimEvent& event, Time now) override {
    log.push_back({'E', event.job, now});
  }
  void on_fleet(const FleetEvent& event, Time now) override {
    log.push_back({'F', static_cast<JobId>(event.machine), now});
  }

  /// The log's kinds in delivery order, e.g. "AEA".
  std::string kinds() const {
    std::string out;
    for (const Entry& entry : log) out += entry.kind;
    return out;
  }

  void schedule_completion_at(JobId job, Time t) { schedule_on_arrival_[job] = t; }

  struct Entry {
    char kind;
    JobId job;
    Time time;
  };
  std::vector<Entry> log;

 private:
  SimEngine& engine_;
  std::map<JobId, Time> schedule_on_arrival_;
};

TEST(SimEngine, DeliversArrivalsInReleaseOrder) {
  const Instance instance =
      single_machine_instance({{3.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}});
  SimEngine engine(instance.store());
  RecordingHooks hooks(engine);
  engine.run(hooks);
  ASSERT_EQ(hooks.log.size(), 3u);
  EXPECT_DOUBLE_EQ(hooks.log[0].time, 1.0);
  EXPECT_DOUBLE_EQ(hooks.log[2].time, 3.0);
}

TEST(SimEngine, EventBeforeArrivalAtSameTime) {
  // Job 0 released at 0 schedules a completion at exactly job 1's release.
  const Instance instance = single_machine_instance({{0.0, 1.0}, {5.0, 1.0}});
  SimEngine engine(instance.store());
  RecordingHooks hooks(engine);
  hooks.schedule_completion_at(0, 5.0);
  engine.run(hooks);
  ASSERT_EQ(hooks.log.size(), 3u);
  EXPECT_EQ(hooks.log[0].kind, 'A');
  EXPECT_EQ(hooks.log[1].kind, 'E');  // completion fires before the arrival
  EXPECT_EQ(hooks.log[2].kind, 'A');
  EXPECT_DOUBLE_EQ(hooks.log[1].time, 5.0);
  EXPECT_DOUBLE_EQ(hooks.log[2].time, 5.0);
}

TEST(SimEngine, EventThenFleetThenArrivalAtSameTime) {
  // A completion, a fleet event and an arrival share t = 5: the event loop
  // fires the completion, then the fleet event, then delivers the arrival.
  const Instance instance = single_machine_instance({{0.0, 1.0}, {5.0, 1.0}});
  FleetPlan plan;
  plan.events = {{5.0, 0, FleetEventKind::kSpeedChange, 2.0}};
  SimEngine engine(instance.store(), &plan);
  RecordingHooks hooks(engine);
  hooks.schedule_completion_at(0, 5.0);
  engine.run(hooks);
  EXPECT_EQ(hooks.kinds(), "AEFA");
  for (std::size_t k = 1; k < hooks.log.size(); ++k) {
    EXPECT_DOUBLE_EQ(hooks.log[k].time, 5.0) << "entry " << k;
  }
}

// ---------------------------------------------------------------- Schedule

TEST(Schedule, LifecycleAndFlow) {
  const Instance instance = single_machine_instance({{0.0, 4.0}, {1.0, 2.0}});
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 4.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 4.0, 1.0);
  schedule.mark_completed(1, 6.0);

  EXPECT_DOUBLE_EQ(schedule.flow_time(0, instance), 4.0);
  EXPECT_DOUBLE_EQ(schedule.flow_time(1, instance), 5.0);
  EXPECT_DOUBLE_EQ(schedule.total_flow(instance), 9.0);
  EXPECT_DOUBLE_EQ(schedule.max_flow(instance), 5.0);
  EXPECT_DOUBLE_EQ(schedule.makespan(), 6.0);
  EXPECT_EQ(schedule.num_completed(), 2u);
  EXPECT_EQ(schedule.num_rejected(), 0u);
}

TEST(Schedule, RejectedFlowCountsUntilRejection) {
  const Instance instance = single_machine_instance({{0.0, 4.0}, {1.0, 2.0}});
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_rejected_running(0, 3.0);  // interrupted at 3
  schedule.mark_dispatched(1, 0);
  schedule.mark_rejected_pending(1, 2.5);

  EXPECT_DOUBLE_EQ(schedule.flow_time(0, instance), 3.0);
  EXPECT_DOUBLE_EQ(schedule.flow_time(1, instance), 1.5);
  EXPECT_DOUBLE_EQ(schedule.total_flow(instance, true), 4.5);
  EXPECT_DOUBLE_EQ(schedule.total_flow(instance, false), 0.0);
  EXPECT_EQ(schedule.num_rejected(), 2u);
}

TEST(Schedule, WeightedFlowUsesWeights) {
  const Instance instance =
      single_machine_weighted_instance({{0.0, 2.0, 3.0}, {0.0, 2.0, 1.0}});
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 2.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 2.0, 1.0);
  schedule.mark_completed(1, 4.0);
  EXPECT_DOUBLE_EQ(schedule.total_weighted_flow(instance), 3.0 * 2.0 + 1.0 * 4.0);
  EXPECT_DOUBLE_EQ(schedule.rejected_weight(instance), 0.0);
}

// ---------------------------------------------------------------- Energy

TEST(Energy, SingleJobConstantSpeed) {
  const Instance instance = single_machine_instance({{0.0, 6.0}});
  Schedule schedule(1);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 2.0);   // speed 2 => duration 3
  schedule.mark_completed(0, 3.0);
  PolynomialPower power(2.0);
  // Energy = s^2 * duration = 4 * 3.
  EXPECT_NEAR(compute_energy(schedule, instance, power), 12.0, 1e-9);
}

TEST(Energy, ParallelExecutionAddsSpeeds) {
  // Two jobs overlap on one machine for t in [1,2): profile 1 then 2 then 1.
  InstanceBuilder builder(1);
  builder.add_identical_job(0.0, 2.0);  // speed 1, [0,2)
  builder.add_identical_job(0.0, 1.0);  // speed 1, [1,2)
  const Instance instance = builder.build();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 2.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 1.0, 1.0);
  schedule.mark_completed(1, 2.0);
  PolynomialPower power(2.0);
  // [0,1): 1^2; [1,2): 2^2 => 1 + 4 = 5. NOT 1+1+1 = 3 (superlinear power).
  EXPECT_NEAR(compute_energy(schedule, instance, power), 5.0, 1e-9);
}

TEST(Energy, InterruptedJobStillConsumedEnergy) {
  const Instance instance = single_machine_instance({{0.0, 10.0}});
  Schedule schedule(1);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 2.0);
  schedule.mark_rejected_running(0, 1.5);
  PolynomialPower power(3.0);
  EXPECT_NEAR(compute_energy(schedule, instance, power), 8.0 * 1.5, 1e-9);
}

TEST(Energy, PerMachinePowerFunctions) {
  InstanceBuilder builder(2);
  builder.add_job(0.0, {1.0, 1.0});
  builder.add_job(0.0, {1.0, 1.0});
  const Instance instance = builder.build();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 1.0);
  schedule.mark_dispatched(1, 1);
  schedule.mark_started(1, 0.0, 1.0);
  schedule.mark_completed(1, 1.0);
  PolynomialPower p2(2.0), p3(3.0, 5.0);
  const std::vector<const PowerFunction*> powers{&p2, &p3};
  EXPECT_NEAR(compute_energy(schedule, instance, powers), 1.0 + 5.0, 1e-9);
}

// ---------------------------------------------------------------- Validator

Instance two_job_instance() {
  return single_machine_instance({{0.0, 3.0}, {1.0, 2.0}});
}

TEST(Validator, AcceptsFeasibleSchedule) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 3.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 3.0, 1.0);
  schedule.mark_completed(1, 5.0);
  EXPECT_TRUE(validate_schedule(schedule, instance).empty());
}

TEST(Validator, CatchesOverlap) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 3.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 2.0, 1.0);  // overlaps job 0
  schedule.mark_completed(1, 4.0);
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("overlap"), std::string::npos);
}

TEST(Validator, AllowsOverlapInParallelModel) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 3.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 2.0, 1.0);
  schedule.mark_completed(1, 4.0);
  ValidationOptions options;
  options.allow_parallel_execution = true;
  EXPECT_TRUE(validate_schedule(schedule, instance, options).empty());
}

TEST(Validator, CatchesStartBeforeRelease) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 0.5, 1.0);  // release is 1.0
  schedule.mark_completed(1, 2.5);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 2.5, 1.0);
  schedule.mark_completed(0, 5.5);
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("before release"), std::string::npos);
}

TEST(Validator, CatchesDurationMismatch) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 2.0);  // needs 3.0
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 2.0, 1.0);
  schedule.mark_completed(1, 4.0);
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("duration mismatch"), std::string::npos);
}

TEST(Validator, CatchesMissedDeadline) {
  InstanceBuilder builder(1);
  builder.add_identical_job(0.0, 2.0, 1.0, /*deadline=*/3.0);
  const Instance instance = builder.build();
  Schedule schedule(1);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 2.0, 1.0);
  schedule.mark_completed(0, 4.0);  // deadline 3
  ValidationOptions options;
  options.require_deadlines = true;
  const auto violations = validate_schedule(schedule, instance, options);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("deadline"), std::string::npos);
}

TEST(Validator, CatchesUndecidedJobs) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 3.0);
  // Job 1 left pending.
  schedule.mark_dispatched(1, 0);
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("undecided"), std::string::npos);
}

TEST(Validator, CatchesIneligibleAssignment) {
  InstanceBuilder builder(2);
  builder.add_job(0.0, {kTimeInfinity, 2.0});
  const Instance instance = builder.build();
  Schedule schedule(1);
  schedule.mark_dispatched(0, 0);  // machine 0 is ineligible
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_completed(0, 2.0);
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("ineligible"), std::string::npos);
}

TEST(Validator, RejectedRunningOverrunCaught) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 0.0, 1.0);
  schedule.mark_rejected_running(0, 5.0);  // ran 5 > p=3: should have finished
  schedule.mark_dispatched(1, 0);
  schedule.mark_rejected_pending(1, 5.0);
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("longer than its processing"), std::string::npos);
}

TEST(Validator, DurationSlackFollowsTheEndTimesRounding) {
  // At start 1e38 a p = 0.5 duration is far below one ulp, so the recorded
  // end may sit up to two ulps from start + p; three ulps is still caught.
  const auto ulps_after = [](Time t, int k) {
    for (int i = 0; i < k; ++i) t = std::nextafter(t, kTimeInfinity);
    return t;
  };
  const Instance instance = single_machine_instance({{0.0, 0.5}, {0.0, 0.5}});
  for (const int k : {0, 1, 2, 3}) {
    Schedule schedule(2);
    schedule.mark_dispatched(0, 0);
    schedule.mark_started(0, 1e38, 1.0);
    schedule.mark_completed(0, ulps_after(1e38, k));
    schedule.mark_dispatched(1, 0);
    schedule.mark_started(1, 2e38, 1.0);
    schedule.mark_rejected_running(1, ulps_after(2e38, k));
    const auto violations = validate_schedule(schedule, instance);
    if (k <= 2) {
      EXPECT_TRUE(violations.empty()) << k << " ulps: " << violations.front();
      continue;
    }
    ASSERT_EQ(violations.size(), 2u);
    EXPECT_NE(violations[0].find("duration mismatch"), std::string::npos);
    EXPECT_NE(violations[1].find("longer than its processing"),
              std::string::npos);
  }
}

TEST(Validator, AcceptsRejectionAtArrivalWithoutDispatch) {
  // Immediate-rejection policies reject before choosing a machine: the
  // record carries no machine, which is legal for kRejectedPending only.
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_rejected_pending(0, instance.job(0).release);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, instance.job(1).release, 1.0);
  schedule.mark_completed(1, instance.job(1).release +
                                 instance.processing(0, 1));
  EXPECT_TRUE(validate_schedule(schedule, instance).empty());
}

TEST(Validator, UndispatchedRejectionBeforeReleaseCaught) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  // Rejected before it was even released: impossible for an online policy.
  schedule.mark_rejected_pending(0, instance.job(0).release - 1.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, instance.job(1).release, 1.0);
  schedule.mark_completed(1, instance.job(1).release +
                                 instance.processing(0, 1));
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("rejected before release"), std::string::npos);
}

TEST(Validator, CompletedJobStillRequiresAMachine) {
  // The no-machine exemption is ONLY for rejected-pending records; a
  // "completed" job with no machine is still a violation.
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.record(0).fate = JobFate::kCompleted;
  schedule.record(0).started = true;
  schedule.record(0).end = 3.0;
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, instance.job(1).release, 1.0);
  schedule.mark_completed(1, instance.job(1).release +
                                 instance.processing(0, 1));
  const auto violations = validate_schedule(schedule, instance);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("invalid machine"), std::string::npos);
}

// Exact text of every violation class. The substring tests above survive a
// reworded message; these pin each message byte for byte, so a validator
// rewrite cannot drift the diagnostics callers and logs depend on.

using Violations = std::vector<std::string>;

/// Job 0 (release 0, p = 3) as one record on machine 0, job 1 (release 1,
/// p = 2) completed feasibly after it at [3, 5).
Schedule with_job0(const JobRecord& rec0) {
  Schedule schedule(2);
  schedule.record(0) = rec0;
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 3.0, 1.0);
  schedule.mark_completed(1, 5.0);
  return schedule;
}

JobRecord record(JobFate fate, MachineId machine, bool started, Time start,
                 Time end, Speed speed = 1.0, Time rejection_time = 0.0) {
  JobRecord rec;
  rec.fate = fate;
  rec.machine = machine;
  rec.started = started;
  rec.start = start;
  rec.end = end;
  rec.speed = speed;
  rec.rejection_time = rejection_time;
  return rec;
}

TEST(ValidatorMessages, Undecided) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(1, 0);
  EXPECT_EQ(validate_schedule(schedule, instance),
            (Violations{"job 0 (unscheduled): left undecided at end of run",
                        "job 1 (pending): left undecided at end of run"}));
}

TEST(ValidatorMessages, JobCountMismatchIsReturnedNotAborted) {
  // A schedule sized for another instance is one violation naming both
  // counts; no per-job check runs (job 0's bogus record is not reported).
  const Instance instance = two_job_instance();
  Schedule short_schedule(1);
  short_schedule.record(0).fate = JobFate::kCompleted;
  EXPECT_EQ(validate_schedule(short_schedule, instance),
            (Violations{"job count mismatch: schedule has 1 records, "
                        "instance has 2 jobs"}));
  EXPECT_EQ(validate_schedule(Schedule(3), instance),
            (Violations{"job count mismatch: schedule has 3 records, "
                        "instance has 2 jobs"}));
  EXPECT_DEATH(check_schedule(Schedule(3), instance), "job count mismatch");
}

TEST(ValidatorMessages, QueueRejections) {
  const Instance instance = two_job_instance();
  // Rejected at arrival, no machine.
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kRejectedPending, kInvalidMachine,
                                 true, 0.0, 0.0)),
                instance),
            (Violations{"job 0 (rejected-pending): queue-rejected but started"}));
  const Instance late = single_machine_instance({{2.0, 3.0}, {3.0, 2.0}});
  Schedule schedule(2);
  schedule.mark_rejected_pending(0, 1.0);
  schedule.mark_dispatched(1, 0);
  schedule.mark_rejected_pending(1, 2.5);
  EXPECT_EQ(validate_schedule(schedule, late),
            (Violations{"job 0 (rejected-pending): rejected before release",
                        "job 1 (rejected-pending): rejected before release"}));
  // Dispatched, then queue-rejected: same texts from the machine branch.
  EXPECT_EQ(validate_schedule(with_job0(record(JobFate::kRejectedPending, 0,
                                               true, 0.0, 0.0)),
                              instance),
            (Violations{"job 0 (rejected-pending): queue-rejected but started"}));
}

TEST(ValidatorMessages, MachineClasses) {
  const Instance instance = two_job_instance();
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kCompleted, 1, true, 0.0, 3.0)),
                instance),
            (Violations{"job 0 (completed): invalid machine index"}));
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kCompleted, -2, true, 0.0, 3.0)),
                instance),
            (Violations{"job 0 (completed): invalid machine index"}));
  InstanceBuilder builder(2);
  builder.add_job(0.0, {kTimeInfinity, 2.0});
  builder.add_job(1.0, {2.0, 2.0});
  const Instance restricted = builder.build();
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kCompleted, 0, true, 0.0, 2.0)),
                restricted),
            (Violations{"job 0 (completed): assigned to ineligible machine"}));
}

TEST(ValidatorMessages, ExecutionClasses) {
  const Instance instance = two_job_instance();
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kCompleted, 0, false, 0.0, 3.0)),
                instance),
            (Violations{"job 0 (completed): finished without starting"}));
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kCompleted, 0, true, 0.0, 3.0, 0.0)),
                instance),
            (Violations{"job 0 (completed): non-positive speed"}));
  EXPECT_EQ(validate_schedule(with_job0(record(JobFate::kRejectedRunning, 0,
                                               true, 2.0, 1.5, 1.0, 1.5)),
                              instance),
            (Violations{"job 0 (rejected-running): ends before it starts"}));
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kCompleted, 0, true, 0.0, 2.5)),
                instance),
            (Violations{"job 0 (completed): non-preemptive duration mismatch: "
                        "ran 2.5, needs 3"}));
  EXPECT_EQ(validate_schedule(
                with_job0(record(JobFate::kCompleted, 0, true, 0.0, 1.5, 2.0)),
                instance),
            Violations{});
  EXPECT_EQ(validate_schedule(with_job0(record(JobFate::kRejectedRunning, 0,
                                               true, 0.0, 1.0, 1.0, 2.0)),
                              instance),
            (Violations{"job 0 (rejected-running): interruption time "
                        "disagrees with end time"}));
  EXPECT_EQ(validate_schedule(with_job0(record(JobFate::kRejectedRunning, 0,
                                               true, 0.0, 3.0 + 1e-3, 1.0,
                                               3.0 + 1e-3)),
                              instance),
            (Violations{"job 0 (rejected-running): ran longer than its "
                        "processing requirement",
                        "machine 0: jobs 0 and 1 overlap ([0,3.001) vs [3,5))"}));
}

TEST(ValidatorMessages, StartedBeforeRelease) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.mark_dispatched(1, 0);
  schedule.mark_started(1, 0.25, 1.0);  // release is 1.0
  schedule.mark_completed(1, 2.25);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 2.25, 1.0);
  schedule.mark_completed(0, 5.25);
  EXPECT_EQ(validate_schedule(schedule, instance),
            (Violations{"job 1 (completed): started before release"}));
}

TEST(ValidatorMessages, DeadlineMiss) {
  InstanceBuilder builder(1);
  builder.add_identical_job(0.0, 2.0, 1.0, /*deadline=*/3.5);
  const Instance instance = builder.build();
  Schedule schedule(1);
  schedule.mark_dispatched(0, 0);
  schedule.mark_started(0, 2.0, 1.0);
  schedule.mark_completed(0, 4.0);
  ValidationOptions options;
  options.require_deadlines = true;
  EXPECT_EQ(validate_schedule(schedule, instance, options),
            (Violations{"job 0 (completed): misses deadline 3.5 (ends 4)"}));
}

TEST(ValidatorMessages, OverlapsInStartOrderPerMachine) {
  // Three jobs on machine 1, recorded out of start order, plus a clean job
  // on machine 0: every adjacent overlapping pair is named in start order.
  InstanceBuilder builder(2);
  builder.add_identical_job(0.0, 4.0);
  builder.add_identical_job(0.0, 4.0);
  builder.add_identical_job(0.0, 4.0);
  builder.add_identical_job(0.0, 1.0);
  const Instance instance = builder.build();
  Schedule schedule(4);
  const Time starts[] = {5.0, 0.0, 2.0};
  for (JobId j = 0; j < 3; ++j) {
    schedule.mark_dispatched(j, 1);
    schedule.mark_started(j, starts[j], 1.0);
    schedule.mark_completed(j, starts[j] + 4.0);
  }
  schedule.mark_dispatched(3, 0);
  schedule.mark_started(3, 0.0, 1.0);
  schedule.mark_completed(3, 1.0);
  EXPECT_EQ(validate_schedule(schedule, instance),
            (Violations{"machine 1: jobs 1 and 2 overlap ([0,4) vs [2,6))",
                        "machine 1: jobs 2 and 0 overlap ([2,6) vs [5,9))"}));
}

}  // namespace
}  // namespace osched

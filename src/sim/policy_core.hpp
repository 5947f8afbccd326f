// Shared fleet/shed/redispatch core of the online scheduling policies.
//
// Every policy in this repo follows one template: on arrival a job is
// dispatched to a machine chosen by the policy's own rule (argmin lambda_ij
// for Theorem 1, Theorem 2 and the weighted extension; least wait or least
// backlog for the baselines), each machine serves its own queue order, and
// rejections fire on policy-specific counters. Everything AROUND that rule
// — fleet membership, fault re-dispatch under a rejection budget, overload
// sheds, start-time speed resolution, completions — is identical across
// policies and lives here once.
//
// Every policy reads job data from one store type,
// `service::StreamingJobStore`: the store a streaming session fills, or a
// batch run's copy of its Instance's store. Each policy is a template over
//   Rec — where decisions are recorded: the batch `Schedule`, or the
//         session's windowed record store. Must provide the mark_*
//         mutation surface of Schedule.
// A policy holds no event loop: it reacts to on_arrival/on_event/on_fleet
// calls from whatever driver owns the clock (SimEngine for batch runs, a
// SchedulerSession for submit/advance/drain streaming), scheduling its own
// completions into the EventQueue it was handed. Identical call sequences
// produce bit-identical decisions regardless of the driver.
//
// PolicyCore is a CRTP base: it reaches the policy's rules through a static
// cast, so the arrival and completion paths gain no virtual call. A policy
// derives as `final : public PolicyCore<Policy, Rec>`, befriends the core,
// and supplies
//   MachineId pick(JobId j, Time now, double* score)
//       its dispatch rule over ACTIVE eligible machines (kInvalidMachine when
//       the fleet mask leaves none); `score` receives the winning value
//   void enqueue(MachineId i, JobId j)
//       queue j on i, keyed by the CURRENT effective processing time
//   void take_queue(std::size_t i, std::vector<JobId>& out)
//       append i's queued ids in service order and leave the queue empty
//   void for_each_pending(fn)      fn(machine, id, queued p) per queued job
//   void erase_pending(std::size_t i, JobId id, Work p)
//   void start_next(MachineId i, Time now)
//       start i's next queued job (through start_job/launch) if any
// and optionally overrides (the defaults below do nothing)
//   reset_machine(i)               clear i's rule counters after a fail
//   on_rejected(j, now)            a fault/forced rejection was recorded
//   on_completed(j, now)           a completion was recorded
//   on_machine_change(i)           a fleet event just changed i's
//                                  availability or multiplier
//   book_charged_shed(i, id, p, now)  accounting for an ε-charged shed
//
// Determinism invariants the hooks must keep (the committed baselines and
// the batch == streamed walls depend on them):
//  * take_queue returns orphans in the queue's own service order (SPT or
//    density), which fixes the order in which they are re-decided;
//  * pending keys keep their dispatch-time effective p — a speed change
//    never re-keys a live queue — while the run itself resolves its
//    duration at START from the then-current multiplier;
//  * shed victims are a total order over (weight, queued p, id), so the
//    victim never depends on the order for_each_pending visits machines.
#pragma once

#include <vector>

#include "service/job_store.hpp"
#include "sim/engine.hpp"
#include "util/dispatch_heap.hpp"

namespace osched {

template <class Derived, class Rec>
class PolicyCore : public SimulationHooks {
 public:
  /// Membership and speed changes. A kFail orphans the machine's queue and
  /// decides its running job; a kDrain only masks the machine out of
  /// dispatch (its running job and queue complete normally through
  /// start_next); a kSpeedChange applies to jobs STARTED from now on — the
  /// running job finishes at its start-time speed, so no event is
  /// rescheduled, and pending keys keep their dispatch-time effective p
  /// (re-keying would reorder queues mid-run and break the batch ==
  /// streamed equivalence the tie order guarantees).
  /// The policy hears of every event through on_machine_change before a
  /// kFail re-decides anything, so its per-machine dispatch masks already
  /// reflect the event when the orphans are re-dispatched.
  void on_fleet(const FleetEvent& event, Time now) override {
    const bool failed = fleet_.apply(event);
    derived().on_machine_change(static_cast<std::size_t>(event.machine));
    if (failed) handle_fail(event.machine, now);
  }

  void on_event(const SimEvent& event, Time now) override {
    // Only completions are scheduled.
    const auto i = static_cast<std::size_t>(event.machine);
    OSCHED_CHECK_EQ(running_[i], event.job);
    rec_.mark_completed(event.job, now);
    derived().on_completed(event.job, now);
    running_[i] = kInvalidJob;
    derived().start_next(event.machine, now);
  }

  /// Overload shed (see SimulationHooks): rejects the lowest-value pending
  /// job — smallest weight, ties to largest queued p, then largest id —
  /// across every machine. Outside every policy's rule counters and
  /// rejection budget; the caller accounts the shed.
  JobId on_shed(Time now) override {
    std::size_t victim_machine = 0;
    JobId victim = kInvalidJob;
    Work victim_p = 0.0;
    Weight victim_weight = 0.0;
    derived().for_each_pending([&](std::size_t i, JobId id, Work p) {
      const Weight w = store_.job(id).weight;
      if (victim == kInvalidJob || w < victim_weight ||
          (w == victim_weight &&
           (p > victim_p || (p == victim_p && id > victim)))) {
        victim = id;
        victim_p = p;
        victim_weight = w;
        victim_machine = i;
      }
    });
    return evict(victim_machine, victim, victim_p, now);
  }

  const FleetStats& fleet_stats() const { return fleet_.stats; }

 protected:
  /// `base_speed` is the global speed every machine runs at before fleet
  /// multipliers (!= 1 only for the speed-augmented baseline).
  PolicyCore(const service::StreamingJobStore& store, Rec& rec,
             EventQueue& events, const FleetPlan& plan,
             double base_speed = 1.0)
      : store_(store),
        rec_(rec),
        events_(events),
        base_speed_(base_speed),
        speed_is_one_(base_speed == 1.0) {
    const std::size_t m = store.num_machines();
    fleet_.init(m, plan);
    fleet_speed_ = fleet_.has_speed_events();
    running_.assign(m, kInvalidJob);
    running_end_.assign(m, 0.0);
    completion_event_.assign(m, 0);
  }

  // ---- default (no-op) optional hooks ----
  void reset_machine(std::size_t /*i*/) {}
  void on_rejected(JobId /*j*/, Time /*now*/) {}
  void on_completed(JobId /*j*/, Time /*now*/) {}
  void on_machine_change(std::size_t /*i*/) {}
  void book_charged_shed(std::size_t /*i*/, JobId /*id*/, Work /*p*/,
                         Time /*now*/) {}

  /// p_ij in wall-clock terms under the machine's CURRENT multiplier and the
  /// base speed. Exactly p when both are 1 (p / 1.0 == p, but the division
  /// is skipped anyway).
  Work effective_processing(MachineId i, JobId j) const {
    return effective_of(i, store_.processing_unchecked(i, j));
  }

  /// effective_processing for a raw p the caller already holds — a
  /// processing_row entry, which equals processing_unchecked bit for bit on
  /// every backend — so a row scan pays no per-machine store lookup. Same
  /// operations in the same order, hence the same doubles.
  Work effective_of(MachineId i, Work p) const {
    if (!fleet_speed_) return speed_is_one_ ? p : p / base_speed_;
    const double s =
        base_speed_ * fleet_.speed_multiplier(static_cast<std::size_t>(i));
    return s == 1.0 ? p : p / s;
  }

  /// Starts `j` on `machine`. The queued p froze the DISPATCH-time effective
  /// processing time (queue-order stability); the run itself executes at
  /// the START-time speed — a speed change between dispatch and start
  /// re-resolves the duration here, and the recorded speed keeps the
  /// validator's p/speed occupancy check exact.
  void start_job(MachineId machine, JobId j, Work queued_p, Time now) {
    if (!fleet_speed_) {
      launch(machine, j, now, base_speed_, now + queued_p);
      return;
    }
    const double s =
        base_speed_ * fleet_.speed_multiplier(static_cast<std::size_t>(machine));
    const Work p = store_.processing_unchecked(machine, j);
    launch(machine, j, now, s, now + (s == 1.0 ? p : p / s));
  }

  /// Records the start and schedules the completion at `end`.
  void launch(MachineId machine, JobId j, Time now, Speed speed, Time end) {
    const auto i = static_cast<std::size_t>(machine);
    running_[i] = j;
    running_end_[i] = end;
    rec_.mark_started(j, now, speed);
    completion_event_[i] = events_.schedule(end, machine, j);
  }

  /// Forced rejection: no active eligible machine can take `j` — the fleet
  /// mask leaves none, or every candidate's score overflows to +inf.
  /// Outside the rule counters; consumes fault budget while any remains but
  /// is never blocked by exhaustion.
  void force_reject(JobId j, Time now, bool was_running) {
    if (was_running) {
      rec_.mark_rejected_running(j, now);
    } else {
      rec_.mark_rejected_pending(j, now);
    }
    derived().on_rejected(j, now);
    fleet_.note_forced_rejection();
  }

  /// ε-charged shed victim: the job Rule 2 would pick, generalized across
  /// machines — the globally LARGEST queued effective processing time,
  /// ties to the largest id. The policy books it through book_charged_shed
  /// before it leaves the queue.
  JobId shed_largest(Time now) {
    std::size_t victim_machine = 0;
    JobId victim = kInvalidJob;
    Work victim_p = 0.0;
    derived().for_each_pending([&](std::size_t i, JobId id, Work p) {
      if (victim == kInvalidJob || p > victim_p ||
          (p == victim_p && id > victim)) {
        victim = id;
        victim_p = p;
        victim_machine = i;
      }
    });
    if (victim != kInvalidJob) {
      derived().book_charged_shed(victim_machine, victim, victim_p, now);
    }
    return evict(victim_machine, victim, victim_p, now);
  }

  /// Reference dispatch (DispatchMode::kLinearScan, the oracle of
  /// tests/dispatch_index_test.cpp): exact lambda for every ACTIVE eligible
  /// machine in ascending id order; strict-less keeps the smallest id on
  /// ties. Returns kInvalidMachine when no candidate has a finite score (the
  /// fleet mask leaves none, or every score overflowed).
  template <class LambdaFn>
  MachineId linear_argmin(JobId j, const LambdaFn& lambda_of,
                          double* best_lambda_out) const {
    const auto eligible = store_.eligible_machines(j);
    OSCHED_CHECK(!eligible.empty()) << "job " << j << " has no eligible machine";
    double best_lambda = kTimeInfinity;
    MachineId best_machine = kInvalidMachine;
    for (const MachineId machine : eligible) {
      if (!fleet_.active(static_cast<std::size_t>(machine))) continue;
      const double lambda = lambda_of(machine);
      if (lambda < best_lambda) {
        best_lambda = lambda;
        best_machine = machine;
      }
    }
    *best_lambda_out = best_lambda;
    return best_machine;
  }

  /// Indexed dispatch: `bound_of(i)` for every active eligible machine, the
  /// argmin-bound machine seeds the incumbent, and the rest are visited
  /// best-first through the (bound, id) heap until the next bound exceeds
  /// the incumbent lambda. As long as a bound never exceeds the rounded
  /// exact lambda, a pruned machine can never be the lexicographic
  /// (lambda, id) argmin, so the result is linear_argmin's, bit for bit.
  template <class BoundFn, class LambdaFn>
  MachineId best_first_argmin(JobId j, const BoundFn& bound_of,
                              const LambdaFn& lambda_of,
                              double* best_lambda_out) {
    const auto eligible = store_.eligible_machines(j);
    const std::size_t count = eligible.size();
    OSCHED_CHECK(count > 0) << "job " << j << " has no eligible machine";
    if (bounds_.size() < count) bounds_.resize(count);

    std::size_t seed_k = 0;
    double seed_lb = kTimeInfinity;
    for (std::size_t k = 0; k < count; ++k) {
      const auto i = static_cast<std::size_t>(eligible.first[k]);
      if (!fleet_.active(i)) {
        bounds_[k] = kTimeInfinity;
        continue;
      }
      bounds_[k] = bound_of(i);
      if (bounds_[k] < seed_lb) {
        seed_lb = bounds_[k];
        seed_k = k;
      }
    }

    const MachineId seed_machine = eligible.first[seed_k];
    if (!fleet_.active(static_cast<std::size_t>(seed_machine))) {
      // Every eligible machine is masked: the reference scan settles it
      // (returns kInvalidMachine, the caller force-rejects).
      return linear_argmin(j, lambda_of, best_lambda_out);
    }
    double best_lambda = lambda_of(seed_machine);
    MachineId best_machine = seed_machine;

    heap_.reset();
    for (std::size_t k = 0; k < count; ++k) {
      if (k == seed_k || bounds_[k] > best_lambda) continue;
      heap_.push(bounds_[k], static_cast<std::uint32_t>(eligible.first[k]));
    }
    while (!heap_.empty()) {
      const auto entry = heap_.pop_min();
      if (entry.key > best_lambda) break;
      const auto machine = static_cast<MachineId>(entry.id);
      const double lambda = lambda_of(machine);
      if (lambda < best_lambda ||
          (lambda == best_lambda && machine < best_machine)) {
        best_lambda = lambda;
        best_machine = machine;
      }
    }
    *best_lambda_out = best_lambda;
    return best_machine;
  }

  const service::StreamingJobStore& store_;
  Rec& rec_;
  EventQueue& events_;
  FleetState fleet_;
  double base_speed_ = 1.0;
  bool speed_is_one_ = true;
  bool fleet_speed_ = false;  ///< the plan scripts kSpeedChange events

  // ---- per-machine run state (indexed by machine id) ----
  std::vector<JobId> running_;
  std::vector<Time> running_end_;
  std::vector<std::uint64_t> completion_event_;

  // ---- dispatch scratch, reused across arrivals ----
  util::DispatchHeap heap_;
  std::vector<double> bounds_;  ///< best_first_argmin's per-candidate bounds

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }

  JobId evict(std::size_t machine, JobId victim, Work p, Time now) {
    if (victim == kInvalidJob) return kInvalidJob;
    derived().erase_pending(machine, victim, p);
    rec_.mark_rejected_pending(victim, now);
    return victim;
  }

  /// The machine just went down (fleet_ already reflects it): orphan the
  /// queue, decide the killed running job (budget shed, or restart from
  /// scratch — non-preemptive work is lost), then re-decide every orphan
  /// against the surviving fleet in the queue's service order.
  void handle_fail(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    orphans_.clear();
    derived().take_queue(i, orphans_);

    const JobId killed = running_[i];
    if (killed != kInvalidJob) {
      events_.cancel(completion_event_[i]);
      running_[i] = kInvalidJob;
      if (fleet_.shed_killed_running() && fleet_.try_spend_budget()) {
        rec_.mark_rejected_running(killed, now);
        derived().on_rejected(killed, now);
        ++fleet_.stats.fault_rejections;
      } else {
        redecide(killed, now, /*was_running=*/true);
      }
    }
    derived().reset_machine(i);

    for (const JobId j : orphans_) redecide(j, now, /*was_running=*/false);
  }

  /// Re-decides one orphan: the policy's normal dispatch rule restricted to
  /// active machines, or a forced rejection when nothing can take it.
  /// Skips the rule counters and any arrival-time accounting (an admission
  /// decision is never revisited — only the fleet can force a shed here).
  void redecide(JobId j, Time now, bool was_running) {
    double score = 0.0;
    const MachineId target = derived().pick(j, now, &score);
    if (target == kInvalidMachine) {
      force_reject(j, now, was_running);
      return;
    }
    rec_.mark_requeued(j, target);  // resets `started` for a killed runner
    derived().enqueue(target, j);
    ++fleet_.stats.redispatched;
    if (running_[static_cast<std::size_t>(target)] == kInvalidJob) {
      derived().start_next(target, now);
    }
  }

  std::vector<JobId> orphans_;  ///< handle_fail scratch
};

}  // namespace osched

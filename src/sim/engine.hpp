// Online simulation driver.
//
// Merges the instance's arrival sequence with the scheduler's own future
// events (completions, wakeups) and delivers them in time order. At equal
// times, scheduled events fire BEFORE arrivals: a job arriving exactly when
// the running job completes sees an idle machine, which matches the paper's
// convention that a job counts as "dispatched during the execution of k"
// only at times strictly inside k's execution window.
//
// SimEngine reads arrivals from the service::StreamingJobStore every
// policy reads (service/job_store.hpp); only job(j).release and num_jobs()
// are touched. run_batch is the one batch driver: every public run_*
// entry point and api::run drive their policy through it.
#pragma once

#include <utility>

#include "instance/instance.hpp"
#include "service/job_store.hpp"
#include "sim/fleet.hpp"
#include "sim/schedule.hpp"
#include "util/event_queue.hpp"

namespace osched {

class SimulationHooks {
 public:
  virtual ~SimulationHooks() = default;

  /// A new job is released. The scheduler must dispatch (or reject) it.
  virtual void on_arrival(JobId job, Time now) = 0;

  /// A scheduler-scheduled event (typically a completion) fires.
  virtual void on_event(const SimEvent& event, Time now) = 0;

  /// A fleet-membership change fires (see sim/fleet.hpp). The default
  /// aborts: hooks only receive these when driven with a non-empty
  /// FleetPlan, and every shipped policy handles them through PolicyCore
  /// (sim/policy_core.hpp). A kFail may re-dispatch or reject orphaned jobs
  /// synchronously.
  virtual void on_fleet(const FleetEvent& event, Time now) {
    (void)now;
    OSCHED_CHECK(false) << "policy does not handle fleet event "
                        << to_string(event.kind) << " for machine "
                        << event.machine;
  }

  /// Load-shed request from an overloaded driver (the saturated-window case
  /// of service::SessionOptions — see scheduler_session.hpp): reject the
  /// lowest-value PENDING (dispatched, not yet started) job and return its
  /// id, or kInvalidJob when nothing is pending. Value order is uniform
  /// across policies so shedding stays a deterministic function of the
  /// accepted sequence: smallest weight first, ties to the largest
  /// remaining processing time, then the largest id. The default aborts:
  /// only drivers configured with a live-window cap ever call this.
  virtual JobId on_shed(Time now) {
    (void)now;
    OSCHED_CHECK(false) << "policy does not support load shedding";
    return kInvalidJob;
  }

  /// ε-charged load shed (service::ShedPolicy::kEpsilonCharged): reject one
  /// pending job AND book it into the policy's own rejection accounting as
  /// if the paper's Rule 2 had fired — so the eviction is covered by the
  /// same charging argument as an algorithmic rejection rather than sitting
  /// outside the analysis. Theorem 1 overrides this with the Rule-2-style
  /// victim (globally largest queued effective processing time, ties to
  /// the largest id) and extends its dual accounting; policies without a
  /// rejection analysis inherit this fallback to the fixed on_shed rule
  /// (the derived budget still applies — see SchedulerSession::make_room).
  /// Same contract as on_shed otherwise: returns the victim id, or
  /// kInvalidJob when nothing is pending anywhere.
  virtual JobId on_shed_charged(Time now) { return on_shed(now); }

  /// Rejections the policy has already charged against the paper's 2εn
  /// rejection budget (Rule 1 + Rule 2 for Theorem 1 and the weighted
  /// extension, the ε-budgeted arrivals for Theorem 2 and the immediate-
  /// rejection baseline). Forced fleet rejections and overload sheds are
  /// NOT included — the session accounts sheds itself and fault rejections
  /// sit outside the guarantee. Baselines without rejection machinery
  /// report 0, making the whole derived budget available to sheds.
  virtual std::size_t charged_rejections() const { return 0; }
};

/// The one merge of scheduler events with fleet-plan events. It owns the
/// event queue, the fleet cursor and the clock; SimEngine (batch) and
/// service::SchedulerSession (streaming) both drive it, so the two deliver
/// identical call sequences by construction.
///
/// Tie order at equal timestamps: scheduler events, then fleet events,
/// then arrivals. Events-before-arrivals matches the paper's convention
/// (see the header comment); fleet-before-arrivals means a job arriving
/// the instant a machine fails is decided against the post-fail fleet,
/// which is the only order under which "never dispatch to a down machine"
/// can hold. Drivers keep the arrival side of that order by calling
/// fire_until(release) before delivering an arrival.
class EventLoop {
 public:
  /// `plan` (optional, not owned, must outlive the loop) adds fleet
  /// membership events to the merge.
  explicit EventLoop(const FleetPlan* plan = nullptr) : plan_(plan) {}

  EventQueue& events() { return events_; }
  Time now() const { return now_; }

  /// Fires every scheduler event and fleet event due at or before t, in
  /// time order. The clock follows the fired events and never passes t.
  /// Statically typed so the policy's handlers inline into the loop.
  template <class Hooks>
  void fire_until(Time t, Hooks& hooks) {
    const std::size_t nf = plan_ ? plan_->events.size() : 0;
    for (;;) {
      const Time fleet_time =
          next_fleet_ < nf ? plan_->events[next_fleet_].time : kTimeInfinity;
      const auto event_time = events_.peek_time();
      if (event_time.has_value() && *event_time <= t &&
          *event_time <= fleet_time) {
        const SimEvent event = events_.pop();
        OSCHED_CHECK_GE(event.time, now_ - kTimeEps) << "event in the past";
        now_ = std::max(now_, event.time);
        hooks.on_event(event, now_);
      } else if (next_fleet_ < nf && fleet_time <= t) {
        const FleetEvent& event = plan_->events[next_fleet_];
        now_ = std::max(now_, event.time);
        hooks.on_fleet(event, now_);
        ++next_fleet_;
      } else {
        return;
      }
    }
  }

  /// Moves the clock to t — an arrival's release, or a session's advance()
  /// target — once fire_until(t) has fired everything due by then.
  void advance_clock(Time t) {
    OSCHED_CHECK_GE(t, now_ - kTimeEps) << "arrival in the past";
    now_ = std::max(now_, t);
  }

 private:
  const FleetPlan* plan_ = nullptr;
  std::size_t next_fleet_ = 0;
  EventQueue events_;
  Time now_ = 0.0;
};

class SimEngine : public EventLoop {
 public:
  explicit SimEngine(const service::StreamingJobStore& store,
                     const FleetPlan* plan = nullptr)
      : EventLoop(plan), store_(store) {}

  /// Runs to quiescence: all arrivals delivered, fleet plan exhausted, and
  /// the event queue drained.
  template <class Hooks>
  void run(Hooks& hooks) {
    const std::size_t n = store_.num_jobs();
    for (std::size_t j = 0; j < n; ++j) {
      const Time release = store_.job(static_cast<JobId>(j)).release;
      fire_until(release, hooks);
      advance_clock(release);
      hooks.on_arrival(static_cast<JobId>(j), now());
    }
    fire_until(kTimeInfinity, hooks);
  }

 private:
  const service::StreamingJobStore& store_;
};

/// Runs `Policy` (recording into a Schedule) over a copy of the instance's
/// store to quiescence, under options.fleet, and returns
/// read(policy, schedule) — the caller moves the schedule out and reads
/// whatever counters it reports.
template <class Policy, class Options, class Read>
auto run_batch(const Instance& instance, const Options& options, Read&& read) {
  instance.check_valid();
  const service::StreamingJobStore store(instance.store());
  SimEngine engine(store, &options.fleet);
  Schedule schedule(store.num_jobs());
  Policy policy(store, schedule, engine.events(), options);
  engine.run(policy);
  return std::forward<Read>(read)(policy, schedule);
}

}  // namespace osched

// Dynamic fleet membership: machines join, drain and fail mid-run.
//
// A FleetPlan is a time-ordered script of membership changes delivered to
// the policy by whatever owns the clock (SimEngine for batch runs, a
// SchedulerSession for streaming) through SimulationHooks::on_fleet — the
// same delivery discipline as completions, so a batch run and a streamed
// run of the same plan make bit-identical decisions. Semantics:
//
//  * kJoin: the machine (re-)enters the fleet and becomes a dispatch
//    candidate again. Machines listed in FleetPlan::initially_down start
//    outside the fleet and typically join later.
//  * kDrain: the machine stops accepting NEW dispatches; its running job
//    and already-queued jobs complete normally. A later kJoin cancels the
//    drain.
//  * kFail: the machine dies instantly. The running job's execution is lost
//    (non-preemptive model: partial work cannot be resumed) and every
//    queued job is orphaned. The policy must re-decide each orphan NOW:
//    re-dispatch it through its normal dispatch rule restricted to active
//    machines, or reject it. See the budget rules below.
//  * kSpeedChange: the machine's speed multiplier becomes `speed` (finite,
//    > 0; 1.0 restores nominal speed). The multiplier applies to jobs
//    STARTED at or after the event — a non-preemptive job in flight
//    finishes at its start-time speed, so delivery order alone (the same
//    completions -> fleet -> arrivals tie order) keeps batch and streamed
//    runs bit-identical. Legal in any membership state: a down machine's
//    multiplier can change and takes effect when it rejoins.
//
// Rejection budget (the constrained-rejection framing of Davies–Guruswami–
// Ren, arXiv 2511.00184, turned into an operator knob): rejection_budget is
// the number of jobs the scheduler may shed BECAUSE of faults.
//  * While budget remains and shed_killed_running is set, a killed running
//    job is rejected rather than restarted (its work is lost; restarting
//    delays everything queued behind it).
//  * An orphan (or a new arrival) with NO active eligible machine is
//    force-rejected — it cannot run anywhere. Forced rejections consume
//    budget while any remains but are never blocked by exhaustion: the
//    scheduler degrades, it does not deadlock or crash.
//  * Everything else is re-dispatched. All of it is counted in FleetStats.
//
// The paper's dual certificates (Theorem 1's lambda/beta fitting) assume a
// fixed machine set; under a non-empty FleetPlan the certified lower bound
// is NOT a valid OPT bound and callers must treat it as diagnostic only.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace osched {

enum class FleetEventKind : std::uint8_t {
  kJoin = 0,
  kDrain = 1,
  kFail = 2,
  kSpeedChange = 3,
};

const char* to_string(FleetEventKind kind);

struct FleetEvent {
  Time time = 0.0;
  MachineId machine = kInvalidMachine;
  FleetEventKind kind = FleetEventKind::kJoin;
  /// kSpeedChange only: the machine's new speed multiplier (finite, > 0).
  /// Ignored by the membership kinds.
  double speed = 1.0;
};

struct FleetPlan {
  /// Membership changes, non-decreasing in time (ties: vector order). At
  /// equal timestamps the drivers deliver internal events (completions)
  /// first, then fleet events, then arrivals.
  std::vector<FleetEvent> events;
  /// Machines outside the fleet at t = 0 (they may kJoin later).
  std::vector<MachineId> initially_down;
  /// Fault-shed allowance; see the header comment.
  std::size_t rejection_budget = 0;
  /// While budget remains, reject a killed running job instead of
  /// restarting it from scratch on a surviving machine.
  bool shed_killed_running = true;

  bool empty() const { return events.empty() && initially_down.empty(); }

  /// Structural check against a fleet of `num_machines`: machine ids in
  /// range, times finite/non-negative/sorted, transitions consistent (no
  /// join of an active machine, no fail/drain of a down one, no duplicate
  /// initially_down entry). Empty string = valid.
  std::string validate(std::size_t num_machines) const;
};

/// Operational counters every policy reports identically (surfaced through
/// api::RunSummary::fleet and the per-family result structs).
struct FleetStats {
  std::size_t joins = 0;
  std::size_t drains = 0;
  std::size_t fails = 0;
  /// Orphans re-queued onto surviving machines after a kFail.
  std::size_t redispatched = 0;
  /// Jobs shed because of faults (budget sheds + forced rejections).
  std::size_t fault_rejections = 0;
  /// Subset of fault_rejections with no active eligible machine at decision
  /// time — these fire even with an exhausted budget.
  std::size_t forced_rejections = 0;
  /// Budget units consumed (never exceeds the plan's rejection_budget).
  std::size_t budget_spent = 0;
  /// kSpeedChange events applied (throttles + recoveries).
  std::size_t speed_changes = 0;
  /// Speed changes that set a multiplier < 1 (the machine slowed down).
  std::size_t throttles = 0;
  /// Speed changes that set a multiplier >= 1 (back to or above nominal).
  std::size_t recoveries = 0;
  /// Smallest multiplier ever applied; 1.0 when no speed event fired.
  double min_speed_multiplier = 1.0;
};

enum class MachineAvail : std::uint8_t { kActive = 0, kDraining = 1, kDown = 2 };

/// Per-policy fleet bookkeeping: availability array, the inactive-machine
/// list the dispatch paths use to mask candidates out of the float bound
/// sweep (O(#inactive) overwrites, zero cost while the fleet is whole), and
/// the budget/stat counters. Every policy owns one through PolicyCore
/// (sim/policy_core.hpp), whose on_fleet feeds it via apply(). Every query
/// is branch-cheap and, when the plan is empty, `active()` is a single
/// constant-true short-circuit so fleet support never taxes the
/// static-fleet hot paths.
class FleetState {
 public:
  void init(std::size_t num_machines, const FleetPlan& plan) {
    enabled_ = !plan.empty();
    num_machines_ = num_machines;
    budget_left_ = plan.rejection_budget;
    shed_killed_running_ = plan.shed_killed_running;
    if (!enabled_) return;
    const std::string problems = plan.validate(num_machines);
    OSCHED_CHECK(problems.empty()) << "invalid fleet plan: " << problems;
    avail_.assign(num_machines, MachineAvail::kActive);
    inactive_pos_.assign(num_machines, 0);
    for (const MachineId i : plan.initially_down) {
      avail_[static_cast<std::size_t>(i)] = MachineAvail::kDown;
      inactive_add(static_cast<std::size_t>(i));
    }
    // Speed tracking is allocated only when the plan scripts speed changes,
    // so membership-only plans keep multiplier queries constant-foldable.
    for (const FleetEvent& event : plan.events) {
      if (event.kind == FleetEventKind::kSpeedChange) {
        speed_enabled_ = true;
        break;
      }
    }
    if (speed_enabled_) {
      mult_.assign(num_machines, 1.0);
      scaled_pos_.assign(num_machines, 0);
    }
  }

  bool enabled() const { return enabled_; }
  bool active(std::size_t i) const {
    return !enabled_ || avail_[i] == MachineAvail::kActive;
  }
  /// Machines currently kActive (every machine without a plan).
  std::size_t num_active() const {
    return num_machines_ - inactive_list_.size();
  }
  /// Machines currently kDraining or kDown (the dispatch mask).
  const std::vector<std::uint32_t>& inactive_list() const {
    return inactive_list_;
  }

  /// True when the plan scripts any kSpeedChange event — policies branch on
  /// this once so speed-free plans keep their exact old dispatch paths.
  bool has_speed_events() const { return speed_enabled_; }
  /// The machine's current speed multiplier (1.0 without speed events).
  double speed_multiplier(std::size_t i) const {
    return !speed_enabled_ ? 1.0 : mult_[i];
  }
  bool any_speed_scaled() const {
    return speed_enabled_ && !scaled_list_.empty();
  }
  /// Machines whose multiplier currently differs from 1 — the O(#scaled)
  /// fixup list for the dispatch index's bound sweep.
  const std::vector<std::uint32_t>& scaled_list() const {
    return scaled_list_;
  }

  /// Applies one plan event to the availability/speed state and counts it
  /// in `stats`. Returns true for a kFail: the policy must then orphan the
  /// machine's queue and decide its running job.
  bool apply(const FleetEvent& event) {
    const std::size_t i = checked(event.machine);
    switch (event.kind) {
      case FleetEventKind::kJoin:
        OSCHED_CHECK(avail_[i] != MachineAvail::kActive)
            << "machine " << event.machine << " joined while active";
        avail_[i] = MachineAvail::kActive;
        inactive_remove(i);
        ++stats.joins;
        return false;
      case FleetEventKind::kDrain:
        OSCHED_CHECK(avail_[i] == MachineAvail::kActive)
            << "machine " << event.machine << " drained while not active";
        avail_[i] = MachineAvail::kDraining;
        inactive_add(i);
        ++stats.drains;
        return false;
      case FleetEventKind::kFail:
        OSCHED_CHECK(avail_[i] != MachineAvail::kDown)
            << "machine " << event.machine << " failed while already down";
        if (avail_[i] == MachineAvail::kActive) inactive_add(i);
        avail_[i] = MachineAvail::kDown;
        ++stats.fails;
        return true;
      case FleetEventKind::kSpeedChange:
        set_speed(i, event.speed);
        return false;
    }
    return false;
  }

  /// Consumes one budget unit if any remains.
  bool try_spend_budget() {
    if (budget_left_ == 0) return false;
    --budget_left_;
    ++stats.budget_spent;
    return true;
  }
  bool shed_killed_running() const { return shed_killed_running_; }

  /// Bookkeeping for a rejection with no active eligible machine.
  void note_forced_rejection() {
    ++stats.fault_rejections;
    ++stats.forced_rejections;
    try_spend_budget();
  }

  FleetStats stats;

 private:
  std::size_t checked(MachineId machine) const {
    OSCHED_CHECK(enabled_) << "fleet event without a fleet plan";
    OSCHED_CHECK(machine >= 0 &&
                 static_cast<std::size_t>(machine) < avail_.size())
        << "fleet event for machine " << machine << " of " << avail_.size();
    return static_cast<std::size_t>(machine);
  }

  void set_speed(std::size_t i, double multiplier) {
    OSCHED_CHECK(speed_enabled_) << "speed change without a speed plan";
    OSCHED_CHECK(multiplier > 0.0 &&
                 multiplier <= std::numeric_limits<double>::max())
        << "machine " << i << " speed multiplier " << multiplier
        << " invalid";
    const bool was_scaled = mult_[i] != 1.0;
    mult_[i] = multiplier;
    const bool is_scaled = multiplier != 1.0;
    if (is_scaled && !was_scaled) scaled_add(i);
    if (!is_scaled && was_scaled) scaled_remove(i);
    ++stats.speed_changes;
    if (multiplier < 1.0) {
      ++stats.throttles;
    } else {
      ++stats.recoveries;
    }
    if (multiplier < stats.min_speed_multiplier) {
      stats.min_speed_multiplier = multiplier;
    }
  }

  // Swap-remove list with a position map, the same shape as the policies'
  // live-machine list; order never affects outcomes (it only masks).
  void inactive_add(std::size_t i) {
    inactive_pos_[i] = static_cast<std::uint32_t>(inactive_list_.size()) + 1;
    inactive_list_.push_back(static_cast<std::uint32_t>(i));
  }
  void inactive_remove(std::size_t i) {
    const std::uint32_t pos = inactive_pos_[i] - 1;
    const std::uint32_t last = inactive_list_.back();
    inactive_list_[pos] = last;
    inactive_pos_[last] = pos + 1;
    inactive_list_.pop_back();
    inactive_pos_[i] = 0;
  }
  void scaled_add(std::size_t i) {
    scaled_pos_[i] = static_cast<std::uint32_t>(scaled_list_.size()) + 1;
    scaled_list_.push_back(static_cast<std::uint32_t>(i));
  }
  void scaled_remove(std::size_t i) {
    const std::uint32_t pos = scaled_pos_[i] - 1;
    const std::uint32_t last = scaled_list_.back();
    scaled_list_[pos] = last;
    scaled_pos_[last] = pos + 1;
    scaled_list_.pop_back();
    scaled_pos_[i] = 0;
  }

  std::size_t num_machines_ = 0;
  bool enabled_ = false;
  bool speed_enabled_ = false;
  bool shed_killed_running_ = true;
  std::size_t budget_left_ = 0;
  std::vector<MachineAvail> avail_;
  std::vector<std::uint32_t> inactive_list_;
  std::vector<std::uint32_t> inactive_pos_;
  // Exact speed multipliers plus the swap-remove scaled-machine list (same
  // shape as the inactive list; order never affects outcomes).
  std::vector<double> mult_;
  std::vector<std::uint32_t> scaled_list_;
  std::vector<std::uint32_t> scaled_pos_;
};

}  // namespace osched

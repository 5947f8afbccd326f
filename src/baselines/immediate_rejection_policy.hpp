// Immediate-rejection policy as a resumable state machine over the job
// store (see immediate_rejection.hpp for the Lemma 1 context and the batch
// entry point, and sim/policy_core.hpp for the store/Rec contract and the
// shared fleet/shed protocol).
#pragma once

#include <limits>
#include <set>

#include "baselines/immediate_rejection.hpp"
#include "sim/policy_core.hpp"

namespace osched {

namespace immediate_rejection_detail {

struct SptKey {
  Work p;
  Time r;
  JobId id;
  bool operator<(const SptKey& other) const {
    if (p != other.p) return p < other.p;
    if (r != other.r) return r < other.r;
    return id < other.id;
  }
};

}  // namespace immediate_rejection_detail

template <class Rec>
class ImmediateRejectionPolicy final
    : public PolicyCore<ImmediateRejectionPolicy<Rec>, Rec> {
  using SptKey = immediate_rejection_detail::SptKey;
  using Core = PolicyCore<ImmediateRejectionPolicy, Rec>;
  friend Core;
  using Core::effective_processing;
  using Core::fleet_;
  using Core::rec_;
  using Core::running_;
  using Core::running_end_;
  using Core::store_;

 public:
  ImmediateRejectionPolicy(const service::StreamingJobStore& store, Rec& rec,
                           EventQueue& events,
                           const ImmediateRejectionOptions& options)
      : Core(store, rec, events, options.fleet),
        options_(options),
        pending_(store.num_machines()) {
    OSCHED_CHECK_GT(options.eps, 0.0);
    OSCHED_CHECK_LT(options.eps, 1.0);
    OSCHED_CHECK_GE(options.patience, 0.0);
  }

  void on_arrival(JobId j, Time now) override {
    ++arrived_;
    double best_wait = std::numeric_limits<double>::infinity();
    const MachineId best = pick(j, now, &best_wait);
    if (best == kInvalidMachine) {
      // Fleet mode: no active eligible machine. This shed is forced by the
      // fleet, not an admission call — it stays OUT of the eps budget.
      this->force_reject(j, now, /*was_running=*/false);
      return;
    }

    // The IMMEDIATE decision: this is the only moment the policy may reject.
    // Under kSpeedChange plans the wait estimate and p_best are both in
    // wall-clock terms at the CURRENT multiplier, so the patience ratio
    // compares like with like on a throttled machine.
    const Work p_best = effective_processing(best, j);
    const bool budget_available =
        static_cast<double>(rejections_ + 1) <=
        options_.eps * static_cast<double>(arrived_);
    if (budget_available && best_wait > options_.patience * p_best) {
      rec_.mark_rejected_pending(j, now);
      ++rejections_;
      return;
    }

    rec_.mark_dispatched(j, best);
    enqueue(best, j);
    if (running_[static_cast<std::size_t>(best)] == kInvalidJob) {
      start_next(best, now);
    }
  }

  /// The immediate-rejection baseline charges its ε-fraction arrival
  /// rejections; ε-charged sheds fall back to the fixed victim rule and
  /// the session books them against the same derived budget. Fault sheds
  /// stay OUT of rejections_: that total is the eps-of-arrivals admission
  /// budget.
  std::size_t charged_rejections() const override { return rejections_; }

  /// The policy keeps no per-job state of its own — nothing to release.
  void retire_below(JobId /*frontier*/) {}

  std::size_t rejections() const { return rejections_; }

 private:
  // ---- PolicyCore hooks ----

  /// Best ACTIVE eligible machine by estimated wait (remaining + queued
  /// work ahead in SPT); kInvalidMachine when the fleet mask leaves none.
  /// Re-placing an orphan goes through here too, but the patience test
  /// does NOT re-apply: the immediate accept decision was made at arrival
  /// and this class of policies never revisits it.
  MachineId pick(JobId j, Time now, double* best_wait_out) const {
    MachineId best = kInvalidMachine;
    double best_wait = std::numeric_limits<double>::infinity();
    for (const MachineId machine : store_.eligible_machines(j)) {
      const auto i = static_cast<std::size_t>(machine);
      if (!fleet_.active(i)) continue;
      const Work p = effective_processing(machine, j);
      double wait =
          running_[i] != kInvalidJob ? std::max(0.0, running_end_[i] - now) : 0.0;
      for (const SptKey& key : pending_[i]) {
        if (key.p <= p) wait += key.p;
      }
      if (wait < best_wait) {
        best_wait = wait;
        best = machine;
      }
    }
    *best_wait_out = best_wait;
    return best;
  }

  void enqueue(MachineId machine, JobId j) {
    pending_[static_cast<std::size_t>(machine)].insert(
        SptKey{effective_processing(machine, j), store_.job(j).release, j});
  }

  void take_queue(std::size_t i, std::vector<JobId>& out) {
    for (const SptKey& key : pending_[i]) out.push_back(key.id);
    pending_[i].clear();
  }

  template <class Fn>
  void for_each_pending(Fn&& fn) const {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      for (const SptKey& key : pending_[i]) fn(i, key.id, key.p);
    }
  }

  void erase_pending(std::size_t i, JobId id, Work p) {
    OSCHED_CHECK(pending_[i].erase(SptKey{p, store_.job(id).release, id}) == 1);
  }

  void start_next(MachineId machine, Time now) {
    auto& pending = pending_[static_cast<std::size_t>(machine)];
    if (pending.empty()) return;
    const SptKey key = *pending.begin();
    pending.erase(pending.begin());
    this->start_job(machine, key.id, key.p, now);
  }

  ImmediateRejectionOptions options_;
  std::vector<std::set<SptKey>> pending_;
  std::size_t arrived_ = 0;
  std::size_t rejections_ = 0;
};

}  // namespace osched

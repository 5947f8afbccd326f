// Weighted-flow extension policy as a resumable state machine over the job
// store (see weighted_flow.hpp for the algorithm notes and the batch entry
// point, and sim/policy_core.hpp for the store/Rec contract and the shared
// fleet/shed/dispatch protocol).
//
// Machine state is structure-of-arrays: the lambda inputs the dispatch
// needs per machine (pending count, pending minimum processing time and
// weight) live in contiguous arrays, maintained only when the owning
// machine's queue is touched. The dispatch index evaluates the exact
// lambda — an O(pending) walk of the density-ordered set — only for
// candidates whose cheap lower bound
//   lb_i = margin * (w p/eps + w p + n_i * min(w * pmin_i, p * wmin_i))
// survives best-first ordering through a min-heap; every pending job
// contributes either w * p_l (ordered before j, p_l >= pmin_i) or
// p * w_l (ordered after, w_l >= wmin_i) to the queue term, so the bound
// never exceeds the rounded exact lambda (kDispatchBoundMargin). The
// result is the same lexicographic (lambda, machine id) argmin as the
// reference scan (DispatchMode::kLinearScan), bit for bit — the
// differential wall in tests/dispatch_index_test.cpp pins that down.
#pragma once

#include <algorithm>
#include <set>

#include "extensions/weighted_flow.hpp"
#include "sim/policy_core.hpp"

namespace osched {

namespace weighted_flow_detail {

/// Highest density first: larger w/p precedes; ties by release then id.
struct DensityKey {
  double density = 0.0;
  Time release = 0.0;
  JobId id = kInvalidJob;
  Work p = 0.0;     ///< processing time on the owning machine
  Weight w = 0.0;

  bool operator<(const DensityKey& other) const {
    if (density != other.density) return density > other.density;
    if (release != other.release) return release < other.release;
    return id < other.id;
  }
};

}  // namespace weighted_flow_detail

template <class Rec>
class WeightedFlowPolicy final
    : public PolicyCore<WeightedFlowPolicy<Rec>, Rec> {
  using DensityKey = weighted_flow_detail::DensityKey;
  using Core = PolicyCore<WeightedFlowPolicy, Rec>;
  friend Core;
  using Core::completion_event_;
  using Core::effective_processing;
  using Core::events_;
  using Core::fleet_;
  using Core::fleet_speed_;
  using Core::rec_;
  using Core::running_;
  using Core::store_;

 public:
  WeightedFlowPolicy(const service::StreamingJobStore& store, Rec& rec,
                     EventQueue& events, const WeightedFlowOptions& options)
      : Core(store, rec, events, options.fleet), options_(options) {
    OSCHED_CHECK_GT(options.epsilon, 0.0);
    OSCHED_CHECK_LT(options.epsilon, 1.0);
    const std::size_t m = store.num_machines();
    pending_.resize(m);
    running_weight_.assign(m, 0.0);
    v_counter_.assign(m, 0.0);
    c_counter_.assign(m, 0.0);
    pend_n_.assign(m, 0.0);
    pend_min_p_.assign(m, 0.0);  // 0 = empty-queue sentinel (see
    pend_min_w_.assign(m, 0.0);  // pending_insert/pending_removed)
  }

  void on_arrival(JobId j, Time now) override {
    const Weight w = store_.job(j).weight;

    double best_lambda = 0.0;
    const MachineId best = pick(j, now, &best_lambda);
    if (best == kInvalidMachine) {
      // Fleet mode: no active eligible machine — forced rejection at
      // arrival, outside the weight counters and budget accounting.
      this->force_reject(j, now, /*was_running=*/false);
      return;
    }

    const auto b = static_cast<std::size_t>(best);
    rec_.mark_dispatched(j, best);
    enqueue(best, j);

    if (options_.enable_rule1 && running_[b] != kInvalidJob) {
      v_counter_[b] += w;
      if (v_counter_[b] > running_weight_[b] / options_.epsilon) {
        reject_running(best, now);
      }
    }
    if (options_.enable_rule2) {
      c_counter_[b] += w;
      maybe_fire_rule2(best, now);
    }
    if (running_[b] == kInvalidJob) start_next(best, now);
  }

  /// ε-charged shed (see SimulationHooks): the Rule-2-style victim — the
  /// globally largest queued effective processing time, ties to the largest
  /// id — matching Theorem 1's charged rule. The weighted extension keeps
  /// no dual ledger, so there is nothing further to book; the session
  /// charges the shed against the derived budget next to the rule counters.
  JobId on_shed_charged(Time now) override { return this->shed_largest(now); }

  std::size_t charged_rejections() const override {
    return rule1_rejections_ + rule2_rejections_;
  }

  /// The policy keeps no per-job state of its own — nothing to release.
  void retire_below(JobId /*frontier*/) {}

  std::size_t rule1_rejections() const { return rule1_rejections_; }
  std::size_t rule2_rejections() const { return rule2_rejections_; }
  Weight rejected_weight() const { return rejected_weight_; }

 private:
  /// `p` is the dispatch-time effective processing time on the owning
  /// machine (a speed change never re-keys a live queue).
  DensityKey make_key(JobId j, Work p) const {
    const Job& job = store_.job(j);
    return DensityKey{job.weight / p, job.release, j, p, job.weight};
  }

  /// lambda_ij = w_j p_ij / eps + w_j sum_{l <= j} p_il + p_ij sum_{l > j} w_l
  /// over the density order with j virtually inserted, running job excluded.
  double lambda_ij(MachineId i, JobId j) const {
    const auto& pending = pending_[static_cast<std::size_t>(i)];
    const DensityKey key = make_key(j, effective_processing(i, j));
    double work_before = 0.0;
    double weight_after = 0.0;
    for (const DensityKey& other : pending) {
      if (other < key) {
        work_before += other.p;
      } else {
        weight_after += other.w;
      }
    }
    return key.w * key.p / options_.epsilon + key.w * (work_before + key.p) +
           key.p * weight_after;
  }

  /// Sound lower bound on lambda_ij from the cached per-machine aggregates
  /// (see the header comment for the derivation).
  double lambda_lower_bound(Work p, Weight w, std::size_t i) const {
    const double queue_term =
        pend_n_[i] * std::min(w * pend_min_p_[i], p * pend_min_w_[i]);
    return kDispatchBoundMargin *
           (w * p / options_.epsilon + w * p + queue_term);
  }

  // ---- PolicyCore hooks ----

  /// Argmin lambda_ij over the active eligible machines: the exact
  /// reference scan, or best-first over the cached-aggregate bounds. Under
  /// a speed multiplier the bound's candidate p is the SAME effective value
  /// the exact lambda uses (make_key performs the identical division), so
  /// no extra rounding slack is needed.
  MachineId pick(JobId j, Time /*now*/, double* best_lambda_out) {
    const auto exact = [&](MachineId i) { return lambda_ij(i, j); };
    if (options_.dispatch == DispatchMode::kLinearScan) {
      return this->linear_argmin(j, exact, best_lambda_out);
    }
    const Work* row = store_.processing_row(j);
    const Weight w = store_.job(j).weight;
    const auto bound = [&](std::size_t i) {
      const double s = fleet_speed_ ? fleet_.speed_multiplier(i) : 1.0;
      return lambda_lower_bound(s == 1.0 ? row[i] : row[i] / s, w, i);
    };
    return this->best_first_argmin(j, bound, exact, best_lambda_out);
  }

  void enqueue(MachineId machine, JobId j) {
    pending_insert(static_cast<std::size_t>(machine),
                   make_key(j, effective_processing(machine, j)));
  }

  void take_queue(std::size_t i, std::vector<JobId>& out) {
    for (const DensityKey& key : pending_[i]) out.push_back(key.id);
    pending_[i].clear();
    pend_n_[i] = 0.0;
    pend_min_p_[i] = 0.0;  // empty-queue sentinel
    pend_min_w_[i] = 0.0;
  }

  template <class Fn>
  void for_each_pending(Fn&& fn) const {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      for (const DensityKey& key : pending_[i]) fn(i, key.id, key.p);
    }
  }

  void erase_pending(std::size_t i, JobId id, Work p) {
    OSCHED_CHECK(pending_[i].erase(make_key(id, p)) == 1);
    pending_removed(i);
  }

  /// Fault sheds stay OUT of rejected_weight_: that total is the policy's
  /// 2*eps*W budget accounting; FleetStats holds the fault counts.
  void reset_machine(std::size_t i) {
    v_counter_[i] = 0.0;
    c_counter_[i] = 0.0;
  }

  // ---- pending mutations keep the cached lambda inputs in sync. The min
  // caches are monotone lower bounds: they tighten on insert and reset only
  // when the queue empties (a removal can leave them stale-but-sound, which
  // keeps every mutation O(log) without a rescan). ----

  void pending_insert(std::size_t i, const DensityKey& key) {
    pending_[i].insert(key);
    pend_n_[i] += 1.0;
    if (pending_[i].size() == 1) {
      // First entry RESETS the caches. The empty-queue sentinel is 0 (so
      // the bound's n * min(...) term is exactly 0, never 0 * inf = NaN),
      // which must not survive into a min-update.
      pend_min_p_[i] = key.p;
      pend_min_w_[i] = key.w;
      return;
    }
    if (key.p < pend_min_p_[i]) pend_min_p_[i] = key.p;
    if (key.w < pend_min_w_[i]) pend_min_w_[i] = key.w;
  }

  void pending_removed(std::size_t i) {
    pend_n_[i] -= 1.0;
    if (pending_[i].empty()) {
      pend_min_p_[i] = 0.0;
      pend_min_w_[i] = 0.0;
    }
  }

  void start_next(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    OSCHED_CHECK_EQ(running_[i], kInvalidJob);
    if (pending_[i].empty()) return;
    const DensityKey key = *pending_[i].begin();
    pending_[i].erase(pending_[i].begin());
    pending_removed(i);
    running_weight_[i] = key.w;
    v_counter_[i] = 0.0;
    this->start_job(machine, key.id, key.p, now);
  }

  void reject_running(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    const JobId k = running_[i];
    OSCHED_CHECK(k != kInvalidJob);
    events_.cancel(completion_event_[i]);
    rec_.mark_rejected_running(k, now);
    rejected_weight_ += running_weight_[i];
    running_[i] = kInvalidJob;
    ++rule1_rejections_;
  }

  /// Rule 2w firing check: compare the accumulated weight against the
  /// largest-processing pending job's weight threshold. At most one firing
  /// per dispatch — the reset to zero cannot clear a second threshold.
  void maybe_fire_rule2(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    const auto& pending = pending_[i];
    if (pending.empty()) return;
    auto victim = pending.begin();
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (it->p > victim->p || (it->p == victim->p && it->id < victim->id)) {
        victim = it;
      }
    }
    if (c_counter_[i] < victim->w / options_.epsilon) return;
    rec_.mark_rejected_pending(victim->id, now);
    rejected_weight_ += victim->w;
    pending_[i].erase(victim);
    pending_removed(i);
    c_counter_[i] = 0.0;
    ++rule2_rejections_;
  }

  WeightedFlowOptions options_;

  // ---- machine state, structure-of-arrays (indexed by machine id) ----
  std::vector<std::set<DensityKey>> pending_;
  std::vector<Weight> running_weight_;
  std::vector<Weight> v_counter_;  ///< Rule 1w weight counters
  std::vector<Weight> c_counter_;  ///< Rule 2w weight counters
  /// Cached lambda inputs (written only for touched machines).
  std::vector<double> pend_n_;
  std::vector<double> pend_min_p_;
  std::vector<double> pend_min_w_;

  std::size_t rule1_rejections_ = 0;
  std::size_t rule2_rejections_ = 0;
  Weight rejected_weight_ = 0.0;
};

}  // namespace osched

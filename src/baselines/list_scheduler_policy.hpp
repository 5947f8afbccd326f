// List-scheduler baselines as resumable state machines over the job store
// (see list_scheduler.hpp for the dispatch/discipline axes and the batch
// entry points, and sim/policy_core.hpp for the store/Rec contract and the
// shared fleet/shed protocol).
#pragma once

#include <limits>
#include <set>

#include "baselines/list_scheduler.hpp"
#include "sim/policy_core.hpp"

namespace osched {

namespace list_scheduler_detail {

struct QueueKey {
  double primary;  ///< p_ij for SPT, release for FIFO
  Time r;
  JobId id;
  Work p;

  bool operator<(const QueueKey& other) const {
    if (primary != other.primary) return primary < other.primary;
    if (r != other.r) return r < other.r;
    return id < other.id;
  }
};

}  // namespace list_scheduler_detail

template <class Rec>
class ListSchedulerPolicy final
    : public PolicyCore<ListSchedulerPolicy<Rec>, Rec> {
  using QueueKey = list_scheduler_detail::QueueKey;
  using Core = PolicyCore<ListSchedulerPolicy, Rec>;
  friend Core;
  using Core::effective_processing;
  using Core::fleet_;
  using Core::rec_;
  using Core::running_;
  using Core::running_end_;
  using Core::store_;

 public:
  ListSchedulerPolicy(const service::StreamingJobStore& store, Rec& rec,
                      EventQueue& events, const ListSchedulerOptions& options)
      : Core(store, rec, events, options.fleet),
        options_(options),
        pending_(store.num_machines()),
        pending_work_(store.num_machines(), 0.0) {}

  void on_arrival(JobId j, Time now) override {
    const MachineId machine = pick(j, now, nullptr);
    if (machine == kInvalidMachine) {
      // Fleet mode: no active eligible machine. Even a "no-rejection"
      // baseline must shed the job — the alternative is a deadlock.
      this->force_reject(j, now, /*was_running=*/false);
      return;
    }
    rec_.mark_dispatched(j, machine);
    enqueue(machine, j);
    if (running_[static_cast<std::size_t>(machine)] == kInvalidJob) {
      start_next(machine, now);
    }
  }

  /// The policy keeps no per-job state of its own — nothing to release.
  void retire_below(JobId /*frontier*/) {}

 private:
  /// `p` is the queued (dispatch-time effective) processing time.
  QueueKey make_key(JobId j, Work p) const {
    const Time r = store_.job(j).release;
    const double primary = options_.discipline == QueueDiscipline::kSpt
                               ? p
                               : static_cast<double>(r);
    return QueueKey{primary, r, j, p};
  }

  // ---- PolicyCore hooks ----

  /// Dispatch estimates see each machine's CURRENT multiplier; the score
  /// (least backlog or least completion) is not reported.
  MachineId pick(JobId j, Time now, double* /*score*/) {
    MachineId best = kInvalidMachine;
    double best_score = std::numeric_limits<double>::infinity();
    if (options_.dispatch == DispatchRule::kRoundRobin) {
      const std::size_t m = pending_.size();
      for (std::size_t step = 0; step < m; ++step) {
        const auto candidate = static_cast<MachineId>((round_robin_ + step) % m);
        if (store_.eligible(candidate, j) &&
            fleet_.active(static_cast<std::size_t>(candidate))) {
          round_robin_ = (static_cast<std::size_t>(candidate) + 1) % m;
          return candidate;
        }
      }
      OSCHED_CHECK(fleet_.enabled()) << "job " << j << " has no eligible machine";
      return kInvalidMachine;
    }
    for (const MachineId machine : store_.eligible_machines(j)) {
      const auto i = static_cast<std::size_t>(machine);
      if (!fleet_.active(i)) continue;
      const Work p = effective_processing(machine, j);
      const double remaining =
          running_[i] != kInvalidJob ? std::max(0.0, running_end_[i] - now) : 0.0;
      double score = 0.0;
      if (options_.dispatch == DispatchRule::kMinBacklog) {
        score = remaining + pending_work_[i];
      } else {  // kMinCompletion: work served before j under the discipline
        double ahead = 0.0;
        if (options_.discipline == QueueDiscipline::kSpt) {
          for (const QueueKey& key : pending_[i]) {
            if (key.p <= p) ahead += key.p;  // equal sizes precede the arrival
          }
        } else {
          ahead = pending_work_[i];  // FIFO: everything queued is ahead
        }
        score = remaining + ahead + p;
      }
      if (score < best_score) {
        best_score = score;
        best = machine;
      }
    }
    OSCHED_CHECK(best != kInvalidMachine || fleet_.enabled())
        << "job " << j << " has no eligible machine";
    return best;
  }

  void enqueue(MachineId machine, JobId j) {
    const auto i = static_cast<std::size_t>(machine);
    const QueueKey key = make_key(j, effective_processing(machine, j));
    pending_[i].insert(key);
    pending_work_[i] += key.p;
  }

  void take_queue(std::size_t i, std::vector<JobId>& out) {
    for (const QueueKey& key : pending_[i]) out.push_back(key.id);
    pending_[i].clear();
    pending_work_[i] = 0.0;
  }

  template <class Fn>
  void for_each_pending(Fn&& fn) const {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      for (const QueueKey& key : pending_[i]) fn(i, key.id, key.p);
    }
  }

  void erase_pending(std::size_t i, JobId id, Work p) {
    OSCHED_CHECK(pending_[i].erase(make_key(id, p)) == 1);
    pending_work_[i] -= p;
  }

  void start_next(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    if (pending_[i].empty()) return;
    const QueueKey key = *pending_[i].begin();
    pending_[i].erase(pending_[i].begin());
    pending_work_[i] -= key.p;
    this->start_job(machine, key.id, key.p, now);
  }

  ListSchedulerOptions options_;
  std::vector<std::set<QueueKey>> pending_;
  std::vector<Work> pending_work_;
  std::size_t round_robin_ = 0;
};

}  // namespace osched

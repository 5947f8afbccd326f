// Schedule record: the single source of truth for what an algorithm did.
//
// Every scheduler in the library emits a Schedule. Objectives (flow time,
// weighted flow time, energy) are recomputed from this record — never taken
// from a scheduler's internal accounting — and an independent validator
// (sim/validator.hpp) checks non-preemptive feasibility. This separation is
// what makes the experimental claims trustworthy: a bug in a scheduler can
// produce a bad objective value, but not a silently infeasible schedule.
#pragma once

#include <algorithm>
#include <vector>

#include "instance/instance.hpp"
#include "instance/power.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace osched {

enum class JobFate {
  /// Never dispatched/decided — only legal mid-simulation.
  kUnscheduled,
  /// Dispatched and waiting or running (mid-simulation only).
  kPending,
  /// Ran non-preemptively to completion.
  kCompleted,
  /// Rejected while running (Rule 1 style interruption).
  kRejectedRunning,
  /// Rejected while waiting in a queue (Rule 2 style) or at arrival
  /// (immediate-rejection policies).
  kRejectedPending,
};

const char* to_string(JobFate fate);

struct JobRecord {
  JobFate fate = JobFate::kUnscheduled;
  MachineId machine = kInvalidMachine;  ///< machine dispatched to
  bool started = false;
  Time start = 0.0;    ///< execution start (valid when started)
  Speed speed = 1.0;   ///< constant execution speed (1.0 in unit-speed model)
  Time end = 0.0;      ///< completion, or interruption time when rejected-running
  Time rejection_time = 0.0;  ///< valid for either rejected fate

  bool rejected() const {
    return fate == JobFate::kRejectedRunning || fate == JobFate::kRejectedPending;
  }
  bool completed() const { return fate == JobFate::kCompleted; }
  /// Terminal = the record can never change again (completed or rejected).
  bool terminal() const { return completed() || rejected(); }
};

// ---- Record state transitions ----
//
// The legality of each fate transition is defined once, on the record
// itself, so every record store (the batch Schedule below, the streaming
// session's windowed store) enforces identical semantics. `j` is only used
// in abort messages.
void record_dispatched(JobRecord& rec, JobId j, MachineId machine);
void record_started(JobRecord& rec, JobId j, Time start, Speed speed);
void record_completed(JobRecord& rec, JobId j, Time end);
void record_rejected_running(JobRecord& rec, JobId j, Time now);
void record_rejected_pending(JobRecord& rec, JobId j, Time now);
/// Moves a pending job to another machine after its machine failed. Resets
/// `started` — a killed running job that is restarted (rather than shed)
/// runs from scratch elsewhere: the non-preemptive model has no partial
/// progress to carry over.
void record_requeued(JobRecord& rec, JobId j, MachineId machine);

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t num_jobs) : records_(num_jobs) {}

  std::size_t num_jobs() const { return records_.size(); }

  /// Grows the record table to at least n jobs (new records unscheduled).
  /// Streaming drivers extend as jobs are submitted; batch schedulers size
  /// once at construction and this is a no-op.
  void ensure_size(std::size_t n) {
    if (n > records_.size()) records_.resize(n);
  }

  JobRecord& record(JobId j) {
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < records_.size());
    return records_[static_cast<std::size_t>(j)];
  }
  const JobRecord& record(JobId j) const {
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < records_.size());
    return records_[static_cast<std::size_t>(j)];
  }

  // ---- Mutation helpers used by schedulers ----

  void mark_dispatched(JobId j, MachineId machine);
  void mark_started(JobId j, Time start, Speed speed);
  void mark_completed(JobId j, Time end);
  /// Rejection of the currently running job (interrupts execution at `now`).
  void mark_rejected_running(JobId j, Time now);
  /// Rejection of a job that never started (queue or at-arrival rejection).
  void mark_rejected_pending(JobId j, Time now);
  /// Re-dispatch of a pending job after a machine failure (fleet mode).
  void mark_requeued(JobId j, MachineId machine);

  // ---- Objective queries ----
  //
  // `jobs` is the paired job data: an Instance, or any source with its
  // job(j) accessor (a retained session evaluates over its job store).

  /// Flow time of one job: completion − release for completed jobs,
  /// rejection − release for rejected jobs (the paper's convention: a
  /// rejected job pays for the time it spent in the system).
  template <typename Jobs>
  Time flow_time(JobId j, const Jobs& jobs) const {
    const JobRecord& rec = record(j);
    OSCHED_CHECK(rec.terminal()) << "flow_time of unfinished job " << j
                                 << " (fate=" << to_string(rec.fate) << ")";
    return (rec.completed() ? rec.end : rec.rejection_time) -
           jobs.job(j).release;
  }

  /// Sum of flow times. When include_rejected is false only completed jobs
  /// contribute (useful for comparing against no-rejection baselines).
  template <typename Jobs>
  Time total_flow(const Jobs& jobs, bool include_rejected = true) const {
    Time total = 0.0;
    for_counted(include_rejected,
                [&](JobId j) { total += flow_time(j, jobs); });
    return total;
  }
  template <typename Jobs>
  Time total_weighted_flow(const Jobs& jobs,
                           bool include_rejected = true) const {
    Time total = 0.0;
    for_counted(include_rejected, [&](JobId j) {
      total += jobs.job(j).weight * flow_time(j, jobs);
    });
    return total;
  }
  template <typename Jobs>
  Time max_flow(const Jobs& jobs, bool include_rejected = true) const {
    Time worst = 0.0;
    for_counted(include_rejected,
                [&](JobId j) { worst = std::max(worst, flow_time(j, jobs)); });
    return worst;
  }

  std::size_t num_completed() const;
  std::size_t num_rejected() const;
  template <typename Jobs>
  Weight rejected_weight(const Jobs& jobs) const {
    Weight total = 0.0;
    for (std::size_t j = 0; j < records_.size(); ++j) {
      if (records_[j].rejected()) total += jobs.job(static_cast<JobId>(j)).weight;
    }
    return total;
  }

  /// Latest completion/interruption time across machines.
  Time makespan() const;

  const std::vector<JobRecord>& records() const { return records_; }

 private:
  /// Calls f(j), in id order, for every job the objective sums count:
  /// completed jobs, plus rejected ones when include_rejected.
  template <typename F>
  void for_counted(bool include_rejected, F&& f) const {
    for (std::size_t j = 0; j < records_.size(); ++j) {
      const JobRecord& rec = records_[j];
      if (rec.completed() || (include_rejected && rec.rejected())) {
        f(static_cast<JobId>(j));
      }
    }
  }

  std::vector<JobRecord> records_;
};

/// Stable counting sort by machine: returns `items` grouped so that machine
/// i's items, in their input order, fill [(*begin)[i], (*begin)[i + 1]).
/// machine_of(item) must lie in [0, num_machines).
template <typename T, typename MachineOf>
std::vector<T> group_by_machine(const std::vector<T>& items,
                                std::size_t num_machines, MachineOf machine_of,
                                std::vector<std::size_t>* begin) {
  const auto slot = [&](const T& item) {
    return static_cast<std::size_t>(machine_of(item));
  };
  begin->assign(num_machines + 1, 0);
  for (const T& item : items) ++(*begin)[slot(item) + 1];
  for (std::size_t i = 0; i < num_machines; ++i) (*begin)[i + 1] += (*begin)[i];
  std::vector<T> grouped(items.size());
  std::vector<std::size_t> cursor(begin->begin(), begin->end() - 1);
  for (const T& item : items) grouped[cursor[slot(item)]++] = item;
  return grouped;
}

/// Total energy of a schedule in the speed-scaling model: per machine, the
/// speed profile is the SUM of the speeds of concurrently executing jobs
/// (Theorem 3's model allows parallel execution on one machine; Theorems 1/2
/// never overlap, in which case this reduces to a per-segment sum), and the
/// energy is the integral of powers[i](profile) on machine i. The machine
/// count is powers.size(). One pass over the records, whatever the machine
/// count.
Energy profile_energy(const Schedule& schedule,
                      const std::vector<const PowerFunction*>& powers);

/// profile_energy with one power function on every machine of `jobs` (an
/// Instance, or any source with its num_machines() accessor).
template <typename Jobs>
Energy compute_energy(const Schedule& schedule, const Jobs& jobs,
                      const PowerFunction& power) {
  return profile_energy(
      schedule, std::vector<const PowerFunction*>(jobs.num_machines(), &power));
}

/// Per-machine variant with machine-specific power functions (size must
/// equal jobs.num_machines()).
template <typename Jobs>
Energy compute_energy(const Schedule& schedule, const Jobs& jobs,
                      const std::vector<const PowerFunction*>& powers) {
  OSCHED_CHECK_EQ(powers.size(), jobs.num_machines());
  return profile_energy(schedule, powers);
}

}  // namespace osched

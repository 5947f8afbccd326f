#include "sim/schedule.hpp"

#include <algorithm>
#include <map>

namespace osched {

const char* to_string(JobFate fate) {
  switch (fate) {
    case JobFate::kUnscheduled: return "unscheduled";
    case JobFate::kPending: return "pending";
    case JobFate::kCompleted: return "completed";
    case JobFate::kRejectedRunning: return "rejected-running";
    case JobFate::kRejectedPending: return "rejected-pending";
  }
  return "?";
}

void record_dispatched(JobRecord& rec, JobId j, MachineId machine) {
  OSCHED_CHECK(rec.fate == JobFate::kUnscheduled)
      << "job " << j << " dispatched twice";
  rec.fate = JobFate::kPending;
  rec.machine = machine;
}

void record_started(JobRecord& rec, JobId j, Time start, Speed speed) {
  OSCHED_CHECK(rec.fate == JobFate::kPending) << "job " << j << " not pending";
  OSCHED_CHECK(!rec.started) << "job " << j << " started twice";
  OSCHED_CHECK_GT(speed, 0.0);
  rec.started = true;
  rec.start = start;
  rec.speed = speed;
}

void record_completed(JobRecord& rec, JobId j, Time end) {
  OSCHED_CHECK(rec.fate == JobFate::kPending && rec.started)
      << "job " << j << " cannot complete (fate=" << to_string(rec.fate) << ")";
  rec.fate = JobFate::kCompleted;
  rec.end = end;
}

void record_rejected_running(JobRecord& rec, JobId j, Time now) {
  OSCHED_CHECK(rec.fate == JobFate::kPending && rec.started)
      << "job " << j << " is not running";
  rec.fate = JobFate::kRejectedRunning;
  rec.end = now;
  rec.rejection_time = now;
}

void record_requeued(JobRecord& rec, JobId j, MachineId machine) {
  OSCHED_CHECK(rec.fate == JobFate::kPending)
      << "job " << j << " requeued while " << to_string(rec.fate);
  rec.machine = machine;
  rec.started = false;
}

void record_rejected_pending(JobRecord& rec, JobId j, Time now) {
  OSCHED_CHECK((rec.fate == JobFate::kPending && !rec.started) ||
               rec.fate == JobFate::kUnscheduled)
      << "job " << j << " cannot be queue-rejected";
  rec.fate = JobFate::kRejectedPending;
  rec.rejection_time = now;
}

void Schedule::mark_dispatched(JobId j, MachineId machine) {
  record_dispatched(record(j), j, machine);
}

void Schedule::mark_started(JobId j, Time start, Speed speed) {
  record_started(record(j), j, start, speed);
}

void Schedule::mark_completed(JobId j, Time end) {
  record_completed(record(j), j, end);
}

void Schedule::mark_rejected_running(JobId j, Time now) {
  record_rejected_running(record(j), j, now);
}

void Schedule::mark_rejected_pending(JobId j, Time now) {
  record_rejected_pending(record(j), j, now);
}

void Schedule::mark_requeued(JobId j, MachineId machine) {
  record_requeued(record(j), j, machine);
}

std::size_t Schedule::num_completed() const {
  std::size_t count = 0;
  for (const JobRecord& rec : records_) count += rec.completed() ? 1 : 0;
  return count;
}

std::size_t Schedule::num_rejected() const {
  std::size_t count = 0;
  for (const JobRecord& rec : records_) count += rec.rejected() ? 1 : 0;
  return count;
}

Time Schedule::makespan() const {
  Time latest = 0.0;
  for (const JobRecord& rec : records_) {
    if (rec.started) latest = std::max(latest, rec.end);
  }
  return latest;
}

Energy profile_energy(const Schedule& schedule,
                      const std::vector<const PowerFunction*>& powers) {
  const std::size_t m = powers.size();
  std::vector<const JobRecord*> runs;
  for (const JobRecord& rec : schedule.records()) {
    if (rec.started && rec.end > rec.start &&  // zero-length: no energy
        rec.machine >= 0 && static_cast<std::size_t>(rec.machine) < m) {
      runs.push_back(&rec);
    }
  }
  // Each machine's sweep sees its records in job order: the order its
  // breakpoint map is built in, and so the order its sums round in.
  std::vector<std::size_t> begin;
  const std::vector<const JobRecord*> by_machine = group_by_machine(
      runs, m, [](const JobRecord* rec) { return rec->machine; }, &begin);

  Energy total = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    OSCHED_CHECK(powers[i] != nullptr);
    // Sweep over speed-change breakpoints. Each execution contributes
    // +speed at its start and -speed at its end; the machine's energy is
    // the integral of power(sum of active speeds).
    std::map<Time, Speed> delta;  // time -> speed change
    for (std::size_t k = begin[i]; k < begin[i + 1]; ++k) {
      delta[by_machine[k]->start] += by_machine[k]->speed;
      delta[by_machine[k]->end] -= by_machine[k]->speed;
    }
    Energy energy = 0.0;
    Speed current = 0.0;
    Time prev = 0.0;
    bool first = true;
    for (const auto& [time, change] : delta) {
      if (!first && current > 0.0) {
        energy += powers[i]->power(current) * (time - prev);
      }
      current += change;
      // Clamp tiny negative drift from float cancellation.
      if (current < 0.0 && current > -1e-9) current = 0.0;
      OSCHED_CHECK_GE(current, 0.0) << "negative speed profile on machine " << i;
      prev = time;
      first = false;
    }
    total += energy;
  }
  return total;
}

}  // namespace osched

// Independent feasibility validator for schedules.
//
// The validator re-derives feasibility from the Schedule record and the
// job data alone; it shares no state with any scheduler. Tests run every
// scheduler's output through it, so an algorithmic bug cannot masquerade as
// a good objective value on an infeasible schedule.
//
// The job data is any source with the accessor surface Instance and the
// streaming session's job store share — num_jobs(), num_machines(), job(j)
// and processing(i, j) — so a retained session validates straight from its
// store, without building an Instance first.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "instance/instance.hpp"
#include "sim/schedule.hpp"
#include "util/check.hpp"

namespace osched {

struct ValidationOptions {
  /// Theorem 3's model allows several jobs to execute concurrently on one
  /// machine (speeds add). Theorems 1/2 do not.
  bool allow_parallel_execution = false;
  /// Require completed jobs to meet their deadlines (Theorem 3 setting).
  bool require_deadlines = false;
  /// Require every job to be either completed or rejected (end of run).
  bool require_all_decided = true;
  /// In the unit-speed model (Theorem 1) completed jobs must occupy exactly
  /// p_ij time; in speed-scaling, exactly p_ij / speed.
  double tolerance = 1e-6;
};

namespace validator_detail {

/// One execution with positive length on `machine`.
struct Interval {
  Time begin;
  Time end;
  JobId job;
  MachineId machine;
};

// The message builders run only when a violation is found: a feasible
// schedule formats nothing.
std::string count_mismatch(std::size_t records, std::size_t jobs);
/// "job J (fate): " + what.
std::string job_violation(JobId j, JobFate fate, const char* what);
std::string duration_mismatch(JobId j, Time actual, Time required);
std::string deadline_miss(JobId j, Time deadline, Time end);

/// Two ulps of `end` (0 at ±inf): the most that rounding end = start + d
/// and then end − start can move the recorded duration away from d. It is
/// far below `tol` at ordinary magnitudes and matters only once the start
/// time dwarfs the duration (start 1e38, d 0.5: end == start).
inline double end_rounding(Time end) {
  const double a = std::abs(end);
  if (!(a < kTimeInfinity)) return 0.0;
  // Keeping only the exponent bits gives 2^⌊log2 a⌋ (0 for subnormals).
  const double scale = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) &
                                             0x7ff0000000000000ull);
  return 2.0 * scale * std::numeric_limits<double>::epsilon();
}

/// Groups `busy` (in job order) by machine, keeping job order within each
/// machine, sorts each machine by start time and reports every adjacent
/// pair that overlaps by more than `tol`.
void report_overlaps(const std::vector<Interval>& busy,
                     std::size_t num_machines, double tol,
                     std::vector<std::string>& violations);

}  // namespace validator_detail

/// Returns a list of human-readable violations; empty means feasible. A
/// schedule whose record count differs from jobs.num_jobs() yields that one
/// violation and nothing else.
template <typename Jobs>
std::vector<std::string> validate_schedule(const Schedule& schedule,
                                           const Jobs& jobs,
                                           const ValidationOptions& options = {}) {
  namespace vd = validator_detail;
  std::vector<std::string> violations;
  if (schedule.num_jobs() != jobs.num_jobs()) {
    violations.push_back(vd::count_mismatch(schedule.num_jobs(), jobs.num_jobs()));
    return violations;
  }
  const double tol = options.tolerance;
  const std::size_t m = jobs.num_machines();
  std::vector<vd::Interval> busy;
  const std::vector<JobRecord>& records = schedule.records();

  for (std::size_t idx = 0; idx < records.size(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    const JobRecord& rec = records[idx];
    const auto fail = [&](const char* what) {
      violations.push_back(vd::job_violation(j, rec.fate, what));
    };

    if (rec.fate == JobFate::kUnscheduled || rec.fate == JobFate::kPending) {
      if (options.require_all_decided) fail("left undecided at end of run");
      continue;
    }
    const Job& job = jobs.job(j);

    // A job rejected at its arrival instant, before any dispatch, carries no
    // machine (immediate-rejection policies, Lemma 1 setting): only the
    // timing is checkable. Every other record names a machine that must
    // exist and be eligible.
    Work p = kTimeInfinity;
    if (rec.fate != JobFate::kRejectedPending || rec.machine != kInvalidMachine) {
      if (rec.machine < 0 || static_cast<std::size_t>(rec.machine) >= m) {
        fail("invalid machine index");
        continue;
      }
      p = jobs.processing(rec.machine, j);
      if (!(p < kTimeInfinity)) {
        fail("assigned to ineligible machine");
        continue;
      }
    }

    if (rec.fate == JobFate::kRejectedPending) {
      if (rec.started) fail("queue-rejected but started");
      if (rec.rejection_time < job.release - tol) fail("rejected before release");
      continue;
    }

    // Completed or rejected-running: must have started.
    if (!rec.started) {
      fail("finished without starting");
      continue;
    }
    if (rec.start < job.release - tol) fail("started before release");
    if (rec.speed <= 0.0) {
      fail("non-positive speed");
      continue;
    }
    if (rec.end < rec.start - tol) fail("ends before it starts");

    if (rec.fate == JobFate::kCompleted) {
      const Time required = p / rec.speed;
      const Time actual = rec.end - rec.start;
      const double error = std::abs(actual - required);
      const double allowed = tol * std::max(1.0, required);
      // The rounding slack is worked out only when `tol` alone fails: adding
      // it on every record made this loop measurably slower.
      if (error > allowed && error > allowed + vd::end_rounding(rec.end)) {
        violations.push_back(vd::duration_mismatch(j, actual, required));
      }
      if (options.require_deadlines && job.has_deadline() &&
          rec.end > job.deadline + tol) {
        violations.push_back(vd::deadline_miss(j, job.deadline, rec.end));
      }
    } else {  // kRejectedRunning
      if (std::abs(rec.rejection_time - rec.end) > tol) {
        fail("interruption time disagrees with end time");
      }
      // An interrupted job must not have exceeded its full processing need
      // (otherwise it should have completed).
      const Time ran = rec.end - rec.start;
      const Time limit = p / rec.speed + tol;
      if (ran > limit && ran > limit + vd::end_rounding(rec.end)) {
        fail("ran longer than its processing requirement");
      }
    }

    if (!options.allow_parallel_execution && rec.end > rec.start) {
      busy.push_back(vd::Interval{rec.start, rec.end, j, rec.machine});
    }
  }

  // Machine capacity: at most one job at a time unless the model allows
  // parallel speed-added execution.
  if (!options.allow_parallel_execution) {
    vd::report_overlaps(busy, m, tol, violations);
  }
  return violations;
}

/// Convenience for tests and drains: aborts with the first violation.
template <typename Jobs>
void check_schedule(const Schedule& schedule, const Jobs& jobs,
                    const ValidationOptions& options = {}) {
  const auto violations = validate_schedule(schedule, jobs, options);
  OSCHED_CHECK(violations.empty())
      << violations.size() << " violations; first: " << violations.front();
}

}  // namespace osched

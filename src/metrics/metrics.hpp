// Objective reports computed from a Schedule + Instance pair.
#pragma once

#include <string>

#include "instance/instance.hpp"
#include "instance/power.hpp"
#include "sim/schedule.hpp"

namespace osched {

/// Everything the experiment harnesses report about one run.
struct ObjectiveReport {
  std::size_t num_jobs = 0;
  std::size_t num_completed = 0;
  std::size_t num_rejected = 0;
  double rejected_fraction = 0.0;         ///< by count
  double rejected_weight_fraction = 0.0;  ///< by weight

  Time total_flow = 0.0;           ///< includes rejected jobs' partial flow
  Time completed_flow = 0.0;       ///< completed jobs only
  Time total_weighted_flow = 0.0;  ///< includes rejected
  Time max_flow = 0.0;
  Time makespan = 0.0;

  Energy energy = 0.0;  ///< 0 unless computed with a power function
  double flow_plus_energy() const { return total_weighted_flow + energy; }
};

/// Computes the report; pass a power function for speed-scaling problems.
/// `jobs` is the paired job data: an Instance, or any source with its
/// num_jobs() / num_machines() / job(j) accessors (a retained session
/// evaluates over its job store).
template <typename Jobs>
ObjectiveReport evaluate(const Schedule& schedule, const Jobs& jobs,
                         const PowerFunction* power = nullptr) {
  ObjectiveReport report;
  report.num_jobs = jobs.num_jobs();
  report.num_completed = schedule.num_completed();
  report.num_rejected = schedule.num_rejected();
  if (report.num_jobs > 0) {
    report.rejected_fraction = static_cast<double>(report.num_rejected) /
                               static_cast<double>(report.num_jobs);
  }
  Weight total_weight = 0.0;
  for (std::size_t j = 0; j < jobs.num_jobs(); ++j) {
    total_weight += jobs.job(static_cast<JobId>(j)).weight;
  }
  if (total_weight > 0.0) {
    report.rejected_weight_fraction =
        schedule.rejected_weight(jobs) / total_weight;
  }
  report.total_flow = schedule.total_flow(jobs, /*include_rejected=*/true);
  report.completed_flow = schedule.total_flow(jobs, /*include_rejected=*/false);
  report.total_weighted_flow =
      schedule.total_weighted_flow(jobs, /*include_rejected=*/true);
  report.max_flow = schedule.max_flow(jobs, /*include_rejected=*/true);
  report.makespan = schedule.makespan();
  if (power != nullptr) {
    report.energy = compute_energy(schedule, jobs, *power);
  }
  return report;
}

std::string to_string(const ObjectiveReport& report);

}  // namespace osched

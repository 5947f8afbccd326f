#include "sim/validator.hpp"

#include <sstream>

namespace osched {

namespace validator_detail {

std::string count_mismatch(std::size_t records, std::size_t jobs) {
  std::ostringstream msg;
  msg << "job count mismatch: schedule has " << records
      << " records, instance has " << jobs << " jobs";
  return msg.str();
}

std::string job_violation(JobId j, JobFate fate, const char* what) {
  std::ostringstream msg;
  msg << "job " << j << " (" << to_string(fate) << "): " << what;
  return msg.str();
}

std::string duration_mismatch(JobId j, Time actual, Time required) {
  std::ostringstream msg;
  msg << job_violation(j, JobFate::kCompleted, "")
      << "non-preemptive duration mismatch: ran " << actual << ", needs "
      << required;
  return msg.str();
}

std::string deadline_miss(JobId j, Time deadline, Time end) {
  std::ostringstream msg;
  msg << job_violation(j, JobFate::kCompleted, "") << "misses deadline "
      << deadline << " (ends " << end << ")";
  return msg.str();
}

void report_overlaps(const std::vector<Interval>& busy,
                     std::size_t num_machines, double tol,
                     std::vector<std::string>& violations) {
  // std::sort is not stable: among equal starts, the pair an overlap names
  // depends on input order. Grouping keeps each machine's intervals in job
  // order, so the messages depend on nothing else.
  std::vector<std::size_t> begin;
  std::vector<Interval> sorted = group_by_machine(
      busy, num_machines, [](const Interval& iv) { return iv.machine; },
      &begin);

  for (std::size_t i = 0; i < num_machines; ++i) {
    std::sort(sorted.begin() + begin[i], sorted.begin() + begin[i + 1],
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    for (std::size_t k = begin[i] + 1; k < begin[i + 1]; ++k) {
      const Interval& prev = sorted[k - 1];
      const Interval& next = sorted[k];
      if (next.begin < prev.end - tol) {
        std::ostringstream msg;
        msg << "machine " << i << ": jobs " << prev.job << " and " << next.job
            << " overlap ([" << prev.begin << "," << prev.end << ") vs ["
            << next.begin << "," << next.end << "))";
        violations.push_back(msg.str());
      }
    }
  }
}

}  // namespace validator_detail

}  // namespace osched

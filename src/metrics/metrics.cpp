#include "metrics/metrics.hpp"

#include <sstream>

namespace osched {

std::string to_string(const ObjectiveReport& report) {
  std::ostringstream out;
  out << "jobs=" << report.num_jobs << " completed=" << report.num_completed
      << " rejected=" << report.num_rejected << " (" << report.rejected_fraction
      << " by count, " << report.rejected_weight_fraction << " by weight)"
      << " flow=" << report.total_flow << " wflow=" << report.total_weighted_flow
      << " maxflow=" << report.max_flow << " energy=" << report.energy;
  return out.str();
}

}  // namespace osched

#include "baselines/immediate_rejection.hpp"

#include "baselines/immediate_rejection_policy.hpp"
#include "sim/engine.hpp"

namespace osched {

ImmediateRejectionResult run_immediate_rejection(
    const Instance& instance, const ImmediateRejectionOptions& options) {
  return run_batch<ImmediateRejectionPolicy<Schedule>>(
      instance, options, [](const auto& policy, Schedule& schedule) {
        ImmediateRejectionResult result;
        result.schedule = std::move(schedule);
        result.rejections = policy.rejections();
        result.fleet = policy.fleet_stats();
        return result;
      });
}

}  // namespace osched

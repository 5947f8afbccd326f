#include "extensions/weighted_flow.hpp"

#include "extensions/weighted_flow_policy.hpp"
#include "sim/engine.hpp"

namespace osched {

WeightedFlowResult run_weighted_rejection_flow(
    const Instance& instance, const WeightedFlowOptions& options) {
  return run_batch<WeightedFlowPolicy<Schedule>>(
      instance, options, [](const auto& policy, Schedule& schedule) {
        WeightedFlowResult result;
        result.rule1_rejections = policy.rule1_rejections();
        result.rule2_rejections = policy.rule2_rejections();
        result.rejected_weight = policy.rejected_weight();
        result.fleet = policy.fleet_stats();
        result.schedule = std::move(schedule);
        return result;
      });
}

}  // namespace osched

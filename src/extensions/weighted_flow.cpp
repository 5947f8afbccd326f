#include "extensions/weighted_flow.hpp"

#include "extensions/weighted_flow_policy.hpp"
#include "instance/processing_store.hpp"
#include "sim/engine.hpp"

namespace osched {

WeightedFlowResult run_weighted_rejection_flow(
    const Instance& instance, const WeightedFlowOptions& options) {
  instance.check_valid();

  const InstanceView view(instance);
  SimEngineFor<InstanceView> engine(view, &options.fleet);
  Schedule schedule(view.num_jobs());
  WeightedFlowPolicy<InstanceView, Schedule> policy(view, schedule,
                                                    engine.events(), options);
  engine.run(policy);

  WeightedFlowResult result;
  result.rule1_rejections = policy.rule1_rejections();
  result.rule2_rejections = policy.rule2_rejections();
  result.rejected_weight = policy.rejected_weight();
  result.fleet = policy.fleet_stats();
  result.schedule = std::move(schedule);
  return result;
}

}  // namespace osched

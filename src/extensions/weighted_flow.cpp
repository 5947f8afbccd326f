#include "extensions/weighted_flow.hpp"

#include "extensions/weighted_flow_policy.hpp"
#include "service/job_store.hpp"
#include "sim/engine.hpp"

namespace osched {

using service::StreamingJobStore;

WeightedFlowResult run_weighted_rejection_flow(
    const Instance& instance, const WeightedFlowOptions& options) {
  instance.check_valid();

  const StreamingJobStore store(instance.store());
  SimEngineFor<StreamingJobStore> engine(store, &options.fleet);
  Schedule schedule(store.num_jobs());
  WeightedFlowPolicy<StreamingJobStore, Schedule> policy(
      store, schedule, engine.events(), options);
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

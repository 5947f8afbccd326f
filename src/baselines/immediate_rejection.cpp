#include "baselines/immediate_rejection.hpp"

#include "baselines/immediate_rejection_policy.hpp"
#include "instance/processing_store.hpp"
#include "sim/engine.hpp"

namespace osched {

ImmediateRejectionResult run_immediate_rejection(
    const Instance& instance, const ImmediateRejectionOptions& options) {
  instance.check_valid();

  const InstanceView view(instance);
  SimEngineFor<InstanceView> engine(view, &options.fleet);
  Schedule schedule(view.num_jobs());
  ImmediateRejectionPolicy<InstanceView, Schedule> policy(
      view, schedule, engine.events(), options);
  engine.run(policy);

  ImmediateRejectionResult result;
  result.schedule = std::move(schedule);
  result.rejections = policy.rejections();
  result.fleet = policy.fleet_stats();
  return result;
}

}  // namespace osched

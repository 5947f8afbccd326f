#include "baselines/immediate_rejection.hpp"

#include "baselines/immediate_rejection_policy.hpp"
#include "service/job_store.hpp"
#include "sim/engine.hpp"

namespace osched {

using service::StreamingJobStore;

ImmediateRejectionResult run_immediate_rejection(
    const Instance& instance, const ImmediateRejectionOptions& options) {
  instance.check_valid();

  const StreamingJobStore store(instance.store());
  SimEngineFor<StreamingJobStore> engine(store, &options.fleet);
  Schedule schedule(store.num_jobs());
  ImmediateRejectionPolicy<StreamingJobStore, Schedule> policy(
      store, schedule, engine.events(), options);
  engine.run(policy);

  ImmediateRejectionResult result;
  result.schedule = std::move(schedule);
  result.rejections = policy.rejections();
  result.fleet = policy.fleet_stats();
  return result;
}

}  // namespace osched

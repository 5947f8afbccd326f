#include "baselines/list_scheduler.hpp"

#include "baselines/list_scheduler_policy.hpp"
#include "service/job_store.hpp"
#include "sim/engine.hpp"

namespace osched {

using service::StreamingJobStore;

const char* to_string(DispatchRule rule) {
  switch (rule) {
    case DispatchRule::kMinCompletion: return "min-completion";
    case DispatchRule::kMinBacklog: return "min-backlog";
    case DispatchRule::kRoundRobin: return "round-robin";
  }
  return "?";
}

const char* to_string(QueueDiscipline discipline) {
  switch (discipline) {
    case QueueDiscipline::kSpt: return "spt";
    case QueueDiscipline::kFifo: return "fifo";
  }
  return "?";
}

Schedule run_list_scheduler(const Instance& instance,
                            const ListSchedulerOptions& options,
                            FleetStats* fleet_stats) {
  instance.check_valid();

  const StreamingJobStore store(instance.store());
  SimEngineFor<StreamingJobStore> engine(store, &options.fleet);
  Schedule schedule(store.num_jobs());
  ListSchedulerPolicy<StreamingJobStore, Schedule> policy(
      store, schedule, engine.events(), options);
  engine.run(policy);
  if (fleet_stats != nullptr) *fleet_stats = policy.fleet_stats();
  return schedule;
}

}  // namespace osched

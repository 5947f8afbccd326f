#include "baselines/list_scheduler.hpp"

#include "baselines/list_scheduler_policy.hpp"
#include "sim/engine.hpp"

namespace osched {

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
  return run_batch<ListSchedulerPolicy<Schedule>>(
      instance, options, [&](const auto& policy, Schedule& schedule) {
        if (fleet_stats != nullptr) *fleet_stats = policy.fleet_stats();
        return std::move(schedule);
      });
}

}  // namespace osched

#include "api/online_policies.hpp"

#include <utility>

#include "sim/engine.hpp"

namespace osched::api {

void run_online(Algorithm algorithm, const Instance& instance,
                const RunOptions& run, RunSummary& summary) {
  with_online_policy<Schedule>(
      algorithm, run,
      [&]<class Policy>(std::type_identity<Policy>, const auto& options) {
        run_batch<Policy>(instance, options,
                          [&](const Policy& policy, Schedule& schedule) {
                            report_counters(policy, summary);
                            summary.schedule = std::move(schedule);
                          });
      });
}

}  // namespace osched::api

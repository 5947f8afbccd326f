#include "core/flow/rejection_flow.hpp"

#include "core/flow/rejection_flow_policy.hpp"
#include "sim/engine.hpp"

namespace osched {

const char* to_string(Rule2Victim victim) {
  switch (victim) {
    case Rule2Victim::kLargest: return "largest";
    case Rule2Victim::kSmallest: return "smallest";
    case Rule2Victim::kNewest: return "newest";
    case Rule2Victim::kRandom: return "random";
  }
  return "?";
}

RejectionFlowResult run_rejection_flow(const Instance& instance,
                                       const RejectionFlowOptions& options) {
  // Batch run = the resumable policy driven straight to quiescence.
  // Streaming sessions drive the same policy class one submit/advance at a
  // time (see service/scheduler_session.hpp).
  return run_batch<RejectionFlowPolicy<Schedule>>(
      instance, options, [](const auto& policy, Schedule& schedule) {
        const std::size_t n = schedule.num_jobs();
        RejectionFlowResult result;
        result.schedule = std::move(schedule);
        result.rule1_rejections = policy.rule1_rejections();
        result.rule2_rejections = policy.rule2_rejections();
        result.fleet = policy.fleet_stats();
        result.sum_lambda = policy.dual().sum_lambda();
        result.beta_integral = policy.dual().beta_integral();
        result.dual_objective = policy.dual().dual_objective();
        result.opt_lower_bound = policy.dual().opt_lower_bound();
        result.definitive_finish.resize(n);
        result.lambda.resize(n);
        for (std::size_t j = 0; j < n; ++j) {
          result.definitive_finish[j] =
              policy.dual().definitive_finish(static_cast<JobId>(j));
          result.lambda[j] = policy.lambda(static_cast<JobId>(j));
        }
        return result;
      });
}

double reference_lambda_ij(const std::vector<Work>& pending_sorted, Work p_ij,
                           double eps) {
  double before = 0.0;  // sum over pending ordered before j (p_l <= p_ij:
                        // a new arrival has the latest release, so equal
                        // processing times order before it)
  std::size_t after = 0;
  for (Work p : pending_sorted) {
    if (p <= p_ij) {
      before += p;
    } else {
      ++after;
    }
  }
  return p_ij / eps + (before + p_ij) + static_cast<double>(after) * p_ij;
}

}  // namespace osched

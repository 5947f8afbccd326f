#include "core/energy_flow/energy_flow.hpp"

#include <cmath>

#include "core/energy_flow/energy_flow_policy.hpp"
#include "sim/engine.hpp"

namespace osched {

double theorem2_gamma(double eps, double alpha) {
  OSCHED_CHECK_GT(eps, 0.0);
  OSCHED_CHECK_GT(alpha, 1.0);
  const double lead = std::pow(eps / (1.0 + eps), 1.0 / (alpha - 1.0));
  const double inner = alpha - 1.0 + std::log(alpha - 1.0);
  if (inner > 0.0) {
    // Paper's choice (proof of Theorem 2).
    return lead / (alpha - 1.0) * std::pow(inner, (alpha - 1.0) / alpha);
  }
  // For alpha <= ~1.567 the closed form is non-positive; fall back to the
  // leading factor (any gamma > 0 yields a correct algorithm; only the
  // stated constant in the ratio changes).
  return lead;
}

double isolated_job_constant(double alpha) {
  OSCHED_CHECK_GT(alpha, 1.0);
  const double a1 = alpha - 1.0;
  return std::pow(a1, 1.0 / alpha) + std::pow(a1, (1.0 - alpha) / alpha);
}

EnergyFlowResult run_energy_flow(const Instance& instance,
                                 const EnergyFlowOptions& options) {
  return run_batch<EnergyFlowPolicy<Schedule>>(
      instance, options, [](const auto& policy, Schedule& schedule) {
        EnergyFlowResult result;
        policy.finalize_into(result);
        result.schedule = std::move(schedule);
        return result;
      });
}

double reference_energy_lambda_ij(
    const std::vector<std::pair<Weight, Work>>& pending_by_density, Weight w_j,
    Work p_ij, double eps, double alpha, double gamma) {
  const double density_j = w_j / p_ij;
  double prefix_weight = 0.0;
  double sum_before = 0.0;
  Weight weight_after = 0.0;
  for (const auto& [w, p] : pending_by_density) {
    if (w / p >= density_j) {
      prefix_weight += w;
      sum_before += p / (gamma * std::pow(prefix_weight, 1.0 / alpha));
    } else {
      weight_after += w;
    }
  }
  const double w_prefix_j = prefix_weight + w_j;
  const double denom_j = gamma * std::pow(w_prefix_j, 1.0 / alpha);
  return w_j * (p_ij / eps + sum_before + p_ij / denom_j) +
         weight_after * p_ij / denom_j;
}

}  // namespace osched

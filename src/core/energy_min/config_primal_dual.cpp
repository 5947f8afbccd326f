#include "core/energy_min/config_primal_dual.hpp"

#include <algorithm>
#include <limits>
#include <memory>

namespace osched {

std::vector<double> resolve_machine_alphas(const ConfigPDOptions& options,
                                           std::size_t num_machines) {
  if (options.machine_alphas.empty()) {
    return std::vector<double>(num_machines, options.alpha);
  }
  OSCHED_CHECK_EQ(options.machine_alphas.size(), num_machines)
      << "machine_alphas must have one entry per machine";
  for (double alpha : options.machine_alphas) OSCHED_CHECK_GT(alpha, 1.0);
  return options.machine_alphas;
}

ConfigPDResult run_config_primal_dual(const Instance& instance,
                                      const ConfigPDOptions& options,
                                      const ArrivalObserver& observer) {
  instance.check_valid();
  OSCHED_CHECK_GT(options.alpha, 1.0);

  const std::vector<double> alphas =
      resolve_machine_alphas(options, instance.num_machines());
  std::vector<std::unique_ptr<PolynomialPower>> powers;
  powers.reserve(alphas.size());
  for (double alpha : alphas) {
    powers.push_back(std::make_unique<PolynomialPower>(alpha));
  }
  // The guarantee (and the dual scaling) is driven by alpha = max_i alpha_i.
  const double alpha_max = *std::max_element(alphas.begin(), alphas.end());
  const SmoothnessParams smooth = polynomial_smoothness(alpha_max);

  // An empty instance has no window to span a speed grid over; the loop
  // below then commits nothing, so it gets an empty schedule, zero energy
  // and a zero bound.
  const std::vector<Speed> speeds =
      options.speeds.empty() && instance.num_jobs() > 0
          ? make_speed_grid(instance, options.speed_levels)
          : options.speeds;

  ConfigPDResult result;
  result.schedule = Schedule(instance.num_jobs());
  result.chosen.resize(instance.num_jobs());
  result.delta.resize(instance.num_jobs(), 0.0);
  result.profiles.assign(instance.num_machines(), SpeedProfile{});

  // Jobs arrive in release order (the Instance keeps them sorted); each is
  // committed greedily and never revisited.
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    const std::vector<Strategy> strategies =
        enumerate_strategies(instance, j, speeds, options.start_grid);
    OSCHED_CHECK(!strategies.empty())
        << "job " << j << " has no feasible strategy (window too tight)";

    double best_marginal = std::numeric_limits<double>::infinity();
    std::size_t best_index = 0;
    for (std::size_t k = 0; k < strategies.size(); ++k) {
      const Strategy& s = strategies[k];
      const auto machine = static_cast<std::size_t>(s.machine);
      const Work p = instance.processing(s.machine, j);
      const double marginal = result.profiles[machine].marginal_cost(
          s.start, s.start + s.duration(p), s.speed, *powers[machine]);
      if (marginal < best_marginal) {
        best_marginal = marginal;
        best_index = k;
      }
    }

    if (observer) {
      ArrivalObservation obs;
      obs.job = j;
      obs.profiles = &result.profiles;
      obs.strategies = &strategies;
      obs.chosen = best_index;
      obs.chosen_marginal = best_marginal;
      observer(obs);
    }

    const Strategy& chosen = strategies[best_index];
    const Work p = instance.processing(chosen.machine, j);
    const Time end = chosen.start + chosen.duration(p);
    result.profiles[static_cast<std::size_t>(chosen.machine)].add(
        chosen.start, end, chosen.speed);
    result.chosen[idx] = chosen;
    result.delta[idx] = best_marginal / smooth.lambda;

    result.schedule.mark_dispatched(j, chosen.machine);
    result.schedule.mark_started(j, chosen.start, chosen.speed);
    result.schedule.mark_completed(j, end);
  }

  Energy total = 0.0;
  for (std::size_t i = 0; i < result.profiles.size(); ++i) {
    total += result.profiles[i].total_cost(*powers[i]);
  }
  result.algorithm_energy = total;
  // Dual objective: sum_j delta_j + sum_i gamma_i
  //   = ALG/lambda - (mu/lambda) * ALG = (1-mu)/lambda * ALG.
  result.dual_objective = (1.0 - smooth.mu) / smooth.lambda * total;
  result.opt_lower_bound = result.dual_objective;
  return result;
}

}  // namespace osched

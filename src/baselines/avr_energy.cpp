#include "baselines/avr_energy.hpp"

#include <limits>

#include "util/check.hpp"

namespace osched {

AvrEnergyResult run_avr_energy(const Instance& instance, double alpha) {
  instance.check_valid();
  OSCHED_CHECK_GT(alpha, 1.0);
  const PolynomialPower power(alpha);

  AvrEnergyResult result;
  result.schedule = Schedule(instance.num_jobs());
  result.chosen.resize(instance.num_jobs());
  std::vector<SpeedProfile> profiles(instance.num_machines());

  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    const Job& job = instance.job(j);
    OSCHED_CHECK(job.has_deadline()) << "AVR requires deadlines (job " << j << ")";
    const Time window = job.deadline - job.release;

    MachineId best = kInvalidMachine;
    double best_marginal = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < instance.num_machines(); ++i) {
      const auto machine = static_cast<MachineId>(i);
      if (!instance.eligible(machine, j)) continue;
      const Speed v = instance.processing(machine, j) / window;
      const double marginal = profiles[i].marginal_cost(
          job.release, job.deadline, v, power);
      if (marginal < best_marginal) {
        best_marginal = marginal;
        best = machine;
      }
    }
    OSCHED_CHECK(best != kInvalidMachine) << "job " << j << " has no eligible machine";

    const Speed v = instance.processing(best, j) / window;
    profiles[static_cast<std::size_t>(best)].add(job.release, job.deadline, v);
    result.chosen[idx] = Strategy{best, job.release, v};
    result.schedule.mark_dispatched(j, best);
    result.schedule.mark_started(j, job.release, v);
    result.schedule.mark_completed(j, job.deadline);
  }

  Energy total = 0.0;
  for (const SpeedProfile& profile : profiles) total += profile.total_cost(power);
  result.energy = total;
  return result;
}

}  // namespace osched

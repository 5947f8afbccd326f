// Lemma 6 verifier: the dual solution of the Theorem 2 scheduler is
// feasible.
//
// Dual constraint, for every machine i, job j and time t >= r_j:
//   lambda_j / p_ij <= delta_ij (t - r_j + p_ij) + alpha u_i(t)^{alpha-1}
//                      + alpha/(gamma(alpha-1)) w_j^{(alpha-1)/alpha},
// with delta_ij = w_j / p_ij and
//   u_i(t) = (eps / (gamma (1+eps)(alpha-1)))^{1/(alpha-1)} V_i(t)^{1/alpha},
// where V_i(t) is the machine's total fractional weight: a job contributes
// its full weight while waiting, w * q(t)/p while running (q = remaining
// volume) and its frozen residue w * q_end/p from completion/rejection to
// its definitive finish C~.
//
// Unlike Lemma 4's beta, u_i(t) is not monotone in t (completions drain V),
// so the checker samples all structural breakpoints (releases, starts,
// completions, definitive finishes) plus deterministic pseudo-random times.
//
// Templated over the Store like check_flow_dual_feasibility: any storage
// backend's Instance façade or the StreamingJobStore holding it works — the
// checker only touches the shared accessor surface.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/energy_flow/energy_flow.hpp"
#include "duality/flow_dual_check.hpp"  // DualCheckReport
#include "instance/instance.hpp"
#include "util/rng.hpp"

namespace osched {

template <class Store>
DualCheckReport check_energy_flow_dual_feasibility(
    const Store& store, const EnergyFlowResult& result,
    const EnergyFlowOptions& options,
    std::size_t random_samples_per_machine = 64,
    std::size_t max_constraints = 2'000'000) {
  OSCHED_CHECK_EQ(result.schedule.num_jobs(), store.num_jobs());
  const std::size_t n = store.num_jobs();
  const std::size_t m = store.num_machines();
  const double alpha = options.alpha;
  const double gamma = result.gamma;
  const double u_coeff = std::pow(
      options.epsilon / (gamma * (1.0 + options.epsilon) * (alpha - 1.0)),
      1.0 / (alpha - 1.0));

  // Fractional-weight pieces per machine.
  struct Piece {
    Time release, start, end, definitive;
    Weight w;
    Work p;        ///< volume on its machine
    Work q_end;    ///< remaining volume at completion/rejection
    Speed speed;
  };
  std::vector<std::vector<Piece>> pieces(m);
  std::vector<std::vector<Time>> breaks(m);
  for (std::size_t idx = 0; idx < n; ++idx) {
    const auto j = static_cast<JobId>(idx);
    const JobRecord& rec = result.schedule.record(j);
    const Job& job = store.job(j);
    const Work p = store.processing(rec.machine, j);
    Piece piece;
    piece.release = job.release;
    piece.start = rec.start;
    piece.end = rec.end;
    piece.definitive = result.definitive_finish[idx];
    piece.w = job.weight;
    piece.p = p;
    piece.speed = rec.speed;
    piece.q_end = rec.completed()
                      ? 0.0
                      : std::max(0.0, p - rec.speed * (rec.end - rec.start));
    const auto machine = static_cast<std::size_t>(rec.machine);
    pieces[machine].push_back(piece);
    breaks[machine].push_back(piece.release);
    breaks[machine].push_back(piece.start);
    breaks[machine].push_back(piece.end);
    breaks[machine].push_back(piece.definitive);
  }

  auto fractional_weight_at = [&](const Piece& piece, Time t) -> double {
    if (t < piece.release || t >= piece.definitive) return 0.0;
    if (t < piece.start) return piece.w;
    if (t < piece.end) {
      const Work q = piece.p - piece.speed * (t - piece.start);
      return piece.w * std::max(0.0, q) / piece.p;
    }
    return piece.w * piece.q_end / piece.p;
  };
  auto v_at = [&](std::size_t i, Time t) {
    double v = 0.0;
    for (const Piece& piece : pieces[i]) v += fractional_weight_at(piece, t);
    return v;
  };

  // Sample times per machine: breakpoints + deterministic pseudo-random.
  util::Rng rng(0xD0A1ULL);
  Time horizon = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (Time t : breaks[i]) horizon = std::max(horizon, t);
  }
  std::vector<std::vector<Time>> sample_times(m);
  for (std::size_t i = 0; i < m; ++i) {
    sample_times[i] = breaks[i];
    for (std::size_t s = 0; s < random_samples_per_machine; ++s) {
      sample_times[i].push_back(rng.uniform(0.0, horizon + 1.0));
    }
    std::sort(sample_times[i].begin(), sample_times[i].end());
    sample_times[i].erase(
        std::unique(sample_times[i].begin(), sample_times[i].end()),
        sample_times[i].end());
  }

  DualCheckReport report;
  std::size_t job_stride = 1;
  {
    std::size_t per_pair = 0;
    for (std::size_t i = 0; i < m; ++i) per_pair += sample_times[i].size();
    while (job_stride < n && (n / job_stride) * per_pair > max_constraints) {
      ++job_stride;
    }
  }

  const double w_term_coeff = alpha / (gamma * (alpha - 1.0));
  for (std::size_t idx = 0; idx < n; idx += job_stride) {
    const auto j = static_cast<JobId>(idx);
    const Job& job = store.job(j);
    const double lambda_j = result.lambda[idx];
    const double w_term =
        w_term_coeff * std::pow(job.weight, (alpha - 1.0) / alpha);
    for (const MachineId machine : store.eligible_machines(j)) {
      const auto i = static_cast<std::size_t>(machine);
      const Work p = store.processing_unchecked(machine, j);
      const double delta_ij = job.weight / p;
      const double lhs = lambda_j / p;
      for (Time t : sample_times[i]) {
        if (t < job.release) continue;
        const double u = u_coeff * std::pow(v_at(i, t), 1.0 / alpha);
        const double rhs = delta_ij * (t - job.release + p) +
                           alpha * std::pow(u, alpha - 1.0) + w_term;
        report.max_violation = std::max(report.max_violation, lhs - rhs);
        ++report.constraints_checked;
      }
      // Also the job's own release instant.
      const double u = u_coeff * std::pow(v_at(i, job.release), 1.0 / alpha);
      const double rhs =
          delta_ij * p + alpha * std::pow(u, alpha - 1.0) + w_term;
      report.max_violation = std::max(report.max_violation, lhs - rhs);
      ++report.constraints_checked;
    }
  }
  return report;
}

}  // namespace osched

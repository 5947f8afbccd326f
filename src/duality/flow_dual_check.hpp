// Lemma 4 verifier: the dual solution emitted by the Theorem 1 scheduler is
// feasible constraint by constraint.
//
// Dual constraint, for every machine i, job j and time t >= r_j:
//   lambda_j / p_ij  <=  (t - r_j)/p_ij + 1 + beta_i(t),
// with beta_i(t) = eps/(1+eps)^2 * (|U_i(t)| + |V_i(t)|). A job dispatched
// to machine i occupies U_i from its release to its completion/rejection and
// V_i from there to its definitive finish C~_j, so |U_i(t)| + |V_i(t)| is
// simply the count of jobs with r <= t < C~ on machine i.
//
// For fixed (i, j) the RHS grows linearly in t except at C~ breakpoints
// where beta steps down, so it suffices to check t = r_j and t = each C~
// (the instants just after each drop). The checker does exactly that — an
// INDEPENDENT re-derivation from the schedule record; it shares no state
// with the scheduler's own accounting.
//
// The checker is a template over the Store it reads the instance through:
// the Instance façade of any storage backend, or the StreamingJobStore
// holding its data (service/job_store.hpp) — only job / eligible_machines /
// processing_unchecked are touched, the surface every store answers with
// identical values.
#pragma once

#include <algorithm>
#include <vector>

#include "core/flow/rejection_flow.hpp"
#include "instance/instance.hpp"

namespace osched {

struct DualCheckReport {
  /// max over all checked constraints of (LHS - RHS); <= 0 means feasible.
  double max_violation = -1e300;
  std::size_t constraints_checked = 0;

  bool feasible(double tolerance = 1e-7) const {
    return max_violation <= tolerance;
  }
};

/// `eps` must be the epsilon the run used. For n*m*n larger than
/// max_constraints the (i, j) pairs are subsampled deterministically.
template <class Store>
DualCheckReport check_flow_dual_feasibility(
    const Store& store, const RejectionFlowResult& result, double eps,
    std::size_t max_constraints = 2'000'000) {
  OSCHED_CHECK_EQ(result.schedule.num_jobs(), store.num_jobs());
  OSCHED_CHECK_EQ(result.lambda.size(), store.num_jobs());
  const std::size_t n = store.num_jobs();
  const std::size_t m = store.num_machines();
  const double beta_scale = eps / ((1.0 + eps) * (1.0 + eps));

  // Per machine: residence intervals [r, C~) of the jobs dispatched to it.
  struct Residence {
    Time begin;
    Time end;
  };
  std::vector<std::vector<Residence>> residence(m);
  for (std::size_t idx = 0; idx < n; ++idx) {
    const auto j = static_cast<JobId>(idx);
    const JobRecord& rec = result.schedule.record(j);
    OSCHED_CHECK(rec.machine != kInvalidMachine);
    residence[static_cast<std::size_t>(rec.machine)].push_back(
        Residence{store.job(j).release, result.definitive_finish[idx]});
  }

  // occupancy_i(t) = #{l on i : r_l <= t < C~_l}.
  auto occupancy = [&](MachineId i, Time t) {
    std::size_t count = 0;
    for (const Residence& res : residence[static_cast<std::size_t>(i)]) {
      if (res.begin <= t + kTimeEps && t < res.end - kTimeEps) ++count;
    }
    return count;
  };

  // Candidate times per machine: every C~ (just after the step-down) plus
  // each job's own release (handled per pair below).
  std::vector<std::vector<Time>> machine_breaks(m);
  for (std::size_t i = 0; i < m; ++i) {
    machine_breaks[i].reserve(residence[i].size());
    for (const Residence& res : residence[i]) {
      machine_breaks[i].push_back(res.end);
    }
    std::sort(machine_breaks[i].begin(), machine_breaks[i].end());
  }

  DualCheckReport report;
  // Deterministic subsampling of jobs when the full check is too large.
  const std::size_t checks_per_pair = 2 + n;  // r_j + all breakpoints (worst)
  std::size_t job_stride = 1;
  while (n / job_stride * m * checks_per_pair > max_constraints &&
         job_stride < n) {
    ++job_stride;
  }

  for (std::size_t idx = 0; idx < n; idx += job_stride) {
    const auto j = static_cast<JobId>(idx);
    const Job& job = store.job(j);
    const double lambda_j = result.lambda[idx];
    for (const MachineId machine : store.eligible_machines(j)) {
      const auto i = static_cast<std::size_t>(machine);
      const Work p = store.processing_unchecked(machine, j);

      auto check_at = [&](Time t) {
        if (t < job.release) return;
        const double lhs = lambda_j / p;
        const double rhs =
            (t - job.release) / p + 1.0 +
            beta_scale * static_cast<double>(occupancy(machine, t));
        report.max_violation = std::max(report.max_violation, lhs - rhs);
        ++report.constraints_checked;
      };

      check_at(job.release);
      for (Time t : machine_breaks[i]) check_at(t);
    }
  }
  return report;
}

}  // namespace osched

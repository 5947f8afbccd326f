// Theorem 2 scheduling policy as a resumable state machine over the job
// store (see energy_flow.hpp for the paper conventions and the batch entry
// point, and sim/policy_core.hpp for the store/Rec contract and the shared
// fleet/shed/dispatch protocol).
//
// Unlike the flow-time policy, the dual bookkeeping here needs a final pass
// over every job record (the V-integral decomposition), so a streaming
// session must retain records and job rows to drain a Theorem 2 run — the
// session enforces that; retire_below is deliberately a no-op.
//
// Machine state is structure-of-arrays, and the dispatch runs through the
// same index shape as the other policies: the exact lambda here costs an
// O(pending) walk WITH a pow() per element, so skipping dominated machines
// matters even at modest m. The lower bound is the job-only term
//   lb_i = margin * (w * (p/eps))
// — every other lambda term is non-negative — which orders candidates by
// p and prunes exactly (kDispatchBoundMargin absorbs the roundings).
// DispatchMode::kLinearScan keeps the reference full scan; both modes
// return the identical lexicographic (lambda, machine id) argmin
// (tests/dispatch_index_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <set>

#include "core/energy_flow/energy_flow.hpp"
#include "sim/policy_core.hpp"
#include "util/sliding_vector.hpp"

namespace osched {

namespace energy_flow_detail {

/// Pending order: non-increasing density, ties earliest release then id.
struct DensityKey {
  double density = 0.0;
  Time r = 0.0;
  JobId id = kInvalidJob;
  Weight weight = 0.0;
  Work volume = 0.0;

  bool operator<(const DensityKey& other) const {
    if (density != other.density) return density > other.density;
    if (r != other.r) return r < other.r;
    return id < other.id;
  }
};

}  // namespace energy_flow_detail

template <class Rec>
class EnergyFlowPolicy final
    : public PolicyCore<EnergyFlowPolicy<Rec>, Rec> {
  using DensityKey = energy_flow_detail::DensityKey;
  using Core = PolicyCore<EnergyFlowPolicy, Rec>;
  friend Core;
  using Core::completion_event_;
  using Core::events_;
  using Core::fleet_;
  using Core::rec_;
  using Core::running_;
  using Core::running_end_;
  using Core::store_;

 public:
  EnergyFlowPolicy(const service::StreamingJobStore& store, Rec& rec,
                   EventQueue& events, const EnergyFlowOptions& options)
      : Core(store, rec, events, options.fleet),
        options_(options),
        gamma_(options.gamma > 0.0 ? options.gamma
                                   : theorem2_gamma(options.epsilon, options.alpha)) {
    OSCHED_CHECK_GT(options.epsilon, 0.0);
    OSCHED_CHECK_LT(options.epsilon, 1.0);
    OSCHED_CHECK_GT(options.alpha, 1.0);
    OSCHED_CHECK_GT(gamma_, 0.0);
    extra_.extend_to(store.num_jobs());
    lambda_.extend_to(store.num_jobs());
    const std::size_t m = store.num_machines();
    pending_.resize(m);
    pending_weight_.assign(m, 0.0);
    v_counter_.assign(m, 0.0);
  }

  void on_arrival(JobId j, Time now) override {
    extra_.extend_to(static_cast<std::size_t>(j) + 1);
    lambda_.extend_to(static_cast<std::size_t>(j) + 1);
    const Job& job = store_.job(j);

    double best_lambda = 0.0;
    const MachineId best_machine = pick(j, now, &best_lambda);
    if (best_machine == kInvalidMachine) {
      // Fleet mode: no active eligible machine — forced rejection at
      // arrival, outside the weight-counter rule and with zero dual
      // contribution (the certificate is diagnostic under a fleet plan).
      lambda_[static_cast<std::size_t>(j)] = 0.0;
      this->force_reject(j, now, /*was_running=*/false);
      return;
    }
    const double lambda_j =
        options_.epsilon / (1.0 + options_.epsilon) * best_lambda;
    sum_lambda_ += lambda_j;
    lambda_[static_cast<std::size_t>(j)] = lambda_j;

    const auto b = static_cast<std::size_t>(best_machine);
    rec_.mark_dispatched(j, best_machine);
    enqueue(best_machine, j);

    if (options_.enable_rejection && running_[b] != kInvalidJob) {
      v_counter_[b] += job.weight;
      const Weight w_k = store_.job(running_[b]).weight;
      if (v_counter_[b] > w_k / options_.epsilon) {
        reject_running(best_machine, now);
      }
    }

    if (running_[b] == kInvalidJob) start_next(best_machine, now);
  }

  /// Theorem 2 charges its ε-budgeted arrival rejections; ε-charged sheds
  /// fall back to the fixed victim rule (no Rule-2 ledger to extend) but
  /// the session still books them against the same derived budget.
  std::size_t charged_rejections() const override { return rejections_; }

  /// No-op: the V-integral finalization reads every record, so Theorem 2
  /// runs cannot retire per-job state (sessions enforce retention).
  void retire_below(JobId /*frontier*/) {}

  /// Fills every EnergyFlowResult field except the schedule (the driver
  /// owns the record store). Requires the run to have been driven to
  /// quiescence: every job started, except fault rejections under a fleet
  /// plan (which contribute waiting-only fractional weight).
  void finalize_into(EnergyFlowResult& result) const {
    result.rejections = rejections_;
    result.gamma = gamma_;
    result.sum_lambda = sum_lambda_;
    result.fleet = fleet_.stats;
    result.definitive_finish.resize(store_.num_jobs(), 0.0);

    // Integral of the total fractional weight V(t) = sum_i V_i(t):
    // each job contributes w over [r, S) (waiting at full remaining volume),
    // the linear-decay integral over [S, C), and its frozen residue
    // w*q_end/p over the definitive-finish extension [C, C~).
    double v_integral = 0.0;
    double iso_lb = 0.0;
    const double c1 = isolated_job_constant(options_.alpha);
    for (std::size_t idx = 0; idx < store_.num_jobs(); ++idx) {
      const auto j = static_cast<JobId>(idx);
      const Job& job = store_.job(j);
      const JobRecord& rec = rec_.record(j);
      if (!rec.started) {
        // Fleet-mode fault rejection before the job ever ran: it waited at
        // full weight from release to rejection and leaves no residue.
        OSCHED_CHECK(fleet_.enabled() && rec.fate == JobFate::kRejectedPending)
            << "job " << j << " never started";
        v_integral += job.weight * (rec.rejection_time - job.release);
        result.definitive_finish[idx] = rec.rejection_time + extra_[idx];
        iso_lb += c1 *
                  std::pow(job.weight, (options_.alpha - 1.0) / options_.alpha) *
                  store_.min_processing(j);
        continue;
      }
      const Work p = store_.processing(rec.machine, j);
      const Work q_end = rec.completed()
                             ? 0.0
                             : std::max(0.0, p - rec.speed * (rec.end - rec.start));
      v_integral += job.weight * (rec.start - job.release);
      v_integral += job.weight * (p + q_end) / (2.0 * p) * (rec.end - rec.start);
      v_integral += job.weight * q_end / p * extra_[idx];
      result.definitive_finish[idx] = rec.end + extra_[idx];

      iso_lb += c1 * std::pow(job.weight, (options_.alpha - 1.0) / options_.alpha) *
                store_.min_processing(j);
    }
    result.v_integral = v_integral;

    const double alpha = options_.alpha;
    const double u_pow_alpha_coeff = std::pow(
        options_.epsilon / (gamma_ * (1.0 + options_.epsilon) * (alpha - 1.0)),
        alpha / (alpha - 1.0));
    result.dual_objective =
        sum_lambda_ - (alpha - 1.0) * u_pow_alpha_coeff * v_integral;

    const double primal_to_opt_factor =
        2.0 + alpha / (gamma_ * (alpha - 1.0) * c1);
    result.opt_lower_bound =
        std::max(0.0, result.dual_objective) / primal_to_opt_factor;
    result.iso_lower_bound = iso_lb;

    result.lambda.resize(store_.num_jobs());
    for (std::size_t idx = 0; idx < store_.num_jobs(); ++idx) {
      result.lambda[idx] = lambda_[idx];
    }
  }

  std::size_t rejections() const { return rejections_; }

 private:
  /// `volume` is p_ij on the owning machine (keys are speed-free).
  DensityKey make_key(JobId j, Work volume) const {
    const Job& job = store_.job(j);
    return DensityKey{job.weight / volume, job.release, j, job.weight, volume};
  }

  /// lambda_ij with j virtually inserted into machine i's pending order.
  /// Volume-based on purpose, also under a kSpeedChange plan: it estimates
  /// marginal cost in the nominal speed-scaling model, and scaling it
  /// per-machine would double-count the throttle the execution speed
  /// (start_next) already pays for.
  double lambda_ij(MachineId i, JobId j) const {
    const auto& pending = pending_[static_cast<std::size_t>(i)];
    const Job& job = store_.job(j);
    const Work p = store_.processing_unchecked(i, j);
    const double density = job.weight / p;

    double prefix_weight = 0.0;
    double sum_before = 0.0;  // sum_{l < j} p_il / (gamma W_l^{1/alpha})
    Weight weight_after = 0.0;
    for (const DensityKey& key : pending) {
      // Pending jobs were released earlier (or tie with smaller id), so
      // equal densities order before the new arrival.
      if (key.density >= density) {
        prefix_weight += key.weight;
        sum_before +=
            key.volume / (gamma_ * std::pow(prefix_weight, 1.0 / options_.alpha));
      } else {
        weight_after += key.weight;
      }
    }
    const double w_j_prefix = prefix_weight + job.weight;
    const double denom_j = gamma_ * std::pow(w_j_prefix, 1.0 / options_.alpha);
    sum_before += p / denom_j;  // the l = j term

    return job.weight * (p / options_.epsilon + sum_before) +
           weight_after * p / denom_j;
  }

  // ---- PolicyCore hooks ----

  /// Argmin lambda_ij over the active eligible machines: the exact
  /// reference scan, or best-first over job-only bounds (every
  /// queue-dependent lambda term is non-negative).
  MachineId pick(JobId j, Time /*now*/, double* best_lambda_out) {
    const auto exact = [&](MachineId i) { return lambda_ij(i, j); };
    if (options_.dispatch == DispatchMode::kLinearScan) {
      return this->linear_argmin(j, exact, best_lambda_out);
    }
    const Work* row = store_.processing_row(j);
    const double coeff =
        kDispatchBoundMargin * store_.job(j).weight / options_.epsilon;
    const auto bound = [&](std::size_t i) { return coeff * row[i]; };
    return this->best_first_argmin(j, bound, exact, best_lambda_out);
  }

  void enqueue(MachineId machine, JobId j) {
    const auto i = static_cast<std::size_t>(machine);
    pending_[i].insert(make_key(j, store_.processing_unchecked(machine, j)));
    pending_weight_[i] += store_.job(j).weight;
  }

  void take_queue(std::size_t i, std::vector<JobId>& out) {
    for (const DensityKey& key : pending_[i]) out.push_back(key.id);
    pending_[i].clear();
    pending_weight_[i] = 0.0;
  }

  template <class Fn>
  void for_each_pending(Fn&& fn) const {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      for (const DensityKey& key : pending_[i]) fn(i, key.id, key.volume);
    }
  }

  void erase_pending(std::size_t i, JobId id, Work volume) {
    OSCHED_CHECK(pending_[i].erase(make_key(id, volume)) == 1);
    pending_weight_[i] -= store_.job(id).weight;
  }

  void reset_machine(std::size_t i) { v_counter_[i] = 0.0; }

  void start_next(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    OSCHED_CHECK_EQ(running_[i], kInvalidJob);
    if (pending_[i].empty()) return;
    const DensityKey key = *pending_[i].begin();
    pending_[i].erase(pending_[i].begin());

    // Speed from the total pending weight INCLUDING the started job, scaled
    // by the machine's current kSpeedChange multiplier (exactly 1.0 while
    // nominal, so multiplying keeps speed-free plans bit-identical).
    const Speed speed = fleet_.speed_multiplier(i) * gamma_ *
                        std::pow(pending_weight_[i], 1.0 / options_.alpha);
    OSCHED_CHECK_GT(speed, 0.0);
    pending_weight_[i] -= key.weight;
    v_counter_[i] = 0.0;
    this->launch(machine, key.id, now, speed, now + key.volume / speed);
  }

  void reject_running(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    const JobId k = running_[i];
    const Time remaining_time = std::max(0.0, running_end_[i] - now);

    events_.cancel(completion_event_[i]);
    rec_.mark_rejected_running(k, now);

    // Definitive-finish extension: every job of U_i(now) (pending + k)
    // lingers an extra q_ik(now)/s_k = remaining_time in the V/Q set.
    extra_[static_cast<std::size_t>(k)] += remaining_time;
    for (const DensityKey& key : pending_[i]) {
      extra_[static_cast<std::size_t>(key.id)] += remaining_time;
    }

    running_[i] = kInvalidJob;
    ++rejections_;
  }

  EnergyFlowOptions options_;
  double gamma_;
  util::SlidingVector<double> extra_;
  util::SlidingVector<double> lambda_;

  // ---- machine state, structure-of-arrays (indexed by machine id) ----
  std::vector<std::set<DensityKey>> pending_;
  std::vector<Weight> pending_weight_;
  std::vector<double> v_counter_;  ///< weight dispatched during execution

  double sum_lambda_ = 0.0;
  std::size_t rejections_ = 0;
};

}  // namespace osched

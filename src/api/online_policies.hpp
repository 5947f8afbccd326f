// The policy table: which policy and options each online algorithm runs,
// which counters it reports in RunSummary, and how its schedule is
// validated and evaluated. api::run (batch) and service::SchedulerSession
// (streaming) both read this one table, so the two drivers cannot disagree
// on an option mapping or a reported field. Internal to the library.
#pragma once

#include <type_traits>

#include "api/scheduler_api.hpp"
#include "baselines/immediate_rejection_policy.hpp"
#include "baselines/list_scheduler_policy.hpp"
#include "core/energy_flow/energy_flow_policy.hpp"
#include "core/flow/rejection_flow_policy.hpp"
#include "extensions/weighted_flow_policy.hpp"
#include "instance/power.hpp"
#include "metrics/metrics.hpp"
#include "service/job_store.hpp"
#include "sim/validator.hpp"
#include "util/check.hpp"

namespace osched::api {

/// Calls fn(std::type_identity<Policy>{}, policy_options) with the policy
/// (recording into `Rec`) and options that `algorithm` runs under `run`,
/// and returns what fn returns. Every online algorithm is here; kTheorem3
/// (the offline configuration LP) is not, and aborts.
template <class Rec, class Fn>
auto with_online_policy(Algorithm algorithm, const RunOptions& run, Fn&& fn) {
  switch (algorithm) {
    case Algorithm::kTheorem1:
      return fn(std::type_identity<RejectionFlowPolicy<Rec>>{},
                RejectionFlowOptions{.epsilon = run.epsilon,
                                     .fleet = run.fleet});
    case Algorithm::kTheorem2:
      return fn(std::type_identity<EnergyFlowPolicy<Rec>>{},
                EnergyFlowOptions{.epsilon = run.epsilon,
                                  .alpha = run.alpha,
                                  .fleet = run.fleet});
    case Algorithm::kWeightedExt:
      return fn(std::type_identity<WeightedFlowPolicy<Rec>>{},
                WeightedFlowOptions{.epsilon = run.epsilon,
                                    .fleet = run.fleet});
    case Algorithm::kGreedySpt:
      return fn(std::type_identity<ListSchedulerPolicy<Rec>>{},
                ListSchedulerOptions{DispatchRule::kMinCompletion,
                                     QueueDiscipline::kSpt, run.fleet});
    case Algorithm::kFifo:
      return fn(std::type_identity<ListSchedulerPolicy<Rec>>{},
                ListSchedulerOptions{DispatchRule::kMinBacklog,
                                     QueueDiscipline::kFifo, run.fleet});
    case Algorithm::kImmediateReject:
      return fn(std::type_identity<ImmediateRejectionPolicy<Rec>>{},
                ImmediateRejectionOptions{.eps = run.epsilon,
                                          .fleet = run.fleet});
    case Algorithm::kTheorem3:
      break;
  }
  OSCHED_CHECK(false) << to_string(algorithm)
                      << " is not an online policy (theorem3 is batch-only)";
}

// ---- the counters each policy reports in RunSummary ----

template <class Rec>
void report_counters(const RejectionFlowPolicy<Rec>& policy,
                     RunSummary& summary) {
  summary.certified_lower_bound = policy.dual().opt_lower_bound();
  summary.rule1_rejections = policy.rule1_rejections();
  summary.rule2_rejections = policy.rule2_rejections();
  summary.fleet = policy.fleet_stats();
  // Theorem 1's dispatch is the only reader of the order table.
  summary.dispatch_order_width = policy.dispatch_order_width();
}

template <class Rec>
void report_counters(const EnergyFlowPolicy<Rec>& policy,
                     RunSummary& summary) {
  summary.rule1_rejections = policy.rejections();
  summary.fleet = policy.fleet_stats();
}

template <class Rec>
void report_counters(const WeightedFlowPolicy<Rec>& policy,
                     RunSummary& summary) {
  summary.rule1_rejections = policy.rule1_rejections();
  summary.rule2_rejections = policy.rule2_rejections();
  summary.fleet = policy.fleet_stats();
}

template <class Rec>
void report_counters(const ListSchedulerPolicy<Rec>& policy,
                     RunSummary& summary) {
  summary.fleet = policy.fleet_stats();
}

template <class Rec>
void report_counters(const ImmediateRejectionPolicy<Rec>& policy,
                     RunSummary& summary) {
  summary.rule1_rejections = policy.rejections();
  summary.fleet = policy.fleet_stats();
}

/// api::run's online branch: runs `algorithm`'s policy over `instance` to
/// quiescence (run_batch) and fills summary.schedule and its counters.
/// It is compiled in online_policies.cpp, not in scheduler_api.cpp, so the
/// unit that instantiates the validator and evaluate (through
/// finish_summary) holds no policy code: with all five policies in that
/// unit, GCC 12 inlined far less of both and batch_m256 ran about 5%
/// slower (12 interleaved pairs on a shared 4-vCPU Xeon host).
void run_online(Algorithm algorithm, const Instance& instance,
                const RunOptions& run, RunSummary& summary);

/// Validates summary.schedule (when run.validate) and fills summary.report
/// from it over `jobs`. Only Theorem 3 executes in parallel and must meet
/// deadlines; the speed-scaling algorithms (Theorems 2 and 3) report energy
/// under P(s) = s^alpha.
inline void finish_summary(RunSummary& summary,
                           const service::StreamingJobStore& jobs,
                           const RunOptions& run) {
  const bool theorem3 = summary.algorithm == Algorithm::kTheorem3;
  if (run.validate) {
    ValidationOptions validation;
    validation.allow_parallel_execution = theorem3;
    validation.require_deadlines = theorem3;
    check_schedule(summary.schedule, jobs, validation);
  }
  const PolynomialPower power(run.alpha);
  const bool speed_scaled =
      theorem3 || summary.algorithm == Algorithm::kTheorem2;
  summary.report =
      evaluate(summary.schedule, jobs, speed_scaled ? &power : nullptr);
}

}  // namespace osched::api

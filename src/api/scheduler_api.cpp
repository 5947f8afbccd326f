#include "api/scheduler_api.hpp"

#include <cctype>

#include "baselines/immediate_rejection.hpp"
#include "baselines/list_scheduler.hpp"
#include "core/energy_flow/energy_flow.hpp"
#include "core/energy_min/config_primal_dual.hpp"
#include "core/flow/rejection_flow.hpp"
#include "extensions/weighted_flow.hpp"
#include "sim/validator.hpp"
#include "util/check.hpp"

namespace osched::api {

namespace {

/// Every algorithm, in the order algorithm_names() prints them. The parser
/// and the name list are driven by this one table, so they cannot drift.
constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kTheorem1,   Algorithm::kTheorem2, Algorithm::kTheorem3,
    Algorithm::kWeightedExt, Algorithm::kGreedySpt, Algorithm::kFifo,
    Algorithm::kImmediateReject,
};

std::string to_lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

std::optional<Algorithm> parse_algorithm(const std::string& name) {
  // Case-insensitive match against exactly the names to_string emits (and
  // algorithm_names() prints): "Theorem1" and "GREEDY-SPT" parse, but
  // aliases or abbreviations do not.
  const std::string folded = to_lower(name);
  for (const Algorithm algorithm : kAllAlgorithms) {
    if (folded == to_string(algorithm)) return algorithm;
  }
  return std::nullopt;
}

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTheorem1: return "theorem1";
    case Algorithm::kTheorem2: return "theorem2";
    case Algorithm::kTheorem3: return "theorem3";
    case Algorithm::kWeightedExt: return "weighted-ext";
    case Algorithm::kGreedySpt: return "greedy-spt";
    case Algorithm::kFifo: return "fifo";
    case Algorithm::kImmediateReject: return "immediate-reject";
  }
  return "?";
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kAllAlgorithms));
  for (const Algorithm algorithm : kAllAlgorithms) {
    names.emplace_back(to_string(algorithm));
  }
  return names;
}

RunSummary run(Algorithm algorithm, const Instance& instance,
               const RunOptions& options) {
  RunSummary summary;
  summary.algorithm = algorithm;

  // Per-algorithm validation/report knobs.
  bool parallel_execution = false;
  bool require_deadlines = false;
  const PolynomialPower power(options.alpha);
  const PowerFunction* report_power = nullptr;

  switch (algorithm) {
    case Algorithm::kTheorem1: {
      const auto result = run_rejection_flow(
          instance, {.epsilon = options.epsilon, .fleet = options.fleet});
      summary.schedule = result.schedule;
      summary.certified_lower_bound = result.opt_lower_bound;
      summary.rule1_rejections = result.rule1_rejections;
      summary.rule2_rejections = result.rule2_rejections;
      summary.fleet = result.fleet;
      // Theorem 1's dispatch is the only reader of the order table.
      summary.dispatch_order_width = instance.dispatch_order_width();
      break;
    }
    case Algorithm::kTheorem2: {
      EnergyFlowOptions ef;
      ef.epsilon = options.epsilon;
      ef.alpha = options.alpha;
      ef.fleet = options.fleet;
      const auto result = run_energy_flow(instance, ef);
      summary.schedule = result.schedule;
      summary.rule1_rejections = result.rejections;
      summary.fleet = result.fleet;
      report_power = &power;
      break;
    }
    case Algorithm::kTheorem3: {
      // The configuration primal-dual solves an offline LP over a fixed
      // machine set — dynamic fleet membership has no meaning there.
      OSCHED_CHECK(options.fleet.empty())
          << "theorem3 does not support fleet plans";
      ConfigPDOptions pd;
      pd.alpha = options.alpha;
      pd.speed_levels = options.speed_levels;
      pd.start_grid = options.start_grid;
      const auto result = run_config_primal_dual(instance, pd);
      summary.schedule = result.schedule;
      summary.certified_lower_bound = result.opt_lower_bound;
      parallel_execution = true;
      require_deadlines = true;
      report_power = &power;
      break;
    }
    case Algorithm::kWeightedExt: {
      const auto result = run_weighted_rejection_flow(
          instance, {.epsilon = options.epsilon, .fleet = options.fleet});
      summary.schedule = result.schedule;
      summary.rule1_rejections = result.rule1_rejections;
      summary.rule2_rejections = result.rule2_rejections;
      summary.fleet = result.fleet;
      break;
    }
    case Algorithm::kGreedySpt: {
      ListSchedulerOptions ls{DispatchRule::kMinCompletion,
                              QueueDiscipline::kSpt, options.fleet};
      summary.schedule = run_list_scheduler(instance, ls, &summary.fleet);
      break;
    }
    case Algorithm::kFifo: {
      ListSchedulerOptions ls{DispatchRule::kMinBacklog,
                              QueueDiscipline::kFifo, options.fleet};
      summary.schedule = run_list_scheduler(instance, ls, &summary.fleet);
      break;
    }
    case Algorithm::kImmediateReject: {
      const auto result = run_immediate_rejection(
          instance, {.eps = options.epsilon, .fleet = options.fleet});
      summary.schedule = result.schedule;
      summary.rule1_rejections = result.rejections;
      summary.fleet = result.fleet;
      break;
    }
  }

  if (options.validate) {
    ValidationOptions validation;
    validation.allow_parallel_execution = parallel_execution;
    validation.require_deadlines = require_deadlines;
    check_schedule(summary.schedule, instance, validation);
  }
  summary.report = evaluate(summary.schedule, instance, report_power);
  return summary;
}

std::optional<RunSummary> run_by_name(const std::string& name,
                                      const Instance& instance,
                                      const RunOptions& options) {
  const auto algorithm = parse_algorithm(name);
  if (!algorithm.has_value()) return std::nullopt;
  return run(*algorithm, instance, options);
}

}  // namespace osched::api


// E8 — scheduler throughput (registered scenario "e8_throughput").
//
// The theory paper makes no performance claims; this scenario documents
// that the reference implementations scale to realistic workloads:
// Theorem 2's per-arrival cost is O(m * queue), Theorem 3's is
// O(strategies), and the weight-augmented treap behind Theorem 1's queries
// is O(log n). Metrics report jobs/second (ops/second for the treap).
// Theorem 1's own jobs/s is e16_hotpath's subject, at larger scale.
//
// Formerly a google-benchmark binary; now plain util::Timer units so the
// numbers land in the same JSON trajectory as every other scenario. The
// verdict is informational (always pass): wall-clock assertions in CI are
// flakiness generators. Because the metrics ARE wall-clock measurements,
// this is the one scenario whose report is not run-to-run deterministic —
// keep the "perf" tag out of determinism diffs (see harness/report.hpp).
#include "baselines/list_scheduler.hpp"
#include "core/energy_flow/energy_flow.hpp"
#include "core/energy_min/config_primal_dual.hpp"
#include "extensions/weighted_flow.hpp"
#include "harness/registry.hpp"
#include "lp/flow_time_lp.hpp"
#include "util/augmented_treap.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace osched;
using harness::CaseSpec;
using harness::MetricRow;
using harness::Scenario;
using harness::ScenarioReport;
using harness::UnitContext;
using harness::Verdict;

enum class Kind {
  kGreedySpt = 0,
  kEnergyFlow,
  kConfigPrimalDual,
  kTreap,
  kWeightedFlow,
  kFlowLp,
};

Instance flow_workload(std::size_t jobs, std::size_t machines,
                       std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.num_jobs = jobs;
  config.num_machines = machines;
  config.load = 1.1;
  config.sizes.dist = workload::SizeDistribution::kPareto;
  config.machines.model = workload::MachineModel::kUnrelated;
  config.seed = seed;
  return workload::generate_workload(config);
}

// The data structure behind Theorem 1's O(log n) dispatch queries.
struct TreapKey {
  double p;
  int id;
  bool operator<(const TreapKey& other) const {
    if (p != other.p) return p < other.p;
    return id < other.id;
  }
};
struct TreapWeight {
  double operator()(const TreapKey& k) const { return k.p; }
};

MetricRow run_throughput_unit(const UnitContext& ctx) {
  const auto kind = static_cast<Kind>(static_cast<int>(ctx.param("kind")));
  const auto n = ctx.scaled(static_cast<std::size_t>(ctx.param("n")));
  const auto machines =
      static_cast<std::size_t>(ctx.param_or("machines", 8.0));

  MetricRow row;
  double seconds = 0.0;
  double work_items = static_cast<double>(n);

  switch (kind) {
    case Kind::kGreedySpt: {
      const Instance instance = flow_workload(n, machines, ctx.seed);
      util::Timer timer;
      const Schedule schedule = run_greedy_spt(instance);
      seconds = timer.elapsed_seconds();
      row.set("completed", static_cast<double>(schedule.num_completed()));
      break;
    }
    case Kind::kEnergyFlow: {
      workload::WorkloadConfig config;
      config.num_jobs = n;
      config.num_machines = 4;
      config.load = 1.0;
      config.weights = workload::WeightDistribution::kUniform;
      config.seed = ctx.seed;
      const Instance instance = workload::generate_workload(config);
      EnergyFlowOptions options;
      options.epsilon = 0.4;
      options.alpha = 2.0;
      util::Timer timer;
      const auto result = run_energy_flow(instance, options);
      seconds = timer.elapsed_seconds();
      row.set("rejected", static_cast<double>(result.rejections));
      break;
    }
    case Kind::kConfigPrimalDual: {
      workload::WorkloadConfig config;
      config.num_jobs = n;
      config.num_machines = 2;
      config.with_deadlines = true;
      config.seed = ctx.seed;
      const Instance instance = workload::generate_workload(config);
      ConfigPDOptions options;
      options.alpha = 2.0;
      options.speed_levels = 6;
      util::Timer timer;
      const auto result = run_config_primal_dual(instance, options);
      seconds = timer.elapsed_seconds();
      row.set("energy", result.algorithm_energy);
      break;
    }
    case Kind::kTreap: {
      util::Rng rng(ctx.seed);
      std::vector<TreapKey> keys(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = TreapKey{rng.uniform(0.0, 1000.0), static_cast<int>(i)};
      }
      util::Timer timer;
      util::AugmentedTreap<TreapKey, TreapWeight> treap;
      double acc = 0.0;
      for (const TreapKey& key : keys) {
        treap.insert(key);
        acc += treap.stats_less(key).weight;
      }
      for (const TreapKey& key : keys) treap.erase(key);
      seconds = timer.elapsed_seconds();
      work_items = 3.0 * static_cast<double>(n);  // insert + query + erase
      row.set("acc", acc);
      break;
    }
    case Kind::kWeightedFlow: {
      // std::set pending queues, O(n) lambda scans — documented as
      // clarity-over-speed; this tracks the actual cost.
      workload::WorkloadConfig config;
      config.num_jobs = n;
      config.num_machines = 8;
      config.load = 1.2;
      config.weights = workload::WeightDistribution::kUniform;
      config.seed = ctx.seed;
      const Instance instance = workload::generate_workload(config);
      util::Timer timer;
      const auto result = run_weighted_rejection_flow(instance, {.epsilon = 0.2});
      seconds = timer.elapsed_seconds();
      row.set("rejected_weight", result.rejected_weight);
      break;
    }
    case Kind::kFlowLp: {
      // The simplex on the time-indexed flow LP: cost of a certificate.
      workload::WorkloadConfig config;
      config.num_jobs = n;
      config.num_machines = 2;
      config.load = 1.1;
      config.seed = ctx.seed;
      const Instance instance = workload::generate_workload(config);
      util::Timer timer;
      const auto result =
          lp::solve_flow_time_lp(instance, {.target_intervals = 48});
      seconds = timer.elapsed_seconds();
      row.set("lp_columns", static_cast<double>(result.num_columns));
      break;
    }
  }

  row.set("seconds", seconds);
  row.set("items_per_sec", seconds > 0.0 ? work_items / seconds : 0.0);
  return row;
}

Scenario make_e8() {
  Scenario scenario;
  scenario.name = "e8_throughput";
  scenario.description =
      "throughput microbenchmarks: jobs/s per scheduler, ops/s for the treap";
  scenario.tags = {"perf", "throughput"};
  scenario.repetitions = 3;
  const struct {
    const char* label;
    Kind kind;
    double n;
    double machines;
  } cells[] = {
      {"greedy_spt n=10000", Kind::kGreedySpt, 10000, 8},
      {"greedy_spt n=100000", Kind::kGreedySpt, 100000, 8},
      {"energy_flow n=1000", Kind::kEnergyFlow, 1000, 4},
      {"energy_flow n=10000", Kind::kEnergyFlow, 10000, 4},
      {"config_primal_dual n=100", Kind::kConfigPrimalDual, 100, 2},
      {"config_primal_dual n=500", Kind::kConfigPrimalDual, 500, 2},
      {"treap n=100000", Kind::kTreap, 100000, 0},
      {"weighted_flow n=1000", Kind::kWeightedFlow, 1000, 8},
      {"weighted_flow n=10000", Kind::kWeightedFlow, 10000, 8},
      {"flow_lp n=10", Kind::kFlowLp, 10, 2},
      {"flow_lp n=20", Kind::kFlowLp, 20, 2},
  };
  for (const auto& cell : cells) {
    scenario.grid.push_back(CaseSpec(cell.label)
                                .with("kind", static_cast<double>(cell.kind))
                                .with("n", cell.n)
                                .with("machines", cell.machines));
  }
  scenario.run_unit = run_throughput_unit;
  scenario.evaluate = [](const ScenarioReport&) {
    return Verdict{true, "informational: timings tracked, not asserted"};
  };
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e8);

}  // namespace

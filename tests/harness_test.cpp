// Tests for the scenario harness: registry registration/lookup/rejection,
// deterministic parallel execution (--jobs invariance), report emission,
// the registered smoke scenario's Theorem 1 rejection budget, and that
// every verdict clause of the degraded-mode soak fails when its column is
// broken.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/registry.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "metrics/ratio.hpp"
#include "util/rng.hpp"

namespace osched::harness {
namespace {

// A cheap synthetic scenario: metrics are a pure hash of the unit seed, so
// any scheduling nondeterminism shows up as a changed report.
Scenario synthetic_scenario(const std::string& name, std::size_t cases,
                            std::size_t repetitions) {
  Scenario scenario;
  scenario.name = name;
  scenario.description = "synthetic";
  scenario.tags = {"synthetic"};
  scenario.repetitions = repetitions;
  for (std::size_t c = 0; c < cases; ++c) {
    scenario.grid.push_back(CaseSpec("case-" + std::to_string(c))
                                .with("index", static_cast<double>(c)));
  }
  scenario.run_unit = [](const UnitContext& ctx) {
    util::Rng rng(ctx.seed);
    MetricRow row;
    row.set("value", rng.next_double());
    row.set("index_echo", ctx.param("index"));
    row.set("rep", static_cast<double>(ctx.repetition));
    return row;
  };
  return scenario;
}

// ---------------------------------------------------------------- CaseSpec

TEST(CaseSpec, ParamLookupAndFallback) {
  const CaseSpec spec = CaseSpec("x").with("eps", 0.25).with("m", 4.0);
  EXPECT_DOUBLE_EQ(spec.param("eps"), 0.25);
  EXPECT_DOUBLE_EQ(spec.param_or("m", 9.0), 4.0);
  EXPECT_DOUBLE_EQ(spec.param_or("absent", 9.0), 9.0);
  EXPECT_TRUE(spec.has_param("eps"));
  EXPECT_FALSE(spec.has_param("absent"));
}

TEST(UnitContext, ScaledShrinksWithFloorOne) {
  const CaseSpec spec("x");
  UnitContext ctx{spec, 1, 1, 0, 0, 0.25};
  EXPECT_EQ(ctx.scaled(1000), 250u);
  UnitContext tiny{spec, 1, 1, 0, 0, 1e-9};
  EXPECT_EQ(tiny.scaled(1000), 1u);
  UnitContext unit{spec, 1, 1, 0, 0, 1.0};
  EXPECT_EQ(unit.scaled(1000), 1000u);
}

// ---------------------------------------------------------------- MetricRow

TEST(MetricRow, SetGetOverwritePreservesOrder) {
  MetricRow row;
  row.set("b", 1.0);
  row.set("a", 2.0);
  row.set("b", 3.0);  // overwrite keeps position
  EXPECT_DOUBLE_EQ(row.get("b"), 3.0);
  EXPECT_TRUE(row.contains("a"));
  EXPECT_FALSE(row.contains("c"));
  ASSERT_EQ(row.entries().size(), 2u);
  EXPECT_EQ(row.entries()[0].first, "b");
  EXPECT_EQ(row.entries()[1].first, "a");
}

// ---------------------------------------------------------------- Registry

TEST(ScenarioRegistry, AddFindAndSortedListing) {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.add(synthetic_scenario("zeta", 1, 1)));
  EXPECT_TRUE(registry.add(synthetic_scenario("alpha", 1, 1)));
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.find("alpha"), nullptr);
  EXPECT_EQ(registry.find("alpha")->name, "alpha");
  EXPECT_EQ(registry.find("missing"), nullptr);
  const auto all = registry.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "alpha");  // sorted, not registration order
  EXPECT_EQ(all[1]->name, "zeta");
}

TEST(ScenarioRegistry, RejectsDuplicateName) {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.add(synthetic_scenario("dup", 1, 1)));
  EXPECT_FALSE(registry.add(synthetic_scenario("dup", 3, 2)));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ScenarioRegistry, RejectsMalformedScenarios) {
  ScenarioRegistry registry;
  EXPECT_FALSE(registry.add(synthetic_scenario("", 1, 1)));  // empty name

  Scenario no_grid = synthetic_scenario("no-grid", 1, 1);
  no_grid.grid.clear();
  EXPECT_FALSE(registry.add(std::move(no_grid)));

  Scenario no_runner = synthetic_scenario("no-runner", 1, 1);
  no_runner.run_unit = nullptr;
  EXPECT_FALSE(registry.add(std::move(no_runner)));

  Scenario no_reps = synthetic_scenario("no-reps", 1, 1);
  no_reps.repetitions = 0;
  EXPECT_FALSE(registry.add(std::move(no_reps)));

  EXPECT_EQ(registry.size(), 0u);
}

TEST(ScenarioRegistry, FilterMatchesTagsAndNameSubstrings) {
  ScenarioRegistry registry;
  Scenario tagged = synthetic_scenario("e1_demo", 1, 1);
  tagged.tags = {"smoke", "flow"};
  ASSERT_TRUE(registry.add(std::move(tagged)));
  ASSERT_TRUE(registry.add(synthetic_scenario("e2_other", 1, 1)));

  EXPECT_EQ(registry.matching("").size(), 2u);          // empty = everything
  EXPECT_EQ(registry.matching("smoke").size(), 1u);     // tag, exact
  EXPECT_EQ(registry.matching("e2").size(), 1u);        // name substring
  EXPECT_EQ(registry.matching("smoke,e2").size(), 2u);  // comma = OR
  EXPECT_EQ(registry.matching("nothing").size(), 0u);
  // Tag matching is exact: a tag prefix is not a match (only names match by
  // substring).
  EXPECT_EQ(registry.matching("smo").size(), 0u);
}

TEST(ScenarioRegistry, GlobalHoldsAllPortedBenchScenarios) {
  auto& registry = ScenarioRegistry::global();
  EXPECT_GE(registry.size(), 16u);
  for (const char* name :
       {"e1_flow_ratio", "e15_robustness", "e16_hotpath",
        "smoke_rejection_budget"}) {
    ASSERT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_TRUE(registry.find("smoke_rejection_budget")->has_tag("smoke"));
}

TEST(ScenarioRegistry, SlowPerfTierStaysOutOfQuickSelections) {
  // The large-n perf scenarios are tagged "slow" and must not ride into the
  // smoke batches that CI and the default test tier run.
  auto& registry = ScenarioRegistry::global();
  const Scenario* hotpath = registry.find("e16_hotpath");
  ASSERT_NE(hotpath, nullptr);
  EXPECT_TRUE(hotpath->has_tag("slow"));
  EXPECT_TRUE(hotpath->has_tag("perf"));
  for (const Scenario* selected : registry.matching("smoke")) {
    EXPECT_FALSE(selected->has_tag("slow")) << selected->name;
  }
  for (const Scenario* selected : registry.matching("-slow")) {
    EXPECT_FALSE(selected->has_tag("slow")) << selected->name;
  }
}

TEST(ScenarioRegistry, FilterExclusionTokens) {
  ScenarioRegistry registry;
  Scenario slow = synthetic_scenario("big_sweep", 1, 1);
  slow.tags = {"perf", "slow"};
  ASSERT_TRUE(registry.add(std::move(slow)));
  Scenario quick = synthetic_scenario("quick_check", 1, 1);
  quick.tags = {"perf"};
  ASSERT_TRUE(registry.add(std::move(quick)));

  // Pure exclusion starts from everything.
  ASSERT_EQ(registry.matching("-slow").size(), 1u);
  EXPECT_EQ(registry.matching("-slow")[0]->name, "quick_check");
  // Positive + exclusion composes.
  ASSERT_EQ(registry.matching("perf,-slow").size(), 1u);
  EXPECT_EQ(registry.matching("perf,-slow")[0]->name, "quick_check");
  // Exclusion also matches name substrings.
  ASSERT_EQ(registry.matching("perf,-quick").size(), 1u);
  EXPECT_EQ(registry.matching("perf,-quick")[0]->name, "big_sweep");
  // Exclusion can empty the selection.
  EXPECT_TRUE(registry.matching("perf,-perf").empty());
}

// ---------------------------------------------------------------- Runner

TEST(Runner, ScenarioSeedStableAndNameDependent) {
  EXPECT_EQ(scenario_seed(1, "a"), scenario_seed(1, "a"));
  EXPECT_NE(scenario_seed(1, "a"), scenario_seed(1, "b"));
  EXPECT_NE(scenario_seed(1, "a"), scenario_seed(2, "a"));
}

TEST(Runner, AggregatesEveryUnitOnce) {
  const Scenario scenario = synthetic_scenario("agg", 3, 5);
  RunnerOptions options;
  options.jobs = 4;
  const ScenarioReport report = run_scenario(scenario, options);
  ASSERT_EQ(report.cases.size(), 3u);
  for (const CaseResult& c : report.cases) {
    EXPECT_EQ(c.metric("value").count(), 5u);
    // rep metric saw each repetition exactly once: mean of 0..4 is 2.
    EXPECT_DOUBLE_EQ(c.metric("rep").mean(), 2.0);
    EXPECT_DOUBLE_EQ(c.metric("index_echo").mean(), c.spec.param("index"));
  }
  EXPECT_TRUE(report.verdict.pass);  // no evaluate() = pass
}

TEST(Runner, RepeatAddsTimingSamplesWithoutChangingDeterministicValues) {
  // Multi-repetition scenario: --repeat multiplies the sample count and
  // reruns every unit with its SAME seed (min/max envelopes unchanged).
  const Scenario reps3 = synthetic_scenario("repeat3", 2, 3);
  RunnerOptions once;
  once.jobs = 2;
  once.seed = 11;
  RunnerOptions repeated = once;
  repeated.repeat = 4;

  const ScenarioReport single3 = run_scenario(reps3, once);
  const ScenarioReport multi3 = run_scenario(reps3, repeated);
  ASSERT_EQ(single3.cases.size(), multi3.cases.size());
  for (std::size_t c = 0; c < single3.cases.size(); ++c) {
    EXPECT_EQ(single3.cases[c].metric("value").count(), 3u);
    EXPECT_EQ(multi3.cases[c].metric("value").count(), 12u);
    EXPECT_EQ(multi3.cases[c].metric("value").min(),
              single3.cases[c].metric("value").min());
    EXPECT_EQ(multi3.cases[c].metric("value").max(),
              single3.cases[c].metric("value").max());
  }

  // Single-repetition scenario (the perf tiers' shape): every repeat
  // reruns the one unit, so a deterministic metric's mean/min/max are
  // bit-identical to the repeat=1 run and spread-free — exactly the
  // property that lets compare_bench.py diff reports recorded with
  // different --repeat values.
  const Scenario reps1 = synthetic_scenario("repeat1", 2, 1);
  const ScenarioReport single1 = run_scenario(reps1, once);
  const ScenarioReport multi1 = run_scenario(reps1, repeated);
  for (std::size_t c = 0; c < single1.cases.size(); ++c) {
    const CaseResult& one = single1.cases[c];
    const CaseResult& rep = multi1.cases[c];
    EXPECT_EQ(rep.metric("value").count(), 4u);
    EXPECT_EQ(rep.metric("value").mean(), one.metric("value").mean());
    EXPECT_EQ(rep.metric("value").min(), one.metric("value").min());
    EXPECT_EQ(rep.metric("value").max(), one.metric("value").max());
    EXPECT_EQ(rep.metric("value").stddev(), 0.0);
  }
}

TEST(Runner, ReportIdenticalForAnyJobCount) {
  const Scenario a = synthetic_scenario("jobs-a", 4, 6);
  const Scenario b = synthetic_scenario("jobs-b", 2, 3);
  RunnerOptions serial;
  serial.jobs = 1;
  serial.seed = 7;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const std::string json_serial =
      to_json(run_batch({&a, &b}, serial), {/*include_timing=*/false});
  const std::string json_parallel =
      to_json(run_batch({&a, &b}, parallel), {/*include_timing=*/false});
  EXPECT_EQ(json_serial, json_parallel);
}

TEST(Runner, ScenarioResultsIndependentOfSelection) {
  const Scenario a = synthetic_scenario("sel-a", 2, 2);
  const Scenario b = synthetic_scenario("sel-b", 2, 2);
  RunnerOptions options;
  options.jobs = 2;
  const BatchReport both = run_batch({&a, &b}, options);
  const BatchReport solo = run_batch({&b}, options);
  const CaseResult& in_both = both.scenario("sel-b").cases[0];
  const CaseResult& in_solo = solo.scenario("sel-b").cases[0];
  EXPECT_DOUBLE_EQ(in_both.metric("value").mean(),
                   in_solo.metric("value").mean());
}

TEST(Runner, RunParallelUnitsCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(500);
  run_parallel_units(hits.size(), 8,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  run_parallel_units(0, 2, [](std::size_t) { FAIL() << "must not be called"; });
}

// ---------------------------------------------------------------- Report

TEST(Report, JsonCarriesSchemaAndMetrics) {
  const Scenario scenario = synthetic_scenario("json-demo", 1, 2);
  const BatchReport batch = run_batch({&scenario}, {});
  const std::string json = to_json(batch);
  EXPECT_NE(json.find("\"schema\": \"osched.bench.report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"json-demo\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"case-0\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);

  const std::string bare = to_json(batch, {/*include_timing=*/false});
  EXPECT_EQ(bare.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(bare.find("compute_seconds"), std::string::npos);
}

TEST(Report, CsvHasHeaderAndOneRowPerMetric) {
  const Scenario scenario = synthetic_scenario("csv-demo", 2, 1);
  const BatchReport batch = run_batch({&scenario}, {});
  std::ostringstream out;
  write_csv(batch, out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) ++count;
  // header + 2 cases x 3 metrics.
  EXPECT_EQ(count, 1u + 2u * 3u);
  EXPECT_EQ(out.str().rfind("scenario,case,metric,mean,stddev,min,max,count",
                            0),
            0u);
}

// ------------------------------------------------- registered smoke scenario

TEST(SmokeScenario, RespectsTheorem1RejectionBudget) {
  const Scenario* scenario =
      ScenarioRegistry::global().find("smoke_rejection_budget");
  ASSERT_NE(scenario, nullptr);
  RunnerOptions options;
  options.jobs = 2;
  options.scale = 0.5;
  const ScenarioReport report = run_scenario(*scenario, options);
  EXPECT_TRUE(report.verdict.pass) << report.verdict.note;
  for (const CaseResult& c : report.cases) {
    const double budget = theorem1_rejection_budget(c.spec.param("eps"));
    EXPECT_LE(c.metric("reject_fraction").max(), budget + 1e-12)
        << c.spec.label;
    EXPECT_GE(c.metric("feasible").min(), 1.0) << c.spec.label;
  }
}

TEST(SmokeScenario, DeterministicAcrossJobCounts) {
  const Scenario* scenario =
      ScenarioRegistry::global().find("smoke_rejection_budget");
  ASSERT_NE(scenario, nullptr);
  RunnerOptions serial;
  serial.jobs = 1;
  serial.scale = 0.25;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;
  const std::string a =
      to_json(run_batch({scenario}, serial), {/*include_timing=*/false});
  const std::string b =
      to_json(run_batch({scenario}, parallel), {/*include_timing=*/false});
  EXPECT_EQ(a, b);
}

// ------------------------------------------------ degraded-mode soak verdict

// Overwrites one column of one case with a single sample.
void set_metric(ScenarioReport* report, const std::string& label,
                const std::string& metric, double value) {
  for (CaseResult& c : report->cases) {
    if (c.spec.label != label) continue;
    for (std::size_t i = 0; i < c.metric_order.size(); ++i) {
      if (c.metric_order[i] != metric) continue;
      c.metrics[i] = util::RunningStats();
      c.metrics[i].add(value);
      return;
    }
  }
  ADD_FAILURE() << label << "/" << metric << " missing from the report";
}

TEST(DegradedSoak, EveryVerdictClauseBites) {
  const Scenario* scenario = ScenarioRegistry::global().find("e19_degraded");
  ASSERT_NE(scenario, nullptr);
  RunnerOptions options;
  options.jobs = 1;
  options.scale = 0.05;
  options.seed = 1;
  const ScenarioReport report = run_scenario(*scenario, options);
  ASSERT_TRUE(report.verdict.pass) << report.verdict.note;
  ASSERT_EQ(report.cases.size(), 25u);

  struct Edit {
    std::string label;
    std::string metric;
    double value;
  };
  // Applies the edits to a copy of the passing report and requires that
  // the verdict fails with a note naming the broken clause.
  const auto expect_fails = [&](const std::vector<Edit>& edits,
                                const std::string& clause) {
    ScenarioReport broken = report;
    for (const Edit& edit : edits) {
      set_metric(&broken, edit.label, edit.metric, edit.value);
    }
    const Verdict verdict = scenario->evaluate(broken);
    EXPECT_FALSE(verdict.pass) << edits.front().label << "/"
                               << edits.front().metric;
    EXPECT_NE(verdict.note.find(clause), std::string::npos)
        << "want '" << clause << "', got '" << verdict.note << "'";
  };

  // Per-cell 0/1 contract columns, by leg.
  for (const CaseResult& c : report.cases) {
    const std::string& label = c.spec.label;
    std::vector<std::string> flags;
    if (label.starts_with("faults ")) {
      flags = {"jobs_accounted", "ckpt_match"};
    } else if (label.starts_with("chaos ") || label.starts_with("adaptive ")) {
      flags = {"jobs_accounted", "ckpt_match",       "window_respected",
               "cap_bounded",    "budget_respected", "cap_moved"};
    } else {
      ASSERT_EQ(label, "multitenant drr");
      flags = {"jobs_accounted", "fair_invariant", "hot_clipped",
               "cold_never_deferred"};
    }
    for (const std::string& flag : flags) {
      expect_fails({{label, flag, 0.0}}, label + ": " + flag + " != 1");
    }
  }

  // The fixed plan's event counts are exact; the seeded plan's prefix
  // guarantees a floor.
  const std::pair<std::string, double> miscounts[] = {
      {"fleet_fails", 1},   {"fleet_drains", 0}, {"fleet_joins", 1},
      {"speed_changes", 1}, {"throttles", 0},    {"recoveries", 0},
      {"min_speed", 1.0}};
  for (const auto& [metric, bad] : miscounts) {
    expect_fails({{"faults fifo dense", metric, bad}},
                 "fleet schedule not fully observed (" + metric + ")");
  }
  for (const char* metric : {"seeded_fails", "seeded_drains", "seeded_joins",
                             "seeded_throttles", "seeded_recoveries"}) {
    expect_fails({{"chaos weighted dense", metric, 0.0}},
                 std::string("chaos schedule not fully observed (") + metric +
                     ")");
  }

  // Overload must bite in every regime. The triplet twins move with the
  // flagship so that only the overload clause can fire.
  std::vector<Edit> no_sheds;
  for (const char* cell : {"chaos theorem1 dense", "chaos theorem1 sparse",
                           "chaos theorem1 generator"}) {
    no_sheds.push_back({cell, "seeded_sheds", 0.0});
  }
  expect_fails(no_sheds, "window cap never triggered a shed");
  expect_fails({{"chaos theorem1 dense tightbudget", "seeded_backpressured",
                 0.0}},
               "backpressure not exercised");
  expect_fails({{"adaptive theorem1 adaptive epscharged", "seeded_sheds", 0.0},
                {"adaptive theorem1 adaptive epscharged",
                 "seeded_backpressured", 0.0}},
               "overload never engaged");

  // Storage invisibility: each twin must match dense on every output.
  for (const std::string leg : {"faults", "chaos"}) {
    std::vector<std::string> metrics = {"seeded_rejected", "seeded_completed",
                                        "seeded_total_flow"};
    if (leg == "chaos") metrics.push_back("seeded_sheds");
    for (const char* twin : {" theorem1 sparse", " theorem1 generator"}) {
      for (const std::string& metric : metrics) {
        const double dense =
            report.case_result(leg + " theorem1 dense").metric(metric).mean();
        expect_fails({{leg + twin, metric, dense + 1.0}},
                     "backend mismatch on " + leg + " " + metric);
      }
    }
  }
}

}  // namespace
}  // namespace osched::harness

// E23 — huge-m cloud-fleet soak (registered scenario "e23_cloudfleet").
//
// The perf tier behind the huge-m frontier work: the dense dispatch loops
// (util/dispatch_argmin.hpp), order-less dispatch past the uint16 order
// table's id ceiling, and sharded serving. One closed-form cloud fleet is
// exercised three ways:
//
//  1. Dispatch sweep, m = 64 -> 262144 on the GENERATOR backend (no n x m
//     matrix ever exists; the closed form synthesizes rows on demand).
//     Synthesizing a DENSE row is itself Theta(m) per job, so the dense
//     endpoints cannot witness sublinear selection; they instead gate
//     "never meaningfully superlinear" (kMaxDenseExponent) — the
//     regression tripwire for the lower-bound fill.
//  2. A huge-m SPARSE cell at m = 262144 with ~64 eligible machines per
//     job. No order table exists at this m (uint16 ids cannot name the
//     machines), so the idle argmin walks the ~64 eligible entries. The
//     per-job cost is still Theta(m): the batch run's job store
//     decompresses every dispatched row into an m-wide tile (the +infinity
//     fill dominates).
//     The cell's stored row work matches the dense m=64 cell (~64 entries
//     each) while m grows 4096x, and the verdict asserts the throughput
//     scaling exponent between the two stays below kMaxScalingExponent —
//     the "fleet frontier" property.
//  3. Streamed fleet serving at m = 4096: one generator-backed session
//     (metadata-only submissions) vs its batch twin — byte-identical
//     deterministic outputs asserted — plus an S=8 ShardDriver.
//     scripts/compare_bench.py prints shard-scaling efficiency from the
//     "sharded" / "stream t1" label pair.
//
// Every case reports the order-table width its dispatch walked
// (tier_order_width: 0 / 16) so a perf number is always attributable to
// the code path that produced it. compare_bench.py reports tier changes
// informationally instead of failing the diff: both paths make
// bit-identical decisions (tests/dispatch_index_test.cpp).
//
// Tags: "perf" + "slow" like e16-e21; CI's e23 smoke gate runs it at
// --scale 0.02 with --require-passed, so the sublinearity and
// byte-equality verdicts gate merges at reduced scale too.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "harness/registry.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/generated_family.hpp"

#include "peak_rss.hpp"

namespace {

using namespace osched;
using harness::CaseSpec;
using harness::MetricRow;
using harness::Scenario;
using harness::ScenarioReport;
using harness::UnitContext;
using harness::Verdict;
using bench::peak_rss_mib;

constexpr double kEpsilon = 0.25;
constexpr std::size_t kFleetMachines = 4096;
/// Machine-selection cost must scale no worse than m^kMaxScalingExponent
/// between the equal-row-work cells (dense m=64 vs sparse m=262144).
/// Exponent 1.0 = linear selection, the pre-index shadow-scan behavior;
/// the indexed path measures ~0.6, so 0.95 rejects a linear
/// regression outright with ample noise margin.
constexpr double kMaxScalingExponent = 0.95;
/// The dense sweep includes Theta(m) per-job row synthesis, so its honest
/// bound is "at most linear, modulo the cache cliff at a 1 MiB row":
/// exponent must stay below this cap or the dispatch layer (not the
/// generator) has regressed.
constexpr double kMaxDenseExponent = 1.05;

enum class Mode {
  kStream = 0,  ///< one generator-backed session, metadata-only feed
  kSharded,     ///< ShardDriver: 8 generator tenants
  kBatch,       ///< api::run on the same generator instance (stream twin)
  kDispatch,    ///< batch dispatch sweep cell (generator backend)
  kDispatchSparse,  ///< huge-m sparse cell: ~64 eligible machines per job
};

workload::ClosedFormConfig fleet_config(std::uint64_t seed, std::size_t n,
                                        std::size_t m) {
  workload::ClosedFormConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.1;
  return config;
}

/// The tier attribution every case carries: the order width from the
/// summary (16 for matrix backends below 65536 machines, else 0).
void set_tier_metrics(MetricRow& row, const api::RunSummary& summary) {
  row.set("tier_order_width",
          static_cast<double>(summary.dispatch_order_width));
}

void set_deterministic_metrics(MetricRow& row, std::size_t rejected,
                               std::size_t completed, double total_flow) {
  row.set("rejected", static_cast<double>(rejected));
  row.set("completed", static_cast<double>(completed));
  row.set("total_flow", total_flow);
}

service::SessionOptions fleet_session_options(
    const workload::ClosedFormConfig& config) {
  service::SessionOptions options;
  options.run.epsilon = kEpsilon;
  options.run.validate = false;
  options.retain_records = false;
  options.storage = StorageBackend::kGenerator;
  options.generator = workload::make_closed_form_generator(config);
  return options;
}

MetricRow run_stream_case(const UnitContext& ctx, std::size_t n) {
  const workload::ClosedFormConfig config =
      fleet_config(ctx.scenario_seed, n, kFleetMachines);
  // kGenerator materialization is job records only — the metadata source.
  const Instance instance =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  service::SchedulerSession session(api::Algorithm::kTheorem1, kFleetMachines,
                                    fleet_session_options(config));
  util::Timer timer;
  StreamJob job;
  for (std::size_t idx = 0; idx < n; ++idx) {
    fill_stream_job_meta(instance.job(static_cast<JobId>(idx)), 0.0, &job);
    session.submit(job);
  }
  const api::RunSummary summary = session.drain();
  const double seconds = timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  set_tier_metrics(row, summary);
  set_deterministic_metrics(row, summary.report.num_rejected,
                            summary.report.num_completed,
                            summary.report.total_flow);
  return row;
}

MetricRow run_sharded_case(const UnitContext& ctx, std::size_t n) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kWave = 8192;  ///< ops staged per shard per wave
  const std::size_t per_shard = std::max<std::size_t>(1, n / kShards);
  // Eight identical tenants of the same closed form (each session indexes
  // the generator by ITS OWN job ids, so equal feeds mean equal fleets) —
  // the serving-throughput shape, not a differential.
  const workload::ClosedFormConfig config =
      fleet_config(util::derive_seed(ctx.scenario_seed, 23), per_shard,
                   kFleetMachines);
  const Instance instance =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  service::ShardDriverOptions options;
  options.session = fleet_session_options(config);
  service::ShardDriver driver(api::Algorithm::kTheorem1, kShards,
                              kFleetMachines, options);
  util::Timer timer;
  StreamJob job;
  for (std::size_t at = 0; at < per_shard; at += kWave) {
    const std::size_t take = std::min(kWave, per_shard - at);
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t k = 0; k < take; ++k) {
        fill_stream_job_meta(instance.job(static_cast<JobId>(at + k)), 0.0,
                             &job);
        driver.submit(s, job);
      }
      driver.flush();
    }
    driver.sync();
  }
  const std::vector<api::RunSummary> summaries = driver.drain_all();
  const double seconds = timer.elapsed_seconds();

  std::size_t rejected = 0;
  std::size_t completed = 0;
  double total_flow = 0.0;
  for (const api::RunSummary& summary : summaries) {
    rejected += summary.report.num_rejected;
    completed += summary.report.num_completed;
    total_flow += summary.report.total_flow;
  }
  const auto total_jobs = static_cast<double>(per_shard * kShards);
  const auto workers =
      static_cast<double>(std::max<std::size_t>(1, driver.worker_count()));
  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec", seconds > 0.0 ? total_jobs / seconds : 0.0);
  row.set("per_worker_jobs_per_sec",
          seconds > 0.0 ? total_jobs / seconds / workers : 0.0);
  row.set("workers", workers);
  row.set("peak_rss_mib", peak_rss_mib());
  set_tier_metrics(row, summaries.front());
  set_deterministic_metrics(row, rejected, completed, total_flow);
  return row;
}

MetricRow run_batch_case(const UnitContext& ctx, std::size_t n) {
  // The SAME workload run_stream_case fed (same config, same seed), as one
  // batch run on the generator instance.
  const workload::ClosedFormConfig config =
      fleet_config(ctx.scenario_seed, n, kFleetMachines);
  const Instance instance =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  api::RunOptions options;
  options.epsilon = kEpsilon;
  options.validate = false;
  util::Timer timer;
  const api::RunSummary summary =
      api::run(api::Algorithm::kTheorem1, instance, options);
  const double seconds = timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  set_tier_metrics(row, summary);
  set_deterministic_metrics(row, summary.report.num_rejected,
                            summary.report.num_completed,
                            summary.report.total_flow);
  return row;
}

MetricRow run_dispatch_case(const UnitContext& ctx, std::size_t n,
                            std::size_t m, bool sparse) {
  workload::ClosedFormConfig config =
      fleet_config(util::derive_seed(ctx.scenario_seed, 91), n, m);
  if (sparse) {
    // ~64 eligible machines per job regardless of m: the stored row is
    // O(eligible), but the view's tile fill is Theta(m) per job.
    config.eligibility =
        std::min(1.0, 64.0 / static_cast<double>(m));
  }
  const Instance instance = workload::make_closed_form_instance(
      config, sparse ? StorageBackend::kSparseCsr : StorageBackend::kGenerator);
  api::RunOptions options;
  options.epsilon = kEpsilon;
  options.validate = false;
  util::Timer timer;
  const api::RunSummary summary =
      api::run(api::Algorithm::kTheorem1, instance, options);
  const double seconds = timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  set_tier_metrics(row, summary);
  set_deterministic_metrics(row, summary.report.num_rejected,
                            summary.report.num_completed,
                            summary.report.total_flow);
  return row;
}

MetricRow run_e23_unit(const UnitContext& ctx) {
  const auto mode = static_cast<Mode>(static_cast<int>(ctx.param("mode")));
  const std::size_t n = ctx.scaled(static_cast<std::size_t>(ctx.param("n")));
  switch (mode) {
    case Mode::kStream: return run_stream_case(ctx, n);
    case Mode::kSharded: return run_sharded_case(ctx, n);
    case Mode::kBatch: return run_batch_case(ctx, n);
    case Mode::kDispatch:
      return run_dispatch_case(
          ctx, n, static_cast<std::size_t>(ctx.param("m")), false);
    case Mode::kDispatchSparse:
      return run_dispatch_case(
          ctx, n, static_cast<std::size_t>(ctx.param("m")), true);
  }
  OSCHED_CHECK(false) << "unreachable mode";
  return MetricRow{};
}

Scenario make_e23() {
  Scenario scenario;
  scenario.name = "e23_cloudfleet";
  scenario.description =
      "huge-m cloud fleet: generator dispatch sweep m=64..262144 with "
      "sublinear-in-m verdict, huge-m sparse cell, streamed vs batch twin, "
      "sharded fleet";
  scenario.tags = {"perf", "streaming", "storage", "slow"};
  scenario.repetitions = 1;
  const struct {
    const char* label;
    Mode mode;
    double n;
    double m;
  } cells[] = {
      // Streamed cases first (peak RSS is a process high-water mark).
      {"stream t1 fleet m=4096 n=200000", Mode::kStream, 200000, 4096},
      {"stream sharded S=8 m=4096 n=200000", Mode::kSharded, 200000, 4096},
      {"batch t1 fleet m=4096 n=200000", Mode::kBatch, 200000, 4096},
      // The generator dispatch sweep: 4096x in m, 64 -> 262144.
      {"dispatch gen m=64 n=20000", Mode::kDispatch, 20000, 64},
      {"dispatch gen m=1024 n=20000", Mode::kDispatch, 20000, 1024},
      {"dispatch gen m=16384 n=20000", Mode::kDispatch, 20000, 16384},
      {"dispatch gen m=262144 n=5000", Mode::kDispatch, 5000, 262144},
      // Huge m, bounded eligibility.
      {"dispatch sparse m=262144 n=20000", Mode::kDispatchSparse, 20000,
       262144},
  };
  for (const auto& cell : cells) {
    scenario.grid.push_back(CaseSpec(cell.label)
                                .with("mode", static_cast<double>(cell.mode))
                                .with("n", cell.n)
                                .with("m", cell.m));
  }
  scenario.run_unit = run_e23_unit;
  scenario.evaluate = [](const ScenarioReport& report) {
    // Gate 1: streamed == batch, bit for bit, on the shared fleet.
    const auto& streamed = report.case_result("stream t1 fleet m=4096 n=200000");
    const auto& batch = report.case_result("batch t1 fleet m=4096 n=200000");
    for (const char* metric : {"rejected", "completed", "total_flow"}) {
      const double a = streamed.metric(metric).mean();
      const double b = batch.metric(metric).mean();
      if (a != b) {
        return Verdict{false, std::string("streamed/batch mismatch on ") +
                                  metric + ": " + std::to_string(a) + " vs " +
                                  std::to_string(b)};
      }
    }
    // Gate 2: sublinear MACHINE SELECTION. A dense generator row is
    // synthesized per job and is itself Theta(m), so the dense endpoints
    // can never separate selection cost from row materialization. The
    // two cells below hold per-job row work constant (~64 entries each:
    // dense m=64, and sparse m=262144 with eligibility 64/m) while m
    // grows 4096x — the throughput gap is selection cost plus the sparse
    // view's m-wide tile fill. With that cost ~ m^e,
    // thr(64)/thr(262144) ~ 4096^e; assert e < kMaxScalingExponent.
    const double thr_small =
        report.case_result("dispatch gen m=64 n=20000")
            .metric("jobs_per_sec").mean();
    const double thr_select =
        report.case_result("dispatch sparse m=262144 n=20000")
            .metric("jobs_per_sec").mean();
    const double thr_dense_large =
        report.case_result("dispatch gen m=262144 n=5000")
            .metric("jobs_per_sec").mean();
    if (!(thr_small > 0.0) || !(thr_select > 0.0) ||
        !(thr_dense_large > 0.0)) {
      return Verdict{false, "dispatch sweep produced a zero throughput"};
    }
    const double m_ratio = 262144.0 / 64.0;
    const double exponent =
        std::log(thr_small / thr_select) / std::log(m_ratio);
    if (!(exponent < kMaxScalingExponent)) {
      return Verdict{false,
                     "machine selection not sublinear in m: exponent " +
                         std::to_string(exponent) + " (thr m=64 " +
                         std::to_string(thr_small) + ", sparse m=262144 " +
                         std::to_string(thr_select) + "), cap " +
                         std::to_string(kMaxScalingExponent)};
    }
    // Gate 3: the dense sweep may approach linear (row synthesis is
    // Theta(m)) but must never go meaningfully SUPERlinear — that would
    // mean the dispatch layer regressed, not the generator.
    const double dense_exponent =
        std::log(thr_small / thr_dense_large) / std::log(m_ratio);
    if (!(dense_exponent < kMaxDenseExponent)) {
      return Verdict{false,
                     "dense dispatch went superlinear in m: exponent " +
                         std::to_string(dense_exponent) + ", cap " +
                         std::to_string(kMaxDenseExponent)};
    }
    char note[200];
    std::snprintf(note, sizeof(note),
                  "streamed == batch bit-for-bit; selection exponent %.3f "
                  "(cap %.2f), dense sweep exponent %.3f (cap %.2f) over "
                  "4096x m",
                  exponent, kMaxScalingExponent, dense_exponent,
                  kMaxDenseExponent);
    return Verdict{true, note};
  };
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e23);

}  // namespace

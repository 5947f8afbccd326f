// E21 — multi-tenant storage soak (registered scenario "e21_multitenant").
//
// The perf tier behind carrying the storage-backend trio through the
// streaming path: a ShardDriver fleet of THOUSANDS of sparse-CSR sessions at
// m = 4096 ingests millions of jobs (8 eligible machines each), and the
// scenario verdict asserts the PR's two contracts in-process:
//
//  1. Determinism: dense, sparse and generator sessions of the same
//     workload drain bit-identical rejected / completed / total_flow — the
//     in-bench restatement of the tests/streaming_test.cpp trio wall, at a
//     machine count the unit tests do not reach.
//  2. Memory: a sparse tenant's matrix_peak_bytes is <= 1% of its dense
//     twin's at m = 4096 (8/4096 eligibility is ~0.2%), a
//     generator tenant's is exactly zero, and the whole sparse fleet holds
//     <= 1% of the bytes a dense fleet of the same jobs would.
//
// Workload: a bench-local sparse closed form — every job's eligible set
// (8 distinct machines of 4096) and its p values are pure hashes of
// (seed, tenant, job), so any tenant's stream regenerates in O(k) per job
// with no per-tenant matrix anywhere in the bench itself. The full-elig
// pair reuses workload/generated_family's closed form, whose generator
// backend needs full eligibility by contract.
//
// Both the tenant count and the per-tenant job count take --scale (the grid
// cell names full scale: S = 2048 tenants x 1000 jobs = ~2M jobs, ~2-3 GiB
// peak for the fleet's per-machine policy state); CI's perf-smoke runs at
// --scale 0.05 (S = 102 x 50 jobs) against BENCH_e21_multitenant.json.
// Compact cases run FIRST: peak RSS is a process-wide high-water mark and
// the dense twins would mask them.
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
// Peak RSS is monotone per process, hence the compact-cases-first grid order.
using bench::peak_rss_mib;

constexpr std::size_t kMachines = 4096;
constexpr std::size_t kEligible = 8;
constexpr double kEpsilon = 0.25;
constexpr double kParetoShape = 1.8;
constexpr double kMinSize = 0.5;
constexpr double kSpeedSpread = 4.0;

enum class Mode {
  kFleetSparse = 0,  ///< ShardDriver: S sparse tenants, the headline soak
  kTwin,             ///< one session of `backend` over a twin-able family
};

enum class TwinFamily {
  kRestricted = 0,  ///< bench-local k-of-m sparse closed form
  kClosedForm,      ///< workload/generated_family, fully eligible
};

// --------------------------------------- the bench-local sparse closed form

/// SplitMix64 finalizer as a stateless hash, same construction the shared
/// closed-form family uses (distinct salts, bench-local stream).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t key(std::uint64_t seed, std::uint64_t salt, std::uint64_t tenant,
                  std::uint64_t j, std::uint64_t slot) {
  return mix(seed ^ salt ^ (tenant * 0xd6e8feb86659fd93ULL) ^
             (j * 0x9e3779b97f4a7c15ULL) ^ (slot * 0xc2b2ae3d27d4eb4fULL));
}

constexpr std::uint64_t kSaltMachine = 0x5EA45EA45EA45EA4ULL;
constexpr std::uint64_t kSaltBase = 0xBA5E0FF1CE000000ULL;
constexpr std::uint64_t kSaltSpeed = 0xFA57FA57FA57FA57ULL;

/// Job (tenant, j)'s eligible entries: kEligible distinct machines of
/// kMachines (hash draws, linear-probed past collisions, sorted ascending)
/// with Pareto(kMinSize, kParetoShape) x log-uniform p values. Pure in
/// (seed, tenant, j) — O(k) time, no matrix anywhere.
void fill_fleet_entries(std::uint64_t seed, std::uint64_t tenant,
                        std::uint64_t j, StreamJob* out) {
  std::size_t ids[kEligible];
  for (std::size_t s = 0; s < kEligible; ++s) {
    std::size_t id = static_cast<std::size_t>(
        key(seed, kSaltMachine, tenant, j, s) % kMachines);
    bool taken = true;
    while (taken) {
      taken = false;
      for (std::size_t t = 0; t < s; ++t) {
        if (ids[t] == id) {
          id = (id + 1) % kMachines;
          taken = true;
          break;
        }
      }
    }
    ids[s] = id;
  }
  std::sort(ids, ids + kEligible);

  const double base =
      kMinSize * std::pow(1.0 - u01(key(seed, kSaltBase, tenant, j, 0)),
                          -1.0 / kParetoShape);
  const double ln_spread = std::log(kSpeedSpread);
  out->entries.clear();
  out->processing.clear();
  for (std::size_t s = 0; s < kEligible; ++s) {
    const double u = u01(key(seed, kSaltSpeed, tenant, j, ids[s]));
    out->entries.push_back(
        SparseEntry{static_cast<MachineId>(ids[s]),
                    base * std::exp(ln_spread * (2.0 * u - 1.0))});
  }
}

/// The restricted twin family as a materialized Instance (tenant 0's
/// stream) under `backend` — what the twin cells feed and the fleet's
/// per-job generation must agree with entry for entry.
Instance make_fleet_instance(std::uint64_t seed, std::size_t n,
                             StorageBackend backend) {
  util::Rng rng(util::derive_seed(seed, 0));
  const double mean_size = kMinSize * kParetoShape / (kParetoShape - 1.0);
  const double rate = 4.0 / mean_size;
  std::vector<Job> jobs(n);
  std::vector<std::vector<SparseEntry>> rows(n);
  StreamJob scratch;
  Time t = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    t += rng.exponential(rate);
    jobs[j].id = static_cast<JobId>(j);
    jobs[j].release = t;
    jobs[j].weight = 1.0;
    jobs[j].deadline = kTimeInfinity;
    fill_fleet_entries(seed, 0, j, &scratch);
    rows[j] = scratch.entries;
  }
  Instance sparse =
      Instance::from_sparse_rows(std::move(jobs), kMachines, std::move(rows));
  return backend == StorageBackend::kSparseCsr
             ? std::move(sparse)
             : sparse.with_backend(backend);
}

service::SessionOptions low_memory_options(StorageBackend storage) {
  service::SessionOptions options;
  options.run.epsilon = kEpsilon;
  options.run.validate = false;
  options.retain_records = false;
  options.storage = storage;
  return options;
}

// ------------------------------------------------------------------- cases

MetricRow run_fleet_case(const UnitContext& ctx, std::size_t tenants,
                         std::size_t per_tenant) {
  service::ShardDriverOptions options;
  options.session = low_memory_options(StorageBackend::kSparseCsr);
  service::ShardDriver driver(api::Algorithm::kTheorem1, tenants, kMachines,
                              options);
  // Per-tenant arrival clocks, independent exponential streams (the same
  // construction make_fleet_instance uses, so tenant 0's stream IS the twin
  // cells' instance).
  const double mean_size = kMinSize * kParetoShape / (kParetoShape - 1.0);
  const double rate = 4.0 / mean_size;
  std::vector<util::Rng> rngs;
  rngs.reserve(tenants);
  for (std::size_t s = 0; s < tenants; ++s) {
    rngs.emplace_back(util::derive_seed(ctx.scenario_seed, s));
  }
  std::vector<Time> clocks(tenants, 0.0);

  constexpr std::size_t kWave = 50;
  double feed_seconds = 0.0;
  StreamJob job;
  job.weight = 1.0;
  job.deadline = kTimeInfinity;
  for (std::size_t produced = 0; produced < per_tenant; produced += kWave) {
    const std::size_t take = std::min(kWave, per_tenant - produced);
    util::Timer timer;
    for (std::size_t s = 0; s < tenants; ++s) {
      for (std::size_t k = 0; k < take; ++k) {
        clocks[s] += rngs[s].exponential(rate);
        job.release = clocks[s];
        fill_fleet_entries(ctx.scenario_seed, s, produced + k, &job);
        driver.submit(s, job);
      }
      driver.flush();  // workers chew tenant s while we stage tenant s+1
    }
    driver.sync();
    feed_seconds += timer.elapsed_seconds();
  }

  std::size_t max_live = 0;
  std::size_t matrix_peak = 0;
  for (std::size_t s = 0; s < tenants; ++s) {
    max_live += driver.session(s).max_live_jobs();
    matrix_peak += driver.session(s).matrix_peak_bytes();
  }
  util::Timer drain_timer;
  const std::vector<api::RunSummary> summaries = driver.drain_all();
  feed_seconds += drain_timer.elapsed_seconds();

  std::size_t rejected = 0;
  std::size_t completed = 0;
  double total_flow = 0.0;
  for (const api::RunSummary& summary : summaries) {
    rejected += summary.report.num_rejected;
    completed += summary.report.num_completed;
    total_flow += summary.report.total_flow;
  }
  const auto total_jobs = static_cast<double>(tenants * per_tenant);
  // What a dense fleet of the same jobs would hold in p rows: the
  // denominator of the headline ratio.
  const double dense_equiv =
      total_jobs * static_cast<double>(kMachines) * sizeof(Work);

  const auto workers =
      static_cast<double>(std::max<std::size_t>(1, driver.worker_count()));
  MetricRow row;
  row.set("seconds", feed_seconds);
  row.set("jobs_per_sec", feed_seconds > 0.0 ? total_jobs / feed_seconds : 0.0);
  row.set("workers", workers);
  row.set("peak_rss_mib", peak_rss_mib());
  row.set("max_live_jobs", static_cast<double>(max_live));
  row.set("matrix_peak_bytes", static_cast<double>(matrix_peak));
  row.set("matrix_vs_dense", dense_equiv > 0.0
                                 ? static_cast<double>(matrix_peak) / dense_equiv
                                 : 0.0);
  row.set("rejected", static_cast<double>(rejected));
  row.set("completed", static_cast<double>(completed));
  row.set("total_flow", total_flow);
  return row;
}

MetricRow run_twin_case(const UnitContext& ctx, TwinFamily family,
                        StorageBackend backend, std::size_t n) {
  Instance instance;
  service::SessionOptions options = low_memory_options(backend);
  if (family == TwinFamily::kRestricted) {
    // The dense twin materializes the restricted family's full matrix; the
    // sparse cell only ever holds the 8-entry rows.
    instance = make_fleet_instance(
        ctx.scenario_seed, n,
        backend == StorageBackend::kGenerator ? StorageBackend::kSparseCsr
                                              : backend);
  } else {
    workload::ClosedFormConfig config;
    config.num_jobs = n;
    config.num_machines = kMachines;
    config.seed = util::derive_seed(ctx.scenario_seed, 77);
    config.load = 1.1;
    instance = workload::make_closed_form_instance(config, backend);
    if (backend == StorageBackend::kGenerator) {
      options.generator = workload::make_closed_form_generator(config);
    }
  }

  service::SchedulerSession session(api::Algorithm::kTheorem1, kMachines,
                                    options);
  const bool meta_only = backend == StorageBackend::kGenerator;
  util::Timer timer;
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    if (meta_only) {
      fill_stream_job_meta(instance.job(j), 0.0, &job);
    } else {
      fill_stream_job(instance, j, 0.0, &job);
    }
    session.submit(job);
  }
  const std::size_t matrix_peak = session.matrix_peak_bytes();
  const api::RunSummary summary = session.drain();
  const double seconds = timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  row.set("matrix_peak_bytes", static_cast<double>(matrix_peak));
  row.set("rejected", static_cast<double>(summary.report.num_rejected));
  row.set("completed", static_cast<double>(summary.report.num_completed));
  row.set("total_flow", summary.report.total_flow);
  return row;
}

MetricRow run_e21_unit(const UnitContext& ctx) {
  const auto mode = static_cast<Mode>(static_cast<int>(ctx.param("mode")));
  if (mode == Mode::kFleetSparse) {
    return run_fleet_case(
        ctx, ctx.scaled(static_cast<std::size_t>(ctx.param("tenants"))),
        ctx.scaled(static_cast<std::size_t>(ctx.param("n"))));
  }
  return run_twin_case(
      ctx, static_cast<TwinFamily>(static_cast<int>(ctx.param("family"))),
      static_cast<StorageBackend>(static_cast<int>(ctx.param("backend"))),
      ctx.scaled(static_cast<std::size_t>(ctx.param("n"))));
}

Scenario make_e21() {
  Scenario scenario;
  scenario.name = "e21_multitenant";
  scenario.description =
      "multi-tenant storage soak: a sparse-CSR session fleet at m=4096 plus "
      "dense/sparse/generator twin sessions, byte-identical outputs and "
      "collapsed matrix bytes asserted";
  scenario.tags = {"perf", "streaming", "storage", "slow"};
  scenario.repetitions = 1;
  const struct {
    const char* label;
    Mode mode;
    double family;
    double backend;
    double tenants;
    double n;
  } cells[] = {
      // Compact cases FIRST (peak RSS is a process high-water mark).
      {"fleet sparse S=2048 n/tenant=1000 m=4096 k=8", Mode::kFleetSparse, 0,
       static_cast<double>(StorageBackend::kSparseCsr), 2048, 1000},
      {"twin sparse n=2000 m=4096 k=8", Mode::kTwin,
       static_cast<double>(TwinFamily::kRestricted),
       static_cast<double>(StorageBackend::kSparseCsr), 0, 2000},
      {"twin generator n=2000 m=4096", Mode::kTwin,
       static_cast<double>(TwinFamily::kClosedForm),
       static_cast<double>(StorageBackend::kGenerator), 0, 2000},
      {"twin dense n=2000 m=4096 k=8", Mode::kTwin,
       static_cast<double>(TwinFamily::kRestricted),
       static_cast<double>(StorageBackend::kDense), 0, 2000},
      {"twin gdense n=2000 m=4096", Mode::kTwin,
       static_cast<double>(TwinFamily::kClosedForm),
       static_cast<double>(StorageBackend::kDense), 0, 2000},
  };
  for (const auto& cell : cells) {
    scenario.grid.push_back(CaseSpec(cell.label)
                                .with("mode", static_cast<double>(cell.mode))
                                .with("family", cell.family)
                                .with("backend", cell.backend)
                                .with("tenants", cell.tenants)
                                .with("n", cell.n));
  }
  scenario.run_unit = run_e21_unit;
  scenario.evaluate = [](const ScenarioReport& report) {
    // Contract 1: byte-identical deterministic outputs per twin pair.
    const struct {
      const char* compact;
      const char* dense;
    } pairs[] = {
        {"twin sparse n=2000 m=4096 k=8", "twin dense n=2000 m=4096 k=8"},
        {"twin generator n=2000 m=4096", "twin gdense n=2000 m=4096"},
    };
    for (const auto& pair : pairs) {
      const auto& compact = report.case_result(pair.compact);
      const auto& dense = report.case_result(pair.dense);
      for (const char* metric : {"rejected", "completed", "total_flow"}) {
        const double a = compact.metric(metric).mean();
        const double b = dense.metric(metric).mean();
        if (a != b) {
          return Verdict{false, std::string("backend mismatch on ") + metric +
                                    " (" + pair.compact + " vs " + pair.dense +
                                    "): " + std::to_string(a) + " vs " +
                                    std::to_string(b)};
        }
      }
      // Contract 2: <= 1% of the dense twin's matrix bytes at m = 4096.
      const double compact_bytes = compact.metric("matrix_peak_bytes").mean();
      const double dense_bytes = dense.metric("matrix_peak_bytes").mean();
      if (!(compact_bytes <= 0.01 * dense_bytes)) {
        return Verdict{false, std::string(pair.compact) + " holds " +
                                  std::to_string(compact_bytes) +
                                  " matrix bytes, not <= 1% of the dense "
                                  "twin's " +
                                  std::to_string(dense_bytes)};
      }
    }
    // A generator session never holds ANY matrix bytes.
    const double generator_bytes = report.case_result("twin generator n=2000 m=4096")
                                       .metric("matrix_peak_bytes")
                                       .mean();
    if (generator_bytes != 0.0) {
      return Verdict{false, "generator session reports " +
                                std::to_string(generator_bytes) +
                                " matrix bytes; the contract is zero"};
    }
    // The fleet headline: the whole sparse fleet under 1% of its would-be
    // dense footprint.
    const double fleet_ratio =
        report.case_result("fleet sparse S=2048 n/tenant=1000 m=4096 k=8")
            .metric("matrix_vs_dense")
            .mean();
    if (!(fleet_ratio <= 0.01)) {
      return Verdict{false, "sparse fleet holds " +
                                std::to_string(100.0 * fleet_ratio) +
                                "% of the dense-equivalent matrix bytes"};
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "backends byte-identical; sparse fleet at %.3f%% of the "
                  "dense-equivalent bytes",
                  100.0 * fleet_ratio);
    return Verdict{true, buf};
  };
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e21);

}  // namespace

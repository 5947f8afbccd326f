// E17 — streaming sessions at scale (registered scenario "e17_streaming").
//
// The perf tier behind the service/ subsystem: Theorem 1 as a long-lived
// SchedulerSession fed n = 10^6 jobs in 64k-job chunks, in low-memory mode
// (records, job rows and per-job dual state are folded and released as the
// decided frontier advances), against the batch api::run() twin of the SAME
// workload. Reported per case: jobs/sec, peak RSS, and the deterministic
// outputs (rejected/completed/total_flow, max live jobs) that
// scripts/compare_bench.py diffs exactly across runs and binaries. The
// batch case times the run alone (jobs/sec) and, as
// construct_run_jobs_per_sec, the Instance construction plus the run.
//
// The scenario's verdict asserts the acceptance property in-process: the
// streamed session's totals are BIT-identical to the batch run's. The
// memory property shows up in the metrics: the streamed case's peak RSS is
// bounded by the live-job window (max_live_jobs), not the trace length —
// run with --jobs 1 and keep the grid order (streaming cases first; peak
// RSS is a process-wide high-water mark, so a batch case run earlier would
// mask the streaming cases' footprint).
//
// Tags: "perf" + "slow", like e16; CI's stream-fuzz-smoke job runs it at
// --scale 0.05 with the perf-smoke compare.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>

#include "api/scheduler_api.hpp"
#include "harness/registry.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

#include "peak_rss.hpp"

namespace {

using namespace osched;
using harness::CaseSpec;
using harness::MetricRow;
using harness::Scenario;
using harness::ScenarioReport;
using harness::UnitContext;
using harness::Verdict;
// Peak RSS is monotone per process, hence the streaming-first grid order.
using bench::peak_rss_mib;

constexpr std::size_t kMachines = 16;
constexpr std::size_t kChunk = 65536;
constexpr double kEpsilon = 0.25;

enum class Mode {
  kStream = 0,   ///< one low-memory session, chunked feed
  kSharded,      ///< ShardDriver: 8 tenant sessions over the thread pool
  kTraceFed,     ///< CSV written chunk-wise, then parse-and-feed streamed
  kBatch,        ///< api::run on the materialized twin of kStream's workload
};

/// One 64k-job slice of the endless dense stream: heavy-tailed sizes at
/// load 1.1 (the e16 dense family), seeded per (root, chunk) so any prefix
/// of the stream is reproducible without generating the rest.
Instance stream_chunk(std::uint64_t root, std::uint64_t chunk, std::size_t n) {
  workload::WorkloadConfig config;
  config.num_jobs = n;
  config.num_machines = kMachines;
  config.seed = util::derive_seed(root, chunk);
  config.load = 1.1;
  config.sizes.dist = workload::SizeDistribution::kPareto;
  config.machines.model = workload::MachineModel::kUnrelated;
  return workload::generate_workload(config);
}

// Conversion is the shared make_stream_job/fill_stream_job from
// instance/stream_job.hpp; the release_base offset splices independently
// generated chunks onto one monotone timeline.

service::SessionOptions low_memory_options() {
  service::SessionOptions options;
  options.run.epsilon = kEpsilon;
  options.run.validate = false;
  options.retain_records = false;
  return options;
}

MetricRow run_stream_case(const UnitContext& ctx, std::size_t n) {
  service::SchedulerSession session(api::Algorithm::kTheorem1, kMachines,
                                    low_memory_options());
  double feed_seconds = 0.0;
  Time release_base = 0.0;
  std::size_t produced = 0;
  // Bounded sub-batches over one reused buffer: the chunk feeds through the
  // batch submit (amortized validation/bookkeeping) without materializing
  // 64k StreamJobs at once — the buffer stays ~1 MiB, so the case's peak
  // RSS keeps reflecting the session's live window, which is the metric
  // this scenario exists to showcase.
  constexpr std::size_t kSubBatch = 4096;
  std::vector<StreamJob> batch(kSubBatch);
  for (std::uint64_t c = 0; produced < n; ++c) {
    const std::size_t take = std::min(kChunk, n - produced);
    const Instance chunk = stream_chunk(ctx.scenario_seed, c, take);
    util::Timer timer;
    for (std::size_t at = 0; at < take; at += kSubBatch) {
      const std::size_t span = std::min(kSubBatch, take - at);
      for (std::size_t k = 0; k < span; ++k) {
        fill_stream_job(chunk, static_cast<JobId>(at + k), release_base,
                        &batch[k]);
      }
      session.submit(std::span<const StreamJob>(batch.data(), span));
    }
    session.advance(session.now());
    feed_seconds += timer.elapsed_seconds();
    release_base += chunk.job(static_cast<JobId>(chunk.num_jobs() - 1)).release;
    produced += take;
  }
  const std::size_t max_live = session.max_live_jobs();
  util::Timer drain_timer;
  const api::RunSummary summary = session.drain();
  feed_seconds += drain_timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", feed_seconds);
  row.set("jobs_per_sec",
          feed_seconds > 0.0 ? static_cast<double>(n) / feed_seconds : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  row.set("max_live_jobs", static_cast<double>(max_live));
  row.set("rejected", static_cast<double>(summary.report.num_rejected));
  row.set("completed", static_cast<double>(summary.report.num_completed));
  row.set("total_flow", summary.report.total_flow);
  return row;
}

MetricRow run_sharded_case(const UnitContext& ctx, std::size_t n) {
  constexpr std::size_t kShards = 8;
  // Tenant-chunk waves: each round delivers one kChunk-sized chunk per
  // tenant (the same chunk size the single-session case streams), staging
  // and flushing per tenant so workers overlap with the feed of the next
  // tenant, with one sync per round. Round-robin across tenants at chunk
  // granularity is the multiplexed analogue of run_stream_case's loop.
  service::ShardDriverOptions options;
  options.session = low_memory_options();
  service::ShardDriver driver(api::Algorithm::kTheorem1, kShards, kMachines,
                              options);
  const std::size_t per_shard = n / kShards;
  std::vector<Time> release_base(kShards, 0.0);
  std::size_t produced = 0;  // per shard; all shards advance in lockstep
  double feed_seconds = 0.0;
  StreamJob job;  // reused: the feed loop pays no per-job allocation
  for (std::uint64_t c = 0; produced < per_shard; ++c) {
    const std::size_t take = std::min(kChunk, per_shard - produced);
    for (std::size_t s = 0; s < kShards; ++s) {
      const Instance chunk =
          stream_chunk(util::derive_seed(ctx.scenario_seed, 1000 + s), c, take);
      util::Timer timer;
      for (std::size_t idx = 0; idx < chunk.num_jobs(); ++idx) {
        fill_stream_job(chunk, static_cast<JobId>(idx), release_base[s], &job);
        driver.submit(s, job);
      }
      driver.flush();
      feed_seconds += timer.elapsed_seconds();
      release_base[s] +=
          chunk.job(static_cast<JobId>(chunk.num_jobs() - 1)).release;
    }
    util::Timer sync_timer;
    driver.sync();
    feed_seconds += sync_timer.elapsed_seconds();
    produced += take;
  }
  std::size_t max_live = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    max_live += driver.session(s).max_live_jobs();
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
  const auto total_jobs = static_cast<double>(per_shard * kShards);
  // Shard-scaling efficiency inputs: `workers` is the resolved worker
  // count (hardware-shaped — scripts/compare_bench.py treats it as a
  // wall-clock-class metric), per-worker jobs/s is the number
  // compare_bench.py divides by the single-session case's throughput.
  const auto workers =
      static_cast<double>(std::max<std::size_t>(1, driver.worker_count()));
  MetricRow row;
  row.set("seconds", feed_seconds);
  row.set("jobs_per_sec", feed_seconds > 0.0 ? total_jobs / feed_seconds : 0.0);
  row.set("per_worker_jobs_per_sec",
          feed_seconds > 0.0 ? total_jobs / feed_seconds / workers : 0.0);
  row.set("workers", workers);
  row.set("peak_rss_mib", peak_rss_mib());
  row.set("max_live_jobs", static_cast<double>(max_live));
  row.set("rejected", static_cast<double>(rejected));
  row.set("completed", static_cast<double>(completed));
  row.set("total_flow", total_flow);
  return row;
}

MetricRow run_trace_fed_case(const UnitContext& ctx, std::size_t n) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      ("osched_e17_trace_" + std::to_string(ctx.seed) + ".csv");

  // Write the trace chunk by chunk — at no point is the full instance or
  // the full CSV in memory.
  {
    std::ofstream out(path);
    OSCHED_CHECK(static_cast<bool>(out)) << "cannot write " << path.string();
    workload::TraceStreamWriter writer(out, kMachines);
    Time release_base = 0.0;
    std::size_t produced = 0;
    for (std::uint64_t c = 0; produced < n; ++c) {
      const std::size_t take = std::min(kChunk, n - produced);
      const Instance chunk = stream_chunk(
          util::derive_seed(ctx.scenario_seed, 777), c, take);
      for (std::size_t idx = 0; idx < chunk.num_jobs(); ++idx) {
        writer.write_job(
            make_stream_job(chunk, static_cast<JobId>(idx), release_base));
      }
      release_base +=
          chunk.job(static_cast<JobId>(chunk.num_jobs() - 1)).release;
      produced += take;
    }
  }

  // Parse-and-feed: the production ingest path, timed end to end.
  service::SchedulerSession session(api::Algorithm::kTheorem1, kMachines,
                                    low_memory_options());
  util::Timer timer;
  std::ifstream in(path);
  OSCHED_CHECK(static_cast<bool>(in)) << "cannot reopen " << path.string();
  workload::TraceStreamReader reader(in);
  OSCHED_CHECK(reader.ok()) << reader.error();
  std::vector<StreamJob> chunk;
  while (reader.next_chunk(kChunk, chunk) > 0) {
    // The parsed chunk feeds the session in one batch submit.
    session.submit(std::span<const StreamJob>(chunk));
  }
  OSCHED_CHECK(reader.ok()) << reader.error();
  const std::size_t max_live = session.max_live_jobs();
  const api::RunSummary summary = session.drain();
  const double seconds = timer.elapsed_seconds();
  fs::remove(path);

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(reader.rows_read()) / seconds : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  row.set("max_live_jobs", static_cast<double>(max_live));
  row.set("rejected", static_cast<double>(summary.report.num_rejected));
  row.set("completed", static_cast<double>(summary.report.num_completed));
  row.set("total_flow", summary.report.total_flow);
  return row;
}

MetricRow run_batch_case(const UnitContext& ctx, std::size_t n) {
  // Materialize the SAME stream run_stream_case fed (same scenario_seed,
  // same chunk seeds and release shifts) as one big Instance.
  std::vector<Job> jobs;
  jobs.reserve(n);
  std::vector<std::vector<Work>> processing(kMachines);
  for (auto& row : processing) row.reserve(n);
  Time release_base = 0.0;
  std::size_t produced = 0;
  for (std::uint64_t c = 0; produced < n; ++c) {
    const std::size_t take = std::min(kChunk, n - produced);
    const Instance chunk = stream_chunk(ctx.scenario_seed, c, take);
    for (std::size_t idx = 0; idx < chunk.num_jobs(); ++idx) {
      const auto j = static_cast<JobId>(idx);
      Job job = chunk.job(j);
      job.id = static_cast<JobId>(jobs.size());
      job.release += release_base;
      jobs.push_back(job);
      for (std::size_t i = 0; i < kMachines; ++i) {
        processing[i].push_back(
            chunk.processing_unchecked(static_cast<MachineId>(i), j));
      }
    }
    release_base += chunk.job(static_cast<JobId>(chunk.num_jobs() - 1)).release;
    produced += take;
  }
  // Two clocks: the run alone (`jobs_per_sec`, as always) and the Instance
  // construction plus the run (`construct_run_jobs_per_sec`), the batch
  // counterpart of the store appends the streamed cases time in their feed.
  util::Timer construct_timer;
  const Instance instance(std::move(jobs), std::move(processing));

  api::RunOptions options;
  options.epsilon = kEpsilon;
  options.validate = false;  // time the scheduler, like the streamed cases
  util::Timer timer;
  const api::RunSummary summary = api::run(api::Algorithm::kTheorem1, instance, options);
  const double seconds = timer.elapsed_seconds();
  const double construct_run_seconds = construct_timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  row.set("construct_run_jobs_per_sec",
          construct_run_seconds > 0.0
              ? static_cast<double>(n) / construct_run_seconds
              : 0.0);
  row.set("peak_rss_mib", peak_rss_mib());
  row.set("rejected", static_cast<double>(summary.report.num_rejected));
  row.set("completed", static_cast<double>(summary.report.num_completed));
  row.set("total_flow", summary.report.total_flow);
  return row;
}

MetricRow run_e17_unit(const UnitContext& ctx) {
  const auto mode = static_cast<Mode>(static_cast<int>(ctx.param("mode")));
  const std::size_t n = ctx.scaled(static_cast<std::size_t>(ctx.param("n")));
  switch (mode) {
    case Mode::kStream: return run_stream_case(ctx, n);
    case Mode::kSharded: return run_sharded_case(ctx, n);
    case Mode::kTraceFed: return run_trace_fed_case(ctx, n);
    case Mode::kBatch: return run_batch_case(ctx, n);
  }
  OSCHED_CHECK(false) << "unreachable mode";
  return MetricRow{};
}

Scenario make_e17() {
  Scenario scenario;
  scenario.name = "e17_streaming";
  scenario.description =
      "streaming sessions at scale: chunked feed vs batch twin, sharded "
      "tenants, trace parse-and-feed";
  scenario.tags = {"perf", "streaming", "slow"};
  scenario.repetitions = 1;
  const struct {
    const char* label;
    Mode mode;
    double n;
  } cells[] = {
      // Streaming cases FIRST: peak RSS is a process high-water mark and
      // the batch twin would mask them.
      {"stream t1 n=1000000 m=16 chunk=64k", Mode::kStream, 1000000},
      {"stream sharded S=8 n=1000000 m=16", Mode::kSharded, 1000000},
      {"stream trace-fed n=200000 m=16", Mode::kTraceFed, 200000},
      {"batch t1 n=1000000 m=16", Mode::kBatch, 1000000},
  };
  for (const auto& cell : cells) {
    scenario.grid.push_back(CaseSpec(cell.label)
                                .with("mode", static_cast<double>(cell.mode))
                                .with("n", cell.n));
  }
  scenario.run_unit = run_e17_unit;
  scenario.evaluate = [](const ScenarioReport& report) {
    // The acceptance property: streamed == batch, bit for bit, on every
    // deterministic output of the shared workload.
    const auto& streamed = report.case_result("stream t1 n=1000000 m=16 chunk=64k");
    const auto& batch = report.case_result("batch t1 n=1000000 m=16");
    for (const char* metric : {"rejected", "completed", "total_flow"}) {
      const double a = streamed.metric(metric).mean();
      const double b = batch.metric(metric).mean();
      if (a != b) {
        return Verdict{false, std::string("streamed/batch mismatch on ") +
                                  metric + ": " + std::to_string(a) + " vs " +
                                  std::to_string(b)};
      }
    }
    // Shard-scaling readout (informational): sharded throughput relative
    // to one single-threaded session, and per worker.
    const auto& sharded = report.case_result("stream sharded S=8 n=1000000 m=16");
    const double single_jps = streamed.metric("jobs_per_sec").mean();
    const double sharded_jps = sharded.metric("jobs_per_sec").mean();
    const double workers = sharded.metric("workers").mean();
    std::string note = "streamed == batch bit-for-bit; sharded/single = ";
    if (single_jps > 0.0 && workers > 0.0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.2fx over %.0f worker(s), eff %.2f",
                    sharded_jps / single_jps, workers,
                    sharded_jps / single_jps / workers);
      note += buf;
    } else {
      note += "n/a";
    }
    return Verdict{true, note};
  };
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e17);

}  // namespace

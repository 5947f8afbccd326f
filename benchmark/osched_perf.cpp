// osched_perf — the program the repository benchmark runs.
//
//   osched_perf --workload <name> --seed <u64> [--seconds <s>]
//               [--workdir <dir>] [--trace <spans.jsonl>]
//
// Runs one workload per process, single-threaded and closed loop: the next
// operation is submitted only after the previous call returns, which is how
// this in-process library is used (there is no queue between caller and
// session). Only public library calls are made, each timed from outside.
//
// Inputs come from workload::ClosedFormConfig seeded with
// util::derive_seed(seed, workload_index) and are generated outside every
// timed region (reported as bench.gen_s). A workload repeats one fixed unit
// of work (a session fed and drained, a trace pass, a solve) over a fixed
// set of inputs until --seconds of measurement have passed. The first unit
// on each input fixes its outcome, so the quality metrics are exact for a
// given seed, and every later unit on that input must reproduce it.
//
// Throughput is taken over each unit's wall clock, set-up, benchmark loop
// and (in traced units) tracer work included. With --trace, units alternate
// between untraced and traced; the per-layer metrics come from the traced
// units only and bench.trace_overhead_frac is the
// throughput lost between the two. Spans of every 64th traced operation,
// per-name busy totals and the traced units' wall are written to the given
// file at exit.
//
// Every metric is printed with its unit, followed by one JSON line. The
// exit code is non-zero when any in-run correctness check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "core/flow/rejection_flow.hpp"
#include "instance/stream_job.hpp"
#include "metrics/metrics.hpp"
#include "perf_support.hpp"
#include "service/scheduler_session.hpp"
#include "sim/validator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload/generated_family.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace osched;
using perf::now_ns;

constexpr double kEpsilon = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir = ".";
  std::string trace_path;
};

/// The part of a drained run that must repeat exactly: across units, and
/// between a unit and its untimed twin.
struct Outcome {
  std::size_t completed = 0;
  std::size_t rejected = 0;
  double total_flow = 0.0;
  double makespan = 0.0;
  double lower_bound = 0.0;
  std::size_t rule1 = 0;
  std::size_t rule2 = 0;
  std::size_t fails = 0;
  std::size_t redispatched = 0;
  std::size_t fault_rejections = 0;
  std::size_t speed_changes = 0;
  std::size_t sheds = 0;
  std::size_t refused = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const api::RunSummary& summary) {
  Outcome out;
  out.completed = summary.report.num_completed;
  out.rejected = summary.report.num_rejected;
  out.total_flow = summary.report.total_flow;
  out.makespan = summary.report.makespan;
  out.lower_bound = summary.certified_lower_bound;
  out.rule1 = summary.rule1_rejections;
  out.rule2 = summary.rule2_rejections;
  out.fails = summary.fleet.fails;
  out.redispatched = summary.fleet.redispatched;
  out.fault_rejections = summary.fleet.fault_rejections;
  out.speed_changes = summary.fleet.speed_changes;
  return out;
}

/// Latency blocks close after at least this many operations and this much
/// measurement wall; each block reports its own p50/p99. A block of 1000
/// operations leaves ten beyond its p99.
constexpr std::uint64_t kBlockOps = 1000;
constexpr std::int64_t kBlockNs = 250'000'000;

/// Interference from other tenants of a shared host comes in bursts of a
/// few seconds and only ever slows work down. Throughput and latency are
/// therefore the fast-side quartile over the run's units or latency blocks:
/// they move with the program's own speed and ignore the bursts as long as
/// these cover less than three quarters of the run.
double fast_quartile(const util::Summary& times) {
  return times.quantile(0.25);
}
double fast_quartile_rate(const util::Summary& rates) {
  return rates.quantile(0.75);
}

/// State of one benchmark process: timing split by traced/untraced unit,
/// latency blocks, set-up samples, checks, reference outcomes and metrics.
struct Run {
  Args args;
  bool tracing = false;
  perf::Tracer tracer;
  perf::MetricSink sink;
  std::uint64_t next_op = 0;
  std::uint64_t attempted = 0;
  std::uint64_t checks_failed = 0;
  util::Summary setup_samples;
  double gen_s = 0.0;
  double peak_rss = 0.0;

  // Each unit's throughput over its wall clock, from before its set-up to
  // after its bookkeeping, so the benchmark's and the tracer's own work
  // count; [1] holds the traced units.
  util::Summary unit_rates[2];
  std::int64_t unit_start_ns = 0;
  std::int64_t measure_start = 0;

  // Latency of untraced operations, in blocks.
  perf::LatencyHistogram block;
  std::int64_t block_start = 0;
  util::Summary block_p50_ns;
  util::Summary block_p99_ns;

  // Units cycle through `inputs` distinct inputs; the first unit on each
  // fixes that input's exact outcome and every later one must repeat it.
  std::size_t inputs = 1;
  std::vector<Outcome> reference;
  std::vector<std::size_t> reference_jobs;

  // Counters from the first unit, for the per-layer metrics.
  std::size_t max_live = 0;
  std::size_t matrix_peak_bytes = 0;
  std::size_t checkpoint_bytes = 0;
  api::RunSummary attribution;
  std::size_t chunk_rows = 0;  // trace rows parsed in traced units
  double write_rows_per_s = 0.0;
  double ctor_rows_per_s = 0.0;
  double fill_row_rows_per_s = 0.0;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++checks_failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }

  void start_measuring() { measure_start = block_start = now_ns(); }
  void stop_measuring() {
    if (block_p50_ns.count() == 0 && block.count() > 0) close_block(now_ns());
  }
  bool more(std::size_t units) const {
    const std::size_t min_units = inputs * (tracing ? 2 : 1);
    return units < min_units ||
           static_cast<double>(now_ns() - measure_start) < args.seconds * 1e9;
  }
  /// Starts a unit's wall clock; returns whether the unit is traced. A
  /// traced run alternates untraced and traced units, so both see the same
  /// phase of a drifting host; with an even number of inputs the pattern
  /// shifts by one each round, so every input is run both ways.
  bool begin_unit(std::size_t unit) {
    unit_start_ns = now_ns();
    const std::size_t shift = inputs % 2 == 0 ? unit / inputs : 0;
    return tracing && (unit + shift) % 2 == 1;
  }

  void close_block(std::int64_t now) {
    block_p50_ns.add(block.quantile(0.50));
    block_p99_ns.add(block.quantile(0.99));
    block = perf::LatencyHistogram();
    block_start = now;
  }
  /// Accounts one finished operation [t0, t1).
  void op_done(bool traced, std::int64_t t0, std::int64_t t1) {
    ++attempted;
    if (traced) return;
    block.record(t1 - t0);
    if (block.count() >= kBlockOps && t1 - block_start >= kBlockNs) {
      close_block(t1);
    }
  }

  /// Times one library call. Operations (`is_op`) are latency samples;
  /// drains, checkpoints and restores are not. In a traced unit the call is
  /// also a root span.
  template <class F>
  void call(bool traced, bool is_op, const char* name, F&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    if (is_op) op_done(traced, t0, t1);
    if (traced) {
      tracer.begin_op(next_op++, !is_op);
      tracer.span(name, perf::Tracer::kRoot, t0, t1);
    }
  }

  template <class F>
  void setup(F&& fn) {
    const util::Timer timer;
    fn();
    setup_samples.add(timer.elapsed_seconds());
  }

  template <class F>
  void generate(F&& fn) {
    const util::Timer timer;
    fn();
    gen_s += timer.elapsed_seconds();
  }

  /// Bookkeeping after each unit: the accounting check, the exact-repeat
  /// check against the first unit on the same input, and last the unit's
  /// wall and throughput.
  void unit_done(std::size_t unit, bool traced, const Outcome& outcome,
                 std::size_t accepted) {
    check(outcome.completed + outcome.rejected == accepted,
          "completed + rejected != accepted in unit " + std::to_string(unit));
    if (unit < inputs) {
      reference.push_back(outcome);
      reference_jobs.push_back(accepted);
    } else {
      check(outcome == reference[unit % inputs],
            "unit " + std::to_string(unit) + " differs from unit " +
                std::to_string(unit % inputs));
    }
    const std::int64_t end = now_ns();
    unit_rates[traced].add(static_cast<double>(accepted) * 1e9 /
                           static_cast<double>(end - unit_start_ns));
    if (traced) tracer.unit(unit_start_ns, end);
    // The memory high-water mark after one round over the inputs. Later
    // rounds repeat the same work; what they add is allocator drift whose
    // size grows with the number of units, and so with the program's speed.
    if (unit + 1 == inputs) peak_rss = perf::peak_rss_mib();
  }

  /// Theorem 1's rejection allowance, floor(2·ε·n), on a static fleet.
  void check_allowance(const Outcome& outcome, std::size_t n) {
    const auto allowance = static_cast<std::size_t>(
        std::floor(2.0 * kEpsilon * static_cast<double>(n)));
    check(outcome.rule1 + outcome.rule2 <= allowance,
          "Theorem 1 rejections exceed floor(2*eps*n)");
  }
};

workload::ClosedFormConfig family(const Run& run, std::size_t workload_index,
                                  std::size_t n, std::size_t m, double load) {
  workload::ClosedFormConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = util::derive_seed(run.args.seed, workload_index);
  config.load = load;
  return config;
}

service::SessionOptions low_memory_options() {
  service::SessionOptions options;
  options.run.epsilon = kEpsilon;
  options.run.validate = false;
  options.retain_records = false;
  return options;
}

std::vector<StreamJob> dense_jobs(const Instance& instance) {
  std::vector<StreamJob> jobs(instance.num_jobs());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    fill_stream_job(instance, static_cast<JobId>(j), 0.0, &jobs[j]);
  }
  return jobs;
}

/// RowGenerator::fill_row timed in isolation on the workload's first job
/// ids, about 2^22 entries' worth. Per-layer attribution for the generator
/// backend's row synthesis.
void probe_fill_row(Run& run, const workload::ClosedFormConfig& config) {
  if (!run.tracing) return;
  const auto generator = workload::make_closed_form_generator(config);
  const std::size_t m = config.num_machines;
  const std::size_t rows =
      std::min(config.num_jobs, std::max<std::size_t>(1, (1u << 22) / m));
  std::vector<Work> row(m);
  double sink = 0.0;
  const util::Timer timer;
  for (std::size_t j = 0; j < rows; ++j) {
    generator->fill_row(static_cast<JobId>(j), m, row.data());
    sink += row[j % m];
  }
  const double seconds = timer.elapsed_seconds();
  run.check(std::isfinite(sink), "fill_row produced a non-finite entry");
  run.fill_row_rows_per_s = static_cast<double>(rows) / seconds;
}

// ------------------------------------------------------------- online_m16

/// The paper's per-arrival decision: a low-memory dense session fed one
/// submit(job) per arrival, then drained.
void online_m16(Run& run) {
  const auto config = family(run, 0, std::size_t{1} << 18, 16, 1.1);
  std::vector<StreamJob> jobs;
  run.generate([&] {
    jobs = dense_jobs(workload::make_closed_form_instance(
        config, StorageBackend::kGenerator));
  });
  probe_fill_row(run, config);
  const service::SessionOptions options = low_memory_options();

  run.start_measuring();
  for (std::size_t unit = 0; run.more(unit); ++unit) {
    const bool traced = run.begin_unit(unit);
    std::unique_ptr<service::SchedulerSession> session;
    run.setup([&] {
      session = std::make_unique<service::SchedulerSession>(
          api::Algorithm::kTheorem1, 16, options);
    });
    for (const StreamJob& job : jobs) {
      run.call(traced, true, "service.submit", [&] { session->submit(job); });
    }
    api::RunSummary summary;
    run.call(traced, false, "service.drain", [&] { summary = session->drain(); });
    const Outcome outcome = outcome_of(summary);
    if (unit == 0) {
      run.check_allowance(outcome, jobs.size());
      run.max_live = session->max_live_jobs();
      run.matrix_peak_bytes = session->matrix_peak_bytes();
      run.attribution = summary;
    }
    run.unit_done(unit, traced, outcome, jobs.size());
  }
  run.stop_measuring();

  // Untimed twin: the batch-submit path fed the same jobs in 1024-job
  // chunks must decide bit for bit like the one-job path.
  service::SchedulerSession twin(api::Algorithm::kTheorem1, 16, options);
  const std::span<const StreamJob> all(jobs);
  for (std::size_t at = 0; at < all.size(); at += 1024) {
    twin.submit(all.subspan(at, std::min<std::size_t>(1024, all.size() - at)));
  }
  run.check(outcome_of(twin.drain()) == run.reference[0],
            "submit(job) and submit(span) feeds differ");
}

// -------------------------------------------------------------- trace_m16

/// Trace-fed ingest: the same family written as a dense CSV, read back in
/// 256-row chunks by TraceStreamReader and fed through submit(span), one
/// fresh session per pass over the file.
void trace_m16(Run& run) {
  constexpr std::size_t kChunkRows = 256;
  const auto config = family(run, 1, std::size_t{1} << 16, 16, 1.1);
  const std::string path = run.args.workdir + "/trace_m16_" +
                           std::to_string(run.args.seed) + ".csv";
  const Instance instance =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  run.generate([&] {
    std::ofstream out(path);
    workload::TraceStreamWriter writer(out, instance.num_machines());
    StreamJob job;
    const util::Timer timer;
    for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
      fill_stream_job(instance, static_cast<JobId>(j), 0.0, &job);
      writer.write_job(job);
    }
    out.flush();
    run.write_rows_per_s =
        static_cast<double>(instance.num_jobs()) / timer.elapsed_seconds();
    run.check(out.good(), "writing " + path + " failed");
  });
  probe_fill_row(run, config);
  const service::SessionOptions options = low_memory_options();

  std::vector<StreamJob> chunk;
  run.start_measuring();
  for (std::size_t unit = 0; run.more(unit); ++unit) {
    const bool traced = run.begin_unit(unit);
    std::unique_ptr<std::ifstream> in;
    std::unique_ptr<workload::TraceStreamReader> reader;
    std::unique_ptr<service::SchedulerSession> session;
    run.setup([&] {
      in = std::make_unique<std::ifstream>(path);
      reader = std::make_unique<workload::TraceStreamReader>(*in);
      session = std::make_unique<service::SchedulerSession>(
          api::Algorithm::kTheorem1, reader->num_machines(), options);
    });
    run.check(reader->ok(), "trace header: " + reader->error());
    for (;;) {
      // One operation: parse a chunk, then submit it. Both calls are root
      // spans of the same operation id.
      const std::int64_t t0 = now_ns();
      const std::size_t got = reader->next_chunk(kChunkRows, chunk);
      if (got == 0) break;
      const std::int64_t t1 = now_ns();
      session->submit(std::span<const StreamJob>(chunk));
      const std::int64_t t2 = now_ns();
      run.op_done(traced, t0, t2);
      if (traced) {
        run.chunk_rows += got;
        run.tracer.begin_op(run.next_op++);
        run.tracer.span("workload.next_chunk", perf::Tracer::kRoot, t0, t1);
        run.tracer.span("service.submit", perf::Tracer::kRoot, t1, t2);
      }
    }
    run.check(reader->ok(), "trace parse: " + reader->error());
    api::RunSummary summary;
    run.call(traced, false, "service.drain", [&] { summary = session->drain(); });
    const Outcome outcome = outcome_of(summary);
    if (unit == 0) {
      run.check_allowance(outcome, instance.num_jobs());
      run.max_live = session->max_live_jobs();
      run.matrix_peak_bytes = session->matrix_peak_bytes();
      run.attribution = summary;
    }
    run.unit_done(unit, traced, outcome, reader->rows_read());
  }
  run.stop_measuring();
  std::filesystem::remove(path);

  // Untimed twin: the in-memory feed of the same jobs. Every pass already
  // equals pass 0 (unit_done), so comparing pass 0 covers them all.
  run.check(outcome_of(service::streamed_session_run(
                api::Algorithm::kTheorem1, instance, options)) ==
                run.reference[0],
            "trace passes differ from the in-memory feed");
}

// ------------------------------------------------------------- batch_m256

/// api::run on dense Instances at m=256, solved round-robin: the order
/// tables, float-shadow sweep and SIMD argmin kernels, the validator and the
/// objective report. Eight instances of 1024 jobs keep one solve near a
/// millisecond, so a run holds enough solves for a p99 per latency block,
/// while the quality metrics still cover 8192 jobs.
void batch_m256(Run& run) {
  constexpr std::size_t kInstances = 8;
  constexpr std::size_t kJobs = 1024;
  // One instance is built again after every this many solves, so the
  // set-up samples spread over the whole run like the sessions' do.
  constexpr std::size_t kRebuildEvery = 256;
  run.inputs = kInstances;
  std::vector<std::vector<Job>> jobs(kInstances);
  std::vector<std::vector<std::vector<Work>>> processing(kInstances);
  for (std::size_t k = 0; k < kInstances; ++k) {
    auto config = family(run, 2, kJobs, 256, 1.1);
    config.seed = util::derive_seed(config.seed, k);
    run.generate([&] {
      const Instance source = workload::make_closed_form_instance(
          config, StorageBackend::kGenerator);
      jobs[k] = source.jobs();
      processing[k].assign(config.num_machines,
                           std::vector<Work>(config.num_jobs));
      std::vector<Work> row(config.num_machines);
      for (std::size_t j = 0; j < config.num_jobs; ++j) {
        source.generator().fill_row(static_cast<JobId>(j), row.size(),
                                    row.data());
        for (std::size_t i = 0; i < row.size(); ++i) {
          processing[k][i][j] = row[i];
        }
      }
    });
    if (k == 0) probe_fill_row(run, config);
  }
  // Set-up is the Instance constructor (adjacency, float shadow, order
  // tables) on fresh copies of the inputs; the old instance is freed
  // outside the timed part.
  std::vector<Instance> instances(kInstances);
  const auto build = [&](std::size_t k) {
    std::vector<Job> jobs_copy = jobs[k];
    std::vector<std::vector<Work>> processing_copy = processing[k];
    Instance built;
    run.setup([&] {
      built = Instance(std::move(jobs_copy), std::move(processing_copy));
    });
    instances[k] = std::move(built);
    run.check(instances[k].validate().empty(),
              "instance: " + instances[k].validate());
  };
  for (std::size_t k = 0; k < kInstances; ++k) build(k);
  const api::RunOptions options{.epsilon = kEpsilon};

  run.start_measuring();
  for (std::size_t unit = 0; run.more(unit); ++unit) {
    if (unit > 0 && unit % kRebuildEvery == 0) {
      build(unit / kRebuildEvery % kInstances);
    }
    const bool traced = run.begin_unit(unit);
    const Instance& instance = instances[unit % kInstances];
    api::RunSummary summary;
    if (!traced) {
      run.call(false, true, "api.run", [&] {
        summary = api::run(api::Algorithm::kTheorem1, instance, options);
      });
    } else {
      // The three calls api::run composes, timed one by one.
      summary.algorithm = api::Algorithm::kTheorem1;
      const std::int64_t t0 = now_ns();
      const RejectionFlowResult result =
          run_rejection_flow(instance, {.epsilon = kEpsilon});
      const std::int64_t t1 = now_ns();
      summary.schedule = result.schedule;
      summary.certified_lower_bound = result.opt_lower_bound;
      summary.rule1_rejections = result.rule1_rejections;
      summary.rule2_rejections = result.rule2_rejections;
      summary.fleet = result.fleet;
      const std::int64_t t2 = now_ns();
      check_schedule(summary.schedule, instance, {});
      const std::int64_t t3 = now_ns();
      summary.report = evaluate(summary.schedule, instance);
      const std::int64_t t4 = now_ns();
      run.op_done(true, t0, t4);
      run.tracer.begin_op(run.next_op++);
      const std::int64_t root =
          run.tracer.span("api.run", perf::Tracer::kRoot, t0, t4);
      run.tracer.span("core.run_rejection_flow", root, t0, t1);
      run.tracer.span("sim.check_schedule", root, t2, t3);
      run.tracer.span("metrics.evaluate", root, t3, t4);
    }
    const Outcome outcome = outcome_of(summary);
    if (unit < kInstances) run.check_allowance(outcome, instance.num_jobs());
    if (unit == 0) run.attribution = summary;
    run.unit_done(unit, traced, outcome, instance.num_jobs());
  }
  run.stop_measuring();
  run.ctor_rows_per_s =
      static_cast<double>(kJobs) / run.setup_samples.median();
}

// ----------------------------------------------------- overload_chaos_m64

/// Monotone burst warp t -> t + 0.12·span·sin(2πt/span): release order is
/// kept while the instantaneous arrival rate swings by about ±75%.
Time burst_warp(Time t, Time span) {
  return t + 0.12 * span * std::sin(2.0 * 3.141592653589793 * t / span);
}

/// 8 fail->join pairs and 8 throttle(0.5)->recover pairs on distinct
/// machines, pinned to release quantiles.
FleetPlan chaos_plan(const std::vector<StreamJob>& jobs) {
  const auto at = [&](double fraction) {
    return jobs[static_cast<std::size_t>(
                    fraction * static_cast<double>(jobs.size() - 1))]
        .release;
  };
  FleetPlan plan;
  for (int k = 0; k < 8; ++k) {
    const double base = 0.05 + 0.11 * k;
    plan.events.push_back({at(base), 2 * k, FleetEventKind::kFail});
    plan.events.push_back(
        {at(base + 0.02), 2 * k + 1, FleetEventKind::kSpeedChange, 0.5});
    plan.events.push_back({at(base + 0.04), 2 * k, FleetEventKind::kJoin});
    plan.events.push_back(
        {at(base + 0.06), 2 * k + 1, FleetEventKind::kSpeedChange, 1.0});
  }
  plan.rejection_budget = 1000;
  return plan;
}

/// Sustained overload on a retained, validating session: window cap with a
/// fixed shed budget, backpressure with release back-off, a fleet plan, and
/// one checkpoint()/restore() cut at the halfway job.
void overload_chaos_m64(Run& run) {
  const auto config = family(run, 3, 100000, 64, 1.6);
  std::vector<StreamJob> jobs;
  run.generate([&] {
    jobs = dense_jobs(workload::make_closed_form_instance(
        config, StorageBackend::kGenerator));
    const Time span = jobs.back().release;
    for (StreamJob& job : jobs) job.release = burst_warp(job.release, span);
  });
  probe_fill_row(run, config);
  const Time backoff =
      jobs.back().release / static_cast<double>(jobs.size()) * 4.0;

  service::SessionOptions options;
  options.run.epsilon = kEpsilon;
  options.run.fleet = chaos_plan(jobs);
  options.live_window_cap = 64;
  options.shed_budget = 4096;
  run.check(options.run.fleet.validate(64).empty(), "fleet plan invalid");

  // Offers jobs [from, to) with the bounded-ingest retry contract; every
  // try_submit call is one operation. Returns the refusals seen. A job is
  // offered in place and its release restored after, so every unit (and
  // the twin) sees the same inputs.
  const auto feed = [&](service::SchedulerSession& session, std::size_t from,
                        std::size_t to, bool timed, bool traced) {
    std::uint64_t refused = 0;
    for (std::size_t idx = from; idx < to; ++idx) {
      StreamJob& job = jobs[idx];
      const Time release = job.release;
      job.release = std::max(release, session.now());
      for (;;) {
        service::SubmitOutcome result = service::SubmitOutcome::kAccepted;
        if (timed) {
          run.call(traced, true, "service.try_submit",
                   [&] { result = session.try_submit(job); });
        } else {
          result = session.try_submit(job);
        }
        if (result == service::SubmitOutcome::kAccepted) break;
        ++refused;
        job.release += backoff;
      }
      job.release = release;
    }
    return refused;
  };

  const std::size_t cut = jobs.size() / 2;
  run.start_measuring();
  for (std::size_t unit = 0; run.more(unit); ++unit) {
    const bool traced = run.begin_unit(unit);
    std::unique_ptr<service::SchedulerSession> session;
    run.setup([&] {
      session = std::make_unique<service::SchedulerSession>(
          api::Algorithm::kTheorem1, 64, options);
    });
    std::uint64_t refused = feed(*session, 0, cut, true, traced);
    std::size_t max_live = session->max_live_jobs();
    std::unique_ptr<service::SchedulerSession> restored;
    {
      // As in a process that resumes from the blob: the cut session is
      // gone before the restore, and the blob once it is restored. The
      // session's destructor is part of the unit.
      std::string blob;
      run.call(traced, false, "service.checkpoint",
               [&] { blob = session->checkpoint(); });
      run.call(traced, false, "service.destroy", [&] { session.reset(); });
      std::string error;
      run.call(traced, false, "service.restore", [&] {
        restored = service::SchedulerSession::restore(blob, &error);
      });
      if (restored == nullptr) {
        run.check(false, "restore failed: " + error);
        return;
      }
      if (unit == 0) run.checkpoint_bytes = blob.size();
    }
    refused += feed(*restored, cut, jobs.size(), true, traced);
    max_live = std::max(max_live, restored->max_live_jobs());
    const std::size_t sheds = restored->num_shed();
    api::RunSummary summary;
    run.call(traced, false, "service.drain",
             [&] { summary = restored->drain(); });
    Outcome outcome = outcome_of(summary);
    outcome.sheds = sheds;
    outcome.refused = refused;
    run.check(max_live <= options.live_window_cap, "live window above its cap");
    run.check(sheds <= options.shed_budget, "sheds above the shed budget");
    if (unit == 0) {
      run.max_live = max_live;
      run.matrix_peak_bytes = restored->matrix_peak_bytes();
      run.attribution = summary;
    }
    run.unit_done(unit, traced, outcome, jobs.size());
  }
  run.stop_measuring();

  // Untimed twin: the same feed without the checkpoint cut.
  service::SchedulerSession twin(api::Algorithm::kTheorem1, 64, options);
  const std::uint64_t refused = feed(twin, 0, jobs.size(), false, false);
  run.check(twin.max_live_jobs() <= options.live_window_cap,
            "twin live window above its cap");
  const std::size_t sheds = twin.num_shed();
  Outcome uninterrupted = outcome_of(twin.drain());
  uninterrupted.sheds = sheds;
  uninterrupted.refused = refused;
  run.check(uninterrupted == run.reference[0],
            "checkpoint/restore leg differs from the uninterrupted twin");
}

// -------------------------------------------------------- generator_m4096

/// Metadata-only submissions into a generator-backed low-memory session at
/// m=4096: row synthesis and the O(m) shadow scan, no matrix bytes. Units
/// cycle through eight inputs so the quality metrics cover 64 Ki jobs.
void generator_m4096(Run& run) {
  constexpr std::size_t kInputs = 8;
  run.inputs = kInputs;
  const auto base = family(run, 4, 8192, 4096, 1.1);
  std::vector<workload::ClosedFormConfig> configs(kInputs, base);
  std::vector<std::vector<StreamJob>> jobs(kInputs);
  std::vector<service::SessionOptions> options(kInputs, low_memory_options());
  run.generate([&] {
    for (std::size_t k = 0; k < kInputs; ++k) {
      configs[k].seed = util::derive_seed(base.seed, k);
      const Instance instance = workload::make_closed_form_instance(
          configs[k], StorageBackend::kGenerator);
      jobs[k].resize(instance.num_jobs());
      for (std::size_t j = 0; j < jobs[k].size(); ++j) {
        fill_stream_job_meta(instance.job(static_cast<JobId>(j)), 0.0,
                             &jobs[k][j]);
      }
      options[k].storage = StorageBackend::kGenerator;
      options[k].generator = instance.shared_generator();
    }
  });
  probe_fill_row(run, configs[0]);

  run.start_measuring();
  for (std::size_t unit = 0; run.more(unit); ++unit) {
    const bool traced = run.begin_unit(unit);
    const std::size_t k = unit % kInputs;
    std::unique_ptr<service::SchedulerSession> session;
    run.setup([&] {
      session = std::make_unique<service::SchedulerSession>(
          api::Algorithm::kTheorem1, base.num_machines, options[k]);
    });
    for (const StreamJob& job : jobs[k]) {
      run.call(traced, true, "service.submit", [&] { session->submit(job); });
    }
    api::RunSummary summary;
    run.call(traced, false, "service.drain", [&] { summary = session->drain(); });
    const Outcome outcome = outcome_of(summary);
    if (unit < kInputs) run.check_allowance(outcome, jobs[k].size());
    if (unit == 0) {
      run.max_live = session->max_live_jobs();
      run.matrix_peak_bytes = session->matrix_peak_bytes();
      run.attribution = summary;
    }
    run.unit_done(unit, traced, outcome, jobs[k].size());
  }
  run.stop_measuring();

  // Untimed differential: dense and generator sessions agree on a
  // 4096-job prefix of the family.
  auto prefix_config = configs[0];
  prefix_config.num_jobs = 4096;
  const Instance prefix = workload::make_closed_form_instance(
      prefix_config, StorageBackend::kGenerator);
  service::SessionOptions generator_options = low_memory_options();
  generator_options.storage = StorageBackend::kGenerator;
  generator_options.generator = prefix.shared_generator();
  const Outcome dense = outcome_of(service::streamed_session_run(
      api::Algorithm::kTheorem1, prefix, low_memory_options()));
  const Outcome synthesized = outcome_of(service::streamed_session_run(
      api::Algorithm::kTheorem1, prefix, generator_options));
  run.check(dense == synthesized,
            "dense and generator sessions differ on the 4096-job prefix");
}

// ------------------------------------------------------------------ report

void report(Run& run) {
  perf::MetricSink& sink = run.sink;
  Outcome total;  // summed over the reference outcomes
  std::size_t jobs = 0;
  for (std::size_t k = 0; k < run.reference.size(); ++k) {
    const Outcome& o = run.reference[k];
    total.completed += o.completed;
    total.rejected += o.rejected;
    total.total_flow += o.total_flow;
    total.lower_bound += o.lower_bound;
    total.rule1 += o.rule1;
    total.rule2 += o.rule2;
    total.fails += o.fails;
    total.redispatched += o.redispatched;
    total.fault_rejections += o.fault_rejections;
    total.speed_changes += o.speed_changes;
    total.sheds += o.sheds;
    total.refused += o.refused;
    jobs += run.reference_jobs[k];
  }
  const double rate0 = fast_quartile_rate(run.unit_rates[0]);

  sink.set("jobs_per_s", rate0, "jobs/s");
  sink.set("op_p50_us", fast_quartile(run.block_p50_ns) * 1e-3, "us");
  sink.set("setup_s", run.setup_samples.median(), "s");
  sink.set("peak_rss_mib", run.peak_rss, "MiB");
  sink.set("reject_frac",
           jobs > 0 ? static_cast<double>(total.rejected) /
                          static_cast<double>(jobs)
                    : 0.0,
           "frac");
  sink.set("mean_flow",
           total.completed > 0
               ? total.total_flow / static_cast<double>(total.completed)
               : 0.0,
           "time");
  sink.set("flow_to_lb",
           total.lower_bound > 0.0 ? total.total_flow / total.lower_bound : 0.0,
           "ratio");
  // The tail is reported but not bounded: on a shared host the slowest 1%
  // of operations mostly measures the other tenants.
  sink.set("bench.op_p99_us", fast_quartile(run.block_p99_ns) * 1e-3, "us");
  sink.set("bench.latency_blocks", static_cast<double>(run.block_p50_ns.count()),
           "count");
  sink.set("bench.gen_s", run.gen_s, "s");
  sink.set("bench.checks_failed", static_cast<double>(run.checks_failed),
           "count");
  if (!run.tracing) return;

  // Per-layer metrics: traced units only, as fractions of their wall.
  const perf::Tracer& tracer = run.tracer;
  const double traced_s = tracer.wall_s();
  const auto frac = [&](const char* name) {
    return traced_s > 0.0 ? tracer.busy_s(name) / traced_s : 0.0;
  };
  const double rate1 = fast_quartile_rate(run.unit_rates[1]);
  sink.set("bench.timed_wall_s", traced_s, "s");
  sink.set("bench.trace_overhead_frac", rate0 > 0.0 ? 1.0 - rate1 / rate0 : 0.0,
           "frac");
  for (const char* layer :
       {"workload.next_chunk", "service.drain", "service.checkpoint",
        "service.restore", "api.run", "core.run_rejection_flow",
        "sim.check_schedule", "metrics.evaluate"}) {
    sink.set(std::string(layer) + ".busy_frac", frac(layer), "frac");
  }
  sink.set("api.run.other_frac",
           frac("api.run") - frac("core.run_rejection_flow") -
               frac("sim.check_schedule") - frac("metrics.evaluate"),
           "frac");
  // Session ingest: the one-job, batch and bounded submit calls.
  const double submit_busy =
      tracer.busy_s("service.submit") + tracer.busy_s("service.try_submit");
  const auto submit_calls =
      tracer.calls("service.submit") + tracer.calls("service.try_submit");
  sink.set("service.submit.calls", static_cast<double>(submit_calls), "count");
  sink.set("service.submit.busy_frac",
           traced_s > 0.0 ? submit_busy / traced_s : 0.0, "frac");
  // Jobs accepted per second inside submit calls: every traced unit feeds
  // each of its jobs exactly once.
  const double traced_jobs =
      tracer.calls("service.drain") > 0
          ? static_cast<double>(run.unit_rates[1].count()) *
                static_cast<double>(jobs) / static_cast<double>(run.inputs)
          : 0.0;
  sink.set("service.submit.jobs_per_s",
           submit_busy > 0.0 ? traced_jobs / submit_busy : 0.0, "1/s");
  sink.set("service.checkpoint.bytes", static_cast<double>(run.checkpoint_bytes),
           "bytes");
  sink.set("service.matrix_peak_bytes",
           static_cast<double>(run.matrix_peak_bytes), "bytes");
  sink.set("service.refused", static_cast<double>(total.refused), "count");
  sink.set("service.refused_frac",
           static_cast<double>(total.refused) /
               static_cast<double>(jobs + total.refused),
           "frac");
  sink.set("service.sheds", static_cast<double>(total.sheds), "count");
  sink.set("service.max_live_jobs", static_cast<double>(run.max_live), "count");
  sink.set("core.rule1_rejections", static_cast<double>(total.rule1), "count");
  sink.set("core.rule2_rejections", static_cast<double>(total.rule2), "count");
  sink.set("core.certified_lb", total.lower_bound, "time");
  sink.set("sim.fleet.fails", static_cast<double>(total.fails), "count");
  sink.set("sim.fleet.redispatched", static_cast<double>(total.redispatched),
           "count");
  sink.set("sim.fleet.fault_rejections",
           static_cast<double>(total.fault_rejections), "count");
  sink.set("sim.fleet.speed_changes", static_cast<double>(total.speed_changes),
           "count");
  const double chunk_busy = tracer.busy_s("workload.next_chunk");
  sink.set("workload.next_chunk.rows", static_cast<double>(run.chunk_rows),
           "count");
  sink.set("workload.next_chunk.rows_per_s",
           chunk_busy > 0.0 ? static_cast<double>(run.chunk_rows) / chunk_busy
                            : 0.0,
           "1/s");
  sink.set("workload.write_job.rows_per_s", run.write_rows_per_s, "1/s");
  sink.set("instance.ctor.rows_per_s", run.ctor_rows_per_s, "1/s");
  sink.set("instance.fill_row.rows_per_s", run.fill_row_rows_per_s, "1/s");
  sink.set("util.simd_tier",
           static_cast<double>(run.attribution.dispatch_simd_tier), "tier");
  sink.set("instance.order_width",
           static_cast<double>(run.attribution.dispatch_order_width), "bits");
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!parse_args(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: osched_perf --workload <name> --seed <u64> "
                 "[--seconds <s>] [--workdir <dir>] [--trace <spans.jsonl>]\n");
    return 2;
  }
  run.tracing = !run.args.trace_path.empty();
  const struct {
    const char* name;
    void (*fn)(Run&);
  } workloads[] = {
      {"online_m16", online_m16},
      {"trace_m16", trace_m16},
      {"batch_m256", batch_m256},
      {"overload_chaos_m64", overload_chaos_m64},
      {"generator_m4096", generator_m4096},
  };
  bool found = false;
  for (const auto& workload : workloads) {
    if (run.args.workload == workload.name) {
      workload.fn(run);
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", run.args.workload.c_str());
    return 2;
  }
  if (run.tracing && !run.tracer.write(run.args.trace_path)) {
    run.check(false, "cannot write " + run.args.trace_path);
  }
  report(run);
  // No operation fails: a refused try_submit is offered again until the
  // session accepts it, and the refusals are reported as service.refused.
  run.sink.print(run.args.workload, run.attempted, 0, run.checks_failed);
  return run.checks_failed == 0 ? 0 : 1;
}

// Differential wall for the streaming scheduler sessions.
//
// The contract under test: a SchedulerSession fed the same jobs as a batch
// api::run() — in any chunking, with advance() calls interleaved — makes
// BIT-IDENTICAL decisions: same Schedule (zero-tolerance diff), same
// objective report (double-for-double), same certificate and rejection
// counters. This is the in-process analogue of scripts/compare_bench.py's
// exact-match philosophy, run for every streamable algorithm over several
// seeds and workload families.
//
// The rotating-seed hook: OSCHED_FUZZ_SEED (decimal) offsets the workload
// seeds so CI explores fresh instances every run while any failure is
// reproducible from the logged value.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "float_lower_reference.hpp"
#include "fuzz_seed.hpp"
#include "service/job_store.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "sim/schedule_io.hpp"
#include "sim/validator.hpp"
#include "workload/generated_family.hpp"
#include "workload/generators.hpp"

namespace osched {
namespace {

using testing::lower_reference;

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("streaming_test", 42);
}

enum class Family { kDense, kWeighted, kRestricted };

Instance make_workload(Family family, std::uint64_t seed, std::size_t n,
                       std::size_t m) {
  workload::WorkloadConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.2;
  config.sizes.dist = workload::SizeDistribution::kPareto;
  switch (family) {
    case Family::kDense:
      break;
    case Family::kWeighted:
      config.weights = workload::WeightDistribution::kUniform;
      break;
    case Family::kRestricted:
      config.machines.model = workload::MachineModel::kRestricted;
      config.machines.eligibility = 0.5;
      break;
  }
  return workload::generate_workload(config);
}

const api::Algorithm kStreamable[] = {
    api::Algorithm::kTheorem1,    api::Algorithm::kTheorem2,
    api::Algorithm::kWeightedExt, api::Algorithm::kGreedySpt,
    api::Algorithm::kFifo,        api::Algorithm::kImmediateReject,
};

void expect_bit_identical(const api::RunSummary& batch,
                          const api::RunSummary& streamed,
                          const std::string& context) {
  ScheduleDiffOptions strict;
  strict.time_tolerance = 0.0;  // byte-identical, not tolerance-equal
  const auto diffs = diff_schedules(batch.schedule, streamed.schedule, strict);
  EXPECT_TRUE(diffs.empty()) << context << ": " << diffs.size()
                             << " schedule diffs; first: " << diffs.front();

  EXPECT_EQ(batch.report.num_jobs, streamed.report.num_jobs) << context;
  EXPECT_EQ(batch.report.num_completed, streamed.report.num_completed) << context;
  EXPECT_EQ(batch.report.num_rejected, streamed.report.num_rejected) << context;
  EXPECT_EQ(batch.report.rejected_fraction, streamed.report.rejected_fraction)
      << context;
  EXPECT_EQ(batch.report.rejected_weight_fraction,
            streamed.report.rejected_weight_fraction)
      << context;
  EXPECT_EQ(batch.report.total_flow, streamed.report.total_flow) << context;
  EXPECT_EQ(batch.report.completed_flow, streamed.report.completed_flow)
      << context;
  EXPECT_EQ(batch.report.total_weighted_flow,
            streamed.report.total_weighted_flow)
      << context;
  EXPECT_EQ(batch.report.max_flow, streamed.report.max_flow) << context;
  EXPECT_EQ(batch.report.makespan, streamed.report.makespan) << context;
  EXPECT_EQ(batch.report.energy, streamed.report.energy) << context;
  EXPECT_EQ(batch.certified_lower_bound, streamed.certified_lower_bound)
      << context;
  EXPECT_EQ(batch.rule1_rejections, streamed.rule1_rejections) << context;
  EXPECT_EQ(batch.rule2_rejections, streamed.rule2_rejections) << context;
}

TEST(StreamingDifferential, EveryAlgorithmEverySeedEveryChunking) {
  const Family families[] = {Family::kDense, Family::kWeighted,
                             Family::kRestricted};
  const std::size_t chunk_sizes[] = {1, 97, 100000};
  for (const Family family : families) {
    for (std::uint64_t s = 0; s < 3; ++s) {
      const Instance instance =
          make_workload(family, base_seed() + 17 * s, 400, 5);
      for (const api::Algorithm algorithm : kStreamable) {
        const api::RunSummary batch = api::run(algorithm, instance);
        for (const std::size_t chunk : chunk_sizes) {
          const api::RunSummary streamed =
              service::streamed_run(algorithm, instance, {}, chunk);
          expect_bit_identical(
              batch, streamed,
              std::string(api::to_string(algorithm)) + " family=" +
                  std::to_string(static_cast<int>(family)) + " seed+" +
                  std::to_string(17 * s) + " chunk=" + std::to_string(chunk));
        }
      }
    }
  }
}

TEST(StreamingDifferential, BatchSubmitMatchesPerJobSubmitExactly) {
  // submit(span) must make the same decisions as submitting the same jobs
  // one at a time (it amortizes validation/bookkeeping, never event order),
  // for every streamable algorithm and several batch shapes.
  const std::size_t batch_sizes[] = {1, 7, 64, 1000};
  const Instance instance =
      make_workload(Family::kRestricted, base_seed() + 5, 400, 5);
  std::vector<StreamJob> jobs(instance.num_jobs());
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &jobs[idx]);
  }
  for (const api::Algorithm algorithm : kStreamable) {
    const api::RunSummary batch = api::run(algorithm, instance);
    for (const std::size_t batch_size : batch_sizes) {
      service::SchedulerSession session(algorithm, instance.num_machines());
      for (std::size_t at = 0; at < jobs.size(); at += batch_size) {
        const std::size_t take = std::min(batch_size, jobs.size() - at);
        const JobId first = session.submit(
            std::span<const StreamJob>(jobs.data() + at, take));
        EXPECT_EQ(first, static_cast<JobId>(at));
      }
      expect_bit_identical(batch, session.drain(),
                           std::string(api::to_string(algorithm)) +
                               " batch_size=" + std::to_string(batch_size));
    }
  }
}

TEST(StreamingSession, StoreTrustedAppendMatchesPerJobAppend) {
  // The session's batch path — one validate_batch pass, then append_trusted
  // per job — must reproduce per-job append exactly: same ids, same rows,
  // same adjacency.
  const Instance instance =
      make_workload(Family::kRestricted, base_seed() + 9, 64, 4);
  std::vector<StreamJob> jobs(instance.num_jobs());
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &jobs[idx]);
  }
  service::StreamingJobStore batched(instance.num_machines());
  batched.validate_batch(std::span<const StreamJob>());
  batched.validate_batch(std::span<const StreamJob>(jobs));
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    EXPECT_EQ(batched.append_trusted(jobs[idx]), static_cast<JobId>(idx));
  }
  EXPECT_EQ(batched.num_jobs(), jobs.size());
  service::StreamingJobStore single(instance.num_machines());
  for (const StreamJob& job : jobs) single.append(job);
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    EXPECT_EQ(batched.job(j).release, single.job(j).release);
    ASSERT_EQ(batched.eligible_machines(j).size(),
              single.eligible_machines(j).size());
    for (std::size_t i = 0; i < instance.num_machines(); ++i) {
      EXPECT_EQ(
          batched.processing_unchecked(static_cast<MachineId>(i), j),
          single.processing_unchecked(static_cast<MachineId>(i), j));
    }
  }
}

TEST(StreamingSession, BatchSubmitValidatesAndRejectsAtomically) {
  service::SchedulerSession session(api::Algorithm::kTheorem1, 2);
  StreamJob good;
  good.release = 1.0;
  good.weight = 1.0;
  good.deadline = kTimeInfinity;
  good.processing = {1.0, 2.0};
  StreamJob out_of_order = good;
  out_of_order.release = 0.5;  // precedes its in-batch predecessor
  const std::vector<StreamJob> bad = {good, out_of_order};
  EXPECT_DEATH(session.submit(std::span<const StreamJob>(bad)),
               "release order");
  // Nothing from the failed batch may have been appended... (the death
  // test runs in a child; in THIS process prove the empty-batch and
  // single-batch behaviours instead.)
  EXPECT_EQ(session.submit(std::span<const StreamJob>()), kInvalidJob);
  EXPECT_EQ(session.num_submitted(), 0u);
  const std::vector<StreamJob> fine = {good, good};
  EXPECT_EQ(session.submit(std::span<const StreamJob>(fine)), 0);
  EXPECT_EQ(session.num_submitted(), 2u);
}

TEST(StreamingDifferential, InterleavedAdvanceDoesNotChangeDecisions) {
  // advance() between every pair of submissions, to times strictly between
  // arrivals — the finest-grained driving pattern a live feeder can use.
  const Instance instance = make_workload(Family::kDense, base_seed(), 300, 4);
  const api::RunSummary batch = api::run(api::Algorithm::kTheorem1, instance);

  service::SchedulerSession session(api::Algorithm::kTheorem1,
                                    instance.num_machines());
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    fill_stream_job(instance, j, 0.0, &job);
    session.submit(job);
    if (idx + 1 < instance.num_jobs()) {
      const Time here = instance.job(j).release;
      const Time next = instance.job(static_cast<JobId>(idx + 1)).release;
      session.advance(here + 0.5 * (next - here));
    }
  }
  expect_bit_identical(batch, session.drain(), "interleaved advance");
}

TEST(StreamingSession, LowMemoryAggregatesMatchBatchExactly) {
  const Instance instance = make_workload(Family::kDense, base_seed() + 5, 2000, 6);
  const api::RunSummary batch = api::run(api::Algorithm::kTheorem1, instance);

  service::SessionOptions options;
  options.run.validate = false;  // no retained schedule to validate
  options.retain_records = false;
  options.retire_batch = 64;  // exercise many fold/release cycles
  service::SchedulerSession session(api::Algorithm::kTheorem1,
                                    instance.num_machines(), options);
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    session.submit(job);
  }
  const std::size_t max_live = session.max_live_jobs();
  const api::RunSummary streamed = session.drain();

  // The schedule was folded away...
  EXPECT_EQ(streamed.schedule.num_jobs(), 0u);
  // ...but the aggregates are bit-identical (folds run in job-id order, the
  // same order the batch report sums in).
  EXPECT_EQ(batch.report.num_completed, streamed.report.num_completed);
  EXPECT_EQ(batch.report.num_rejected, streamed.report.num_rejected);
  EXPECT_EQ(batch.report.total_flow, streamed.report.total_flow);
  EXPECT_EQ(batch.report.completed_flow, streamed.report.completed_flow);
  EXPECT_EQ(batch.report.total_weighted_flow,
            streamed.report.total_weighted_flow);
  EXPECT_EQ(batch.report.max_flow, streamed.report.max_flow);
  EXPECT_EQ(batch.report.makespan, streamed.report.makespan);
  EXPECT_EQ(batch.certified_lower_bound, streamed.certified_lower_bound);
  EXPECT_EQ(batch.rule1_rejections, streamed.rule1_rejections);
  EXPECT_EQ(batch.rule2_rejections, streamed.rule2_rejections);

  // The memory contract: the working set tracked the live window, which for
  // this near-critically-loaded workload is far below the trace length.
  EXPECT_LT(max_live, instance.num_jobs() / 2) << "live high-water " << max_live;
}

TEST(StreamingSession, DurationsLostToRoundingAtHugeStartTimesStillValidate) {
  // Job 0 holds machine 0 until 1e38; the p = 0.5 jobs queued behind it
  // start there, where end = start + 0.5 rounds back to start. The
  // validating drain and api::run must accept that schedule, not abort.
  constexpr double kInf = kTimeInfinity;
  std::vector<Job> jobs;
  for (int j = 0; j < 4; ++j) {
    jobs.push_back(Job{static_cast<JobId>(j), static_cast<Time>(j), 1.0, kInf});
  }
  const Instance instance(std::move(jobs), {{1e38, 0.5, 0.5, 0.5},
                                            {kInf, kInf, kInf, kInf},
                                            {kInf, kInf, kInf, kInf},
                                            {kInf, kInf, kInf, kInf}});
  ASSERT_EQ(instance.validate(), "");
  api::RunOptions run;
  run.epsilon = 0.1;
  ASSERT_TRUE(run.validate);
  const api::RunSummary batch =
      api::run(api::Algorithm::kTheorem1, instance, run);

  service::SessionOptions options;
  options.run = run;
  service::SchedulerSession session(api::Algorithm::kTheorem1,
                                    instance.num_machines(), options);
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    session.submit(make_stream_job(instance, static_cast<JobId>(idx), 0.0));
  }
  const api::RunSummary streamed = session.drain();
  expect_bit_identical(batch, streamed, "rounded durations");
  EXPECT_TRUE(validate_schedule(streamed.schedule, instance).empty());
  // At least one short job started behind the long one and was recorded
  // with a zero duration: the case the rounding slack exists for.
  bool zero_duration = false;
  for (const JobRecord& rec : streamed.schedule.records()) {
    zero_duration |= rec.fate == JobFate::kCompleted && rec.end == rec.start;
  }
  EXPECT_TRUE(zero_duration);
}

TEST(StreamingSession, ValidateJobReportsRecoverableProblems) {
  service::SchedulerSession session(api::Algorithm::kTheorem1, 2);

  StreamJob good;
  good.release = 1.0;
  good.processing = {1.0, kTimeInfinity};
  EXPECT_EQ(session.validate_job(good), "");
  session.submit(good);

  StreamJob wrong_arity;
  wrong_arity.release = 2.0;
  wrong_arity.processing = {1.0};
  EXPECT_NE(session.validate_job(wrong_arity).find("machines"), std::string::npos);

  StreamJob out_of_order;
  out_of_order.release = 0.5;  // before the last submitted release
  out_of_order.processing = {1.0, 1.0};
  EXPECT_NE(session.validate_job(out_of_order).find("release order"),
            std::string::npos);

  StreamJob ineligible;
  ineligible.release = 2.0;
  ineligible.processing = {kTimeInfinity, kTimeInfinity};
  EXPECT_NE(session.validate_job(ineligible).find("no eligible machine"),
            std::string::npos);

  StreamJob negative;
  negative.release = 2.0;
  negative.processing = {-1.0, 1.0};
  EXPECT_NE(session.validate_job(negative).find("non-positive"),
            std::string::npos);

  // The clock outruns a release after advance().
  session.advance(5.0);
  StreamJob late;
  late.release = 3.0;
  late.processing = {1.0, 1.0};
  EXPECT_NE(session.validate_job(late).find("session clock"), std::string::npos);
}

// ------------------------------------------------ storage-backend sessions
//
// The streaming counterpart of tests/storage_backend_test.cpp: a session's
// storage backend (dense / sparse CSR / generator) must be invisible to
// scheduling. Dense, sparse and generator sessions fed the same closed-form
// workload drain byte-identical RunSummaries — including under overload
// control and across mid-stream checkpoint cuts (checkpoint_test.cpp covers
// the cut legs; the overload legs live here).

workload::ClosedFormConfig trio_config(std::uint64_t seed, std::size_t n,
                                       std::size_t m,
                                       double eligibility = 1.0) {
  workload::ClosedFormConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.25;
  config.eligibility = eligibility;
  return config;
}

service::SessionOptions backend_options(
    StorageBackend storage,
    std::shared_ptr<const RowGenerator> generator = nullptr) {
  service::SessionOptions options;
  options.storage = storage;
  options.generator = std::move(generator);
  return options;
}

TEST(StreamingDifferential, StorageBackendTrioMatchesTheDenseBatchExactly) {
  const workload::ClosedFormConfig config =
      trio_config(base_seed() + 71, 300, 8);
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);
  const Instance generated =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const auto generator = workload::make_closed_form_generator(config);

  const std::size_t chunk_sizes[] = {1, 97, 100000};
  for (const api::Algorithm algorithm : kStreamable) {
    const api::RunSummary batch = api::run(algorithm, dense);
    for (const std::size_t chunk : chunk_sizes) {
      const std::string context = std::string(api::to_string(algorithm)) +
                                  " chunk=" + std::to_string(chunk);
      expect_bit_identical(
          batch,
          service::streamed_session_run(algorithm, dense, {}, chunk),
          context + " dense session");
      expect_bit_identical(
          batch,
          service::streamed_session_run(
              algorithm, sparse,
              backend_options(StorageBackend::kSparseCsr), chunk),
          context + " sparse session");
      expect_bit_identical(
          batch,
          service::streamed_session_run(
              algorithm, generated,
              backend_options(StorageBackend::kGenerator, generator), chunk),
          context + " generator session");
    }
  }
}

TEST(StreamingDifferential, RestrictedSparseSessionsMatchTheDenseBatch) {
  // Restricted assignment is what the sparse backend exists for: eligible
  // rows are short, so the CSR session stores a fraction of the dense
  // matrix — and must still decide identically. Both submission forms are
  // crossed with both matrix backends: fill_stream_job emits the instance
  // backend's natural form, and each store accepts either.
  const workload::ClosedFormConfig config =
      trio_config(base_seed() + 73, 300, 8, /*eligibility=*/0.35);
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);

  for (const api::Algorithm algorithm : kStreamable) {
    const api::RunSummary batch = api::run(algorithm, dense);
    const std::string name = api::to_string(algorithm);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{97}}) {
      expect_bit_identical(
          batch,
          service::streamed_session_run(
              algorithm, sparse,
              backend_options(StorageBackend::kSparseCsr), chunk),
          name + " sparse->sparse chunk=" + std::to_string(chunk));
    }
    // Cross-form legs: sparse submissions into a dense store, dense
    // submissions into a sparse store.
    expect_bit_identical(
        batch, service::streamed_session_run(algorithm, sparse, {}, 97),
        name + " sparse->dense");
    expect_bit_identical(
        batch,
        service::streamed_session_run(
            algorithm, dense, backend_options(StorageBackend::kSparseCsr), 97),
        name + " dense->sparse");
  }
}

struct CappedRun {
  std::vector<service::SubmitOutcome> outcomes;
  std::size_t shed = 0;
  std::size_t backpressured = 0;
  api::RunSummary summary;
};

CappedRun run_capped(const Instance& instance,
                     service::SessionOptions options) {
  service::SchedulerSession session(api::Algorithm::kTheorem1,
                                    instance.num_machines(), options);
  const bool meta_only = options.storage == StorageBackend::kGenerator;
  CappedRun result;
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    if (meta_only) {
      fill_stream_job_meta(instance.job(j), 0.0, &job);
    } else {
      fill_stream_job(instance, j, 0.0, &job);
    }
    // A refused job is dropped, not retried — keeps the accepted arrival
    // sequence a pure function of the outcomes being compared.
    result.outcomes.push_back(session.try_submit(job));
  }
  result.shed = session.num_shed();
  result.backpressured = session.num_backpressured();
  result.summary = session.drain();
  return result;
}

TEST(StreamingSession, OverloadShedsAreByteIdenticalAcrossTheTrio) {
  // Saturation handling must be a function of the arrival sequence alone,
  // never of how p_ij is stored. With a shed budget covering every
  // saturation, all arrivals are accepted (ids stay aligned with the
  // stream), so all THREE backends — generator included — must pick the
  // same shed victims and drain byte-identical.
  workload::ClosedFormConfig config = trio_config(base_seed() + 79, 400, 6);
  config.load = 4.0;  // deep overload: the window must actually saturate
  const auto generator = workload::make_closed_form_generator(config);
  // cap > m guarantees a pending (shed-able) victim at every saturation.
  service::SessionOptions options;
  options.live_window_cap = 8;
  options.shed_budget = 100000;

  const CappedRun dense = run_capped(
      workload::make_closed_form_instance(config, StorageBackend::kDense),
      options);
  options.storage = StorageBackend::kSparseCsr;
  const CappedRun sparse = run_capped(
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr),
      options);
  options.storage = StorageBackend::kGenerator;
  options.generator = generator;
  const CappedRun generated = run_capped(
      workload::make_closed_form_instance(config, StorageBackend::kGenerator),
      options);

  EXPECT_GT(dense.shed, 0u) << "shed budget never drawn on";
  EXPECT_EQ(dense.backpressured, 0u) << "budget must cover every saturation";
  EXPECT_EQ(dense.outcomes, sparse.outcomes);
  EXPECT_EQ(dense.outcomes, generated.outcomes);
  EXPECT_EQ(dense.shed, sparse.shed);
  EXPECT_EQ(dense.shed, generated.shed);
  EXPECT_EQ(dense.backpressured, sparse.backpressured);
  EXPECT_EQ(dense.backpressured, generated.backpressured);
  expect_bit_identical(dense.summary, sparse.summary, "shed sparse");
  expect_bit_identical(dense.summary, generated.summary, "shed generator");
}

TEST(StreamingSession, BackpressureDropsAreByteIdenticalAcrossMatrixBackends) {
  // Once the shed budget is spent, refusals drop jobs from the stream. The
  // payload-carrying backends must still agree on every outcome and drain
  // byte-identical. The generator backend is out of scope here BY DESIGN: a
  // generator tenant's p_ij is a function of the store-assigned id, and a
  // dropped submission shifts that id space, so no matrix twin of the
  // post-drop stream exists — its overload behaviour is pinned by the
  // all-accepted shed leg above.
  workload::ClosedFormConfig config = trio_config(base_seed() + 79, 400, 6);
  config.load = 4.0;
  service::SessionOptions options;
  options.live_window_cap = 8;
  options.shed_budget = 5;

  const CappedRun dense = run_capped(
      workload::make_closed_form_instance(config, StorageBackend::kDense),
      options);
  options.storage = StorageBackend::kSparseCsr;
  const CappedRun sparse = run_capped(
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr),
      options);

  EXPECT_GT(dense.backpressured, 0u) << "live_window_cap never saturated";
  EXPECT_GT(dense.shed, 0u) << "shed budget never drawn on";
  EXPECT_EQ(dense.outcomes, sparse.outcomes);
  EXPECT_EQ(dense.shed, sparse.shed);
  EXPECT_EQ(dense.backpressured, sparse.backpressured);
  expect_bit_identical(dense.summary, sparse.summary, "capped sparse");
}

TEST(StreamingSession, ValidateJobDiagnosesMalformedSparseSubmissions) {
  // The sparse submission contract's recoverable diagnostics, mirrored from
  // the store's validator: every structural demand names the offending
  // entry instead of aborting, so multi-tenant frontends can refuse one bad
  // tenant row without dying.
  service::SchedulerSession session(
      api::Algorithm::kTheorem1, 3,
      backend_options(StorageBackend::kSparseCsr));

  StreamJob good;
  good.release = 1.0;
  good.entries = {SparseEntry{0, 1.0}, SparseEntry{2, 2.0}};
  EXPECT_EQ(session.validate_job(good), "");

  StreamJob both_forms = good;
  both_forms.processing = {1.0, 2.0, 3.0};
  EXPECT_NE(session.validate_job(both_forms).find("exactly one payload form"),
            std::string::npos);

  StreamJob empty;
  empty.release = 1.0;
  EXPECT_NE(session.validate_job(empty).find("empty payload"),
            std::string::npos);

  StreamJob out_of_range = good;
  out_of_range.entries = {SparseEntry{0, 1.0}, SparseEntry{5, 1.0}};
  const std::string range_problem = session.validate_job(out_of_range);
  EXPECT_NE(range_problem.find("out of range (store has 3"),
            std::string::npos)
      << range_problem;

  StreamJob duplicate = good;
  duplicate.entries = {SparseEntry{1, 1.0}, SparseEntry{1, 2.0}};
  EXPECT_NE(session.validate_job(duplicate).find("duplicates machine 1"),
            std::string::npos);

  StreamJob descending = good;
  descending.entries = {SparseEntry{2, 1.0}, SparseEntry{1, 2.0}};
  EXPECT_NE(session.validate_job(descending).find("out of order"),
            std::string::npos);

  StreamJob non_positive = good;
  non_positive.entries = {SparseEntry{0, -1.0}};
  EXPECT_NE(session.validate_job(non_positive).find("non-positive or NaN"),
            std::string::npos);

  StreamJob infinite = good;
  infinite.entries = {SparseEntry{0, kTimeInfinity}};
  EXPECT_NE(session.validate_job(infinite).find(
                "not finite (omit ineligible machines)"),
            std::string::npos);

  // Payload-form vs backend mismatches are recoverable too.
  workload::ClosedFormConfig config = trio_config(1, 4, 3);
  service::SchedulerSession generated(
      api::Algorithm::kTheorem1, 3,
      backend_options(StorageBackend::kGenerator,
                      workload::make_closed_form_generator(config)));
  EXPECT_NE(generated.validate_job(good).find("metadata-only submissions"),
            std::string::npos);
  EXPECT_EQ(generated.validate_job(empty), "");
}

TEST(StreamingSession, StoreBackendsServeIdenticalDataAndCollapseBytes) {
  // Store-level equivalence beneath the session wall: the three backends
  // hand every accessor the same doubles, and the compact backends' matrix
  // footprint collapses (generator to zero, restricted CSR to the adjacency
  // fraction). Small blocks force multi-block coverage and retirement.
  const workload::ClosedFormConfig config =
      trio_config(base_seed() + 83, 64, 8);
  const Instance dense_instance =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const auto generator = workload::make_closed_form_generator(config);

  service::StreamingJobStore dense(8, /*jobs_per_block=*/16);
  service::StreamingJobStore sparse(8, 16, StorageBackend::kSparseCsr);
  service::StreamingJobStore generated(8, 16, StorageBackend::kGenerator,
                                       generator);
  StreamJob job;
  for (std::size_t idx = 0; idx < dense_instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    fill_stream_job(dense_instance, j, 0.0, &job);
    dense.append(job);
    sparse.append(job);
    fill_stream_job_meta(dense_instance.job(j), 0.0, &job);
    generated.append(job);
  }

  for (std::size_t idx = 0; idx < dense_instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    EXPECT_EQ(dense.job(j).release, sparse.job(j).release);
    EXPECT_EQ(dense.job(j).release, generated.job(j).release);
    ASSERT_EQ(sparse.eligible_machines(j).size(), 8u);
    ASSERT_EQ(generated.eligible_machines(j).size(), 8u);
    const Work* sparse_values = sparse.csr_values(j);
    const Work* dense_row = dense.processing_row(j);
    const Work* sparse_row = sparse.processing_row(j);
    for (std::size_t i = 0; i < 8; ++i) {
      const auto machine = static_cast<MachineId>(i);
      const Work p = dense.processing_unchecked(machine, j);
      EXPECT_EQ(p, sparse.processing_unchecked(machine, j));
      EXPECT_EQ(p, generated.processing_unchecked(machine, j));
      EXPECT_EQ(p, sparse_values[i]);  // fully eligible: CSR row is dense
      EXPECT_EQ(dense_row[i], sparse_row[i]);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(float_lower(dense_row[i])),
                std::bit_cast<std::uint32_t>(lower_reference(p)));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(float_lower(sparse_row[i])),
                std::bit_cast<std::uint32_t>(lower_reference(p)));
    }
    const Work* generated_row = generated.processing_row(j);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(dense.processing_unchecked(static_cast<MachineId>(i), j),
                generated_row[i]);
    }
    EXPECT_EQ(dense.min_processing(j), sparse.min_processing(j));
    EXPECT_EQ(dense.min_processing(j), generated.min_processing(j));
  }

  // The memory story: a generator store never holds matrix bytes; the tile
  // scratch is excluded by contract.
  EXPECT_EQ(generated.matrix_bytes(), 0u);
  EXPECT_EQ(generated.matrix_peak_bytes(), 0u);
  EXPECT_GT(dense.matrix_bytes(), 0u);
  EXPECT_GT(sparse.matrix_bytes(), 0u);

  // Retiring whole blocks hands their payload back and the peak stands.
  const std::size_t dense_before = dense.matrix_bytes();
  dense.retire_below(32);
  sparse.retire_below(32);
  EXPECT_LT(dense.matrix_bytes(), dense_before);
  EXPECT_GE(dense.matrix_peak_bytes(), dense_before);

  // A restricted family's CSR store holds ~the eligibility fraction of its
  // dense twin's bytes (eligibility 0.25 here, bound generously at 1/2).
  const workload::ClosedFormConfig restricted =
      trio_config(base_seed() + 89, 64, 32, /*eligibility=*/0.25);
  const Instance restricted_sparse = workload::make_closed_form_instance(
      restricted, StorageBackend::kSparseCsr);
  service::StreamingJobStore wide_dense(32);
  service::StreamingJobStore wide_sparse(32, 4096,
                                         StorageBackend::kSparseCsr);
  for (std::size_t idx = 0; idx < restricted_sparse.num_jobs(); ++idx) {
    fill_stream_job(restricted_sparse, static_cast<JobId>(idx), 0.0, &job);
    wide_dense.append(job);
    wide_sparse.append(job);
  }
  EXPECT_LT(wide_sparse.matrix_peak_bytes(),
            wide_dense.matrix_peak_bytes() / 2)
      << "sparse " << wide_sparse.matrix_peak_bytes() << " vs dense "
      << wide_dense.matrix_peak_bytes();
}

TEST(StreamingSession, DenseStoreAdjacencySharesTheIdentityForFullRows) {
  // A dense row with every entry finite stores no adjacency: its span is
  // the store's one shared 0..m-1 row. Rows with +inf holes list their
  // finite ids, and a sparse submission keeps its explicit list even when
  // it names every machine. Blocks of 4 rows put the cases on both sides
  // of block boundaries and of a retirement.
  constexpr Work kInf = kTimeInfinity;
  const std::vector<std::vector<Work>> dense_rows = {{1.0, 2.0, 3.0, 4.0},
                                                     {kInf, 2.0, 3.0, 4.0},
                                                     {kInf, 2.0, kInf, 4.0},
                                                     {kInf, kInf, 3.0, kInf}};
  const std::vector<MachineId> all = {0, 1, 2, 3};
  const std::vector<std::vector<MachineId>> dense_ids = {
      all, {1, 2, 3}, {1, 3}, {2}};

  EXPECT_DEATH(service::StreamingJobStore(4, /*jobs_per_block=*/3),
               "power of two");
  service::StreamingJobStore store(4, /*jobs_per_block=*/4);
  std::vector<std::vector<MachineId>> expected;
  std::vector<bool> full_dense;
  StreamJob job;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t r = 0; r < dense_rows.size(); ++r) {
      job.entries.clear();
      job.processing = dense_rows[r];
      job.release = static_cast<Time>(expected.size());
      store.append(job);
      expected.push_back(dense_ids[r]);
      full_dense.push_back(r == 0);
    }
    // The sparse form of a full row, naming all four machines.
    job.processing.clear();
    job.entries = {{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}};
    job.release = static_cast<Time>(expected.size());
    store.append(job);
    expected.push_back(all);
    full_dense.push_back(false);
  }

  // `from` is the first live job, `full` a full dense row at or after it.
  const auto check = [&](JobId from, JobId full, const std::string& when) {
    ASSERT_TRUE(full_dense[static_cast<std::size_t>(full)]);
    const MachineId* identity = store.eligible_machines(full).begin();
    for (std::size_t idx = static_cast<std::size_t>(from);
         idx < expected.size(); ++idx) {
      const auto j = static_cast<JobId>(idx);
      const EligibleMachines eligible = store.eligible_machines(j);
      const std::vector<MachineId> ids(eligible.begin(), eligible.end());
      EXPECT_EQ(ids, expected[idx]) << when << " job " << j;
      // Full dense rows all alias one row; no other row does.
      EXPECT_EQ(eligible.begin() == identity, full_dense[idx])
          << when << " job " << j;
      for (std::size_t i = 0; i < 4; ++i) {
        const auto machine = static_cast<MachineId>(i);
        const bool listed =
            std::find(ids.begin(), ids.end(), machine) != ids.end();
        EXPECT_EQ(store.eligible(machine, j), listed) << when << " job " << j;
      }
    }
  };
  check(0, 0, "appended");
  // Retire the first two blocks (jobs 0..7); job 10 is the next full row.
  store.retire_below(8);
  check(8, 10, "after retire_below(8)");
}

TEST(ShardDriver, ThreadCountNeverChangesAnyTenantsOutcome) {
  constexpr std::size_t kShards = 4;
  std::vector<Instance> tenants;
  for (std::size_t s = 0; s < kShards; ++s) {
    tenants.push_back(make_workload(
        s % 2 == 0 ? Family::kDense : Family::kRestricted,
        base_seed() + 100 + s, 250, 4));
  }

  auto run_driver = [&](std::size_t threads) {
    service::ShardDriverOptions options;
    options.threads = threads;
    service::ShardDriver driver(api::Algorithm::kTheorem1, kShards, 4, options);
    // Feed round-robin across tenants in small waves, pumping between
    // waves, the way a frontend ingest loop would.
    for (std::size_t wave = 0; wave < 25; ++wave) {
      for (std::size_t s = 0; s < kShards; ++s) {
        const Instance& instance = tenants[s];
        for (std::size_t k = wave * 10; k < (wave + 1) * 10; ++k) {
          if (k >= instance.num_jobs()) break;
          driver.submit(s, make_stream_job(instance, static_cast<JobId>(k)));
        }
      }
      driver.pump();
    }
    return driver.drain_all();
  };

  const std::vector<api::RunSummary> serial = run_driver(1);
  const std::vector<api::RunSummary> parallel = run_driver(8);
  ASSERT_EQ(serial.size(), kShards);
  ASSERT_EQ(parallel.size(), kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    expect_bit_identical(serial[s], parallel[s],
                         "shard " + std::to_string(s));
    // And each tenant's outcome equals a dedicated single-tenant session's.
    const api::RunSummary solo =
        service::streamed_run(api::Algorithm::kTheorem1, tenants[s], {}, 10);
    expect_bit_identical(solo, parallel[s], "shard vs solo " + std::to_string(s));
  }
}

TEST(ShardDriver, FlushWithoutSyncOverlapsAndStaysDeterministic) {
  // The non-blocking path: flush() hands waves to the persistent workers
  // while the producer immediately stages the next wave; sync() only at
  // the end. Outcomes must equal the pump()-per-wave driving and the
  // dedicated single-tenant session.
  constexpr std::size_t kShards = 3;
  std::vector<Instance> tenants;
  for (std::size_t s = 0; s < kShards; ++s) {
    tenants.push_back(make_workload(Family::kDense, base_seed() + 500 + s, 300, 4));
  }

  service::ShardDriverOptions options;
  options.threads = 3;
  service::ShardDriver driver(api::Algorithm::kTheorem1, kShards, 4, options);
  EXPECT_GT(driver.worker_count(), 0u) << "threads=3 should run real workers";
  for (std::size_t wave = 0; wave < 30; ++wave) {
    for (std::size_t s = 0; s < kShards; ++s) {
      const Instance& instance = tenants[s];
      for (std::size_t k = wave * 10; k < (wave + 1) * 10; ++k) {
        if (k >= instance.num_jobs()) break;
        driver.submit(s, make_stream_job(instance, static_cast<JobId>(k)));
      }
    }
    driver.flush();  // no sync: workers chew while we stage the next wave
  }
  driver.sync();
  const std::vector<api::RunSummary> results = driver.drain_all();
  ASSERT_EQ(results.size(), kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    const api::RunSummary solo =
        service::streamed_run(api::Algorithm::kTheorem1, tenants[s], {}, 10);
    expect_bit_identical(solo, results[s], "flushed shard " + std::to_string(s));
  }
}

TEST(ShardDriver, SingleWorkerResolvesToInlineMode) {
  service::ShardDriverOptions options;
  options.threads = 1;
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 4, 2, options);
  EXPECT_EQ(driver.worker_count(), 0u)
      << "one worker buys no parallelism; the driver must run inline";
}

TEST(ShardDriver, RoutesKeysStablyAcrossAllShards) {
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 8, 2);
  std::vector<bool> hit(8, false);
  for (std::uint64_t key = 0; key < 256; ++key) {
    const std::size_t shard = driver.shard_for(key);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, driver.shard_for(key));  // stable
    hit[shard] = true;
  }
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(hit[s]) << "shard " << s << " never targeted by 256 keys";
  }
}

}  // namespace
}  // namespace osched

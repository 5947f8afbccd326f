// Overload-control wall for streaming sessions (PR 7).
//
// Three layers of guarantees:
//  * semantics — hand-built feeds pin down the window cap exactly: try_submit
//    refuses at the cap (and the refused job can come back once decisions
//    free slots), plain submit aborts, and budgeted sheds evict the policy's
//    lowest-value pending jobs in the documented order (smallest weight,
//    ties to largest queued processing, then largest id);
//  * determinism — sheds fire only when they admit the triggering arrival,
//    so the shed sequence is a function of the accepted arrivals alone:
//    per-job, batch-span and chunked feeds produce bit-identical schedules
//    and shed counts for every streamable algorithm, and a checkpoint cut
//    mid-overload restores to the uninterrupted run;
//  * service plumbing — the shard driver forwards session backpressure in
//    inline mode and bounds handed-off-but-unapplied batches in worker mode
//    (the try_submit/sync retry contract), without losing a single job.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "fuzz_seed.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "sim/schedule_io.hpp"
#include "workload/generated_family.hpp"

namespace osched {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("overload_test", 13);
}

const api::Algorithm kStreamable[] = {
    api::Algorithm::kTheorem1,    api::Algorithm::kTheorem2,
    api::Algorithm::kWeightedExt, api::Algorithm::kGreedySpt,
    api::Algorithm::kFifo,        api::Algorithm::kImmediateReject,
};

StreamJob stream_job(Time release, Weight weight, std::vector<Work> p) {
  StreamJob job;
  job.release = release;
  job.weight = weight;
  job.processing = std::move(p);
  return job;
}

Instance make_workload(std::uint64_t seed, std::size_t n, std::size_t m) {
  workload::ClosedFormConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.5;  // heavy: the live window actually fills
  return workload::make_closed_form_instance(config, StorageBackend::kDense);
}

void expect_identical(const api::RunSummary& expected,
                      const api::RunSummary& actual,
                      const std::string& context) {
  ScheduleDiffOptions strict;
  strict.time_tolerance = 0.0;
  const auto diffs = diff_schedules(expected.schedule, actual.schedule, strict);
  EXPECT_TRUE(diffs.empty()) << context << ": " << diffs.size()
                             << " schedule diffs; first: " << diffs.front();
  EXPECT_EQ(expected.report.num_completed, actual.report.num_completed)
      << context;
  EXPECT_EQ(expected.report.num_rejected, actual.report.num_rejected)
      << context;
  EXPECT_EQ(expected.report.total_flow, actual.report.total_flow) << context;
  EXPECT_EQ(expected.report.total_weighted_flow,
            actual.report.total_weighted_flow)
      << context;
}

TEST(Overload, BackpressureAtTheCapAndAcceptanceAfterDecisions) {
  // One machine, cap 2, no shed budget. Two live jobs saturate the window;
  // a third arrival bounces with kBackpressure and leaves no trace. Once
  // the running job's completion falls due, the same submission goes
  // through — try_submit fires events due by the release BEFORE the
  // admission check, so a window full of finished work never refuses.
  service::SessionOptions options;
  options.live_window_cap = 2;
  service::SchedulerSession session(api::Algorithm::kGreedySpt, 1, options);

  EXPECT_EQ(session.try_submit(stream_job(0.0, 1.0, {1.0})),
            service::SubmitOutcome::kAccepted);  // runs [0, 1)
  EXPECT_EQ(session.try_submit(stream_job(0.0, 1.0, {1.0})),
            service::SubmitOutcome::kAccepted);  // queued; runs [1, 2)
  EXPECT_EQ(session.live_jobs(), 2u);

  const StreamJob refused = stream_job(0.5, 1.0, {1.0});
  EXPECT_EQ(session.try_submit(refused),
            service::SubmitOutcome::kBackpressure);
  EXPECT_EQ(session.num_submitted(), 2u);       // no trace
  EXPECT_EQ(session.num_backpressured(), 1u);
  EXPECT_EQ(session.now(), 0.0);  // nothing was due by 0.5: clock untouched

  // At t=1.5 the first job's completion is due: it fires inside try_submit
  // and frees a slot, so the retry is accepted.
  EXPECT_EQ(session.try_submit(stream_job(1.5, 1.0, {1.0})),
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 0u);

  const api::RunSummary summary = session.drain();
  EXPECT_EQ(summary.report.num_completed, 3u);
  EXPECT_EQ(summary.report.num_rejected, 0u);
}

TEST(Overload, SaturatedWindowOfRunningJobsBackpressuresUnderEveryShedRule) {
  // Cap 2 on two machines, each running one job: the window is full and no
  // queue holds a victim. The shed allowance covers the deficit, but there
  // is nothing to shed, so the arrival bounces instead of pushing the live
  // window to 3, and the failed victim lookup spends nothing.
  for (const auto policy : {service::ShedPolicy::kFixedBudget,
                            service::ShedPolicy::kEpsilonCharged}) {
    for (const auto algorithm :
         {api::Algorithm::kTheorem1, api::Algorithm::kGreedySpt}) {
      const std::string name = std::string(api::to_string(algorithm)) +
                               (policy == service::ShedPolicy::kFixedBudget
                                    ? " fixed"
                                    : " charged");
      service::SessionOptions options;
      options.live_window_cap = 2;
      options.shed_budget = 5;
      options.shed_policy = policy;
      options.run.epsilon = 0.45;  // floor(2·ε·3) = 2 charged sheds
      service::SchedulerSession session(algorithm, 2, options);
      ASSERT_EQ(session.try_submit(stream_job(0.0, 1.0, {4.0, 100.0})),
                service::SubmitOutcome::kAccepted)
          << name;
      ASSERT_EQ(session.try_submit(stream_job(0.0, 1.0, {100.0, 4.0})),
                service::SubmitOutcome::kAccepted)
          << name;
      ASSERT_GE(session.shed_allowance(), 1u) << name;

      EXPECT_EQ(session.try_submit(stream_job(1.0, 1.0, {1.0, 1.0})),
                service::SubmitOutcome::kBackpressure)
          << name;
      EXPECT_EQ(session.num_submitted(), 2u) << name;
      EXPECT_EQ(session.num_shed(), 0u) << name;
      EXPECT_EQ(session.max_live_jobs(), 2u) << name;

      // Once a running job completes, the same arrival is admitted.
      EXPECT_EQ(session.try_submit(stream_job(4.0, 1.0, {1.0, 1.0})),
                service::SubmitOutcome::kAccepted)
          << name;
      const api::RunSummary summary = session.drain();
      EXPECT_EQ(summary.report.num_completed + summary.report.num_rejected,
                3u)
          << name;
      EXPECT_EQ(session.num_shed(), 0u) << name;
    }
  }
}

TEST(Overload, PlainSubmitAbortsAtSaturation) {
  service::SessionOptions options;
  options.live_window_cap = 1;
  service::SchedulerSession session(api::Algorithm::kGreedySpt, 1, options);
  session.submit(stream_job(0.0, 1.0, {10.0}));
  EXPECT_DEATH(session.submit(stream_job(1.0, 1.0, {10.0})),
               "live window saturated");
}

TEST(Overload, SaturationAbortNamesTheEffectiveCap) {
  // Under the adaptive cap, live_window_cap is only the seed: clamped into
  // [2, 2], the window holds two jobs, and both abort messages say so.
  service::SessionOptions options;
  options.live_window_cap = 7;
  options.adaptive_cap.enabled = true;
  options.adaptive_cap.min_cap = 2;
  options.adaptive_cap.max_cap = 2;
  options.adaptive_cap.window = 1.0;
  options.adaptive_cap.target_delay = 1.0;
  service::SchedulerSession session(api::Algorithm::kGreedySpt, 1, options);
  session.submit(stream_job(0.0, 1.0, {10.0}));
  session.submit(stream_job(0.5, 1.0, {10.0}));
  EXPECT_EQ(session.current_window_cap(), 2u);
  EXPECT_DEATH(session.submit(stream_job(1.0, 1.0, {10.0})),
               "live window saturated \\(cap 2, live 2\\)");
  const std::vector<StreamJob> batch = {stream_job(1.0, 1.0, {10.0})};
  EXPECT_DEATH(session.submit(std::span<const StreamJob>(batch)),
               "live window saturated mid-batch \\(cap 2, live 2\\)");
}

TEST(Overload, ShedEvictsLowestWeightLargestProcessingLargestId) {
  // Cap 3, budget 2, one machine. j0 runs from t = 0; j1 (w=1, p=2) and
  // j2 (w=1, p=4) queue behind it. The heavy arrivals at t=1 and t=2 each
  // force one shed: first j2 (weight tie with j1, larger queued p), then
  // j1. The third heavy arrival finds the budget spent: backpressure. The
  // victim rule is shared by every policy; ε = 0.05 keeps each policy's
  // own rejection rules (Rule 1/2, Theorem 2's weight counter, the
  // immediate-rejection budget) silent on these five arrivals.
  for (const api::Algorithm algorithm : kStreamable) {
    const std::string name = api::to_string(algorithm);
    service::SessionOptions options;
    options.run.epsilon = 0.05;
    options.live_window_cap = 3;
    options.shed_budget = 2;
    service::SchedulerSession session(algorithm, 1, options);

    session.submit(stream_job(0.0, 5.0, {10.0}));  // j0: running
    session.submit(stream_job(0.0, 1.0, {2.0}));   // j1
    session.submit(stream_job(0.0, 1.0, {4.0}));   // j2
    EXPECT_EQ(session.live_jobs(), 3u) << name;

    EXPECT_EQ(session.try_submit(stream_job(1.0, 9.0, {1.0})),  // j3
              service::SubmitOutcome::kAccepted)
        << name;
    EXPECT_EQ(session.num_shed(), 1u) << name;
    EXPECT_EQ(session.try_submit(stream_job(2.0, 9.0, {1.0})),  // j4
              service::SubmitOutcome::kAccepted)
        << name;
    EXPECT_EQ(session.num_shed(), 2u) << name;
    EXPECT_EQ(session.try_submit(stream_job(3.0, 9.0, {1.0})),
              service::SubmitOutcome::kBackpressure)
        << name;
    EXPECT_EQ(session.num_shed(), 2u) << name;  // a refused submit never sheds
    EXPECT_EQ(session.num_backpressured(), 1u) << name;

    const api::RunSummary summary = session.drain();
    EXPECT_EQ(summary.report.num_completed, 3u) << name;
    EXPECT_EQ(summary.report.num_rejected, 2u) << name;
    EXPECT_EQ(summary.schedule.record(2).fate, JobFate::kRejectedPending)
        << name;
    EXPECT_EQ(summary.schedule.record(2).rejection_time, 1.0) << name;
    EXPECT_EQ(summary.schedule.record(1).fate, JobFate::kRejectedPending)
        << name;
    EXPECT_EQ(summary.schedule.record(1).rejection_time, 2.0) << name;
    for (const JobId j : {0, 3, 4}) {
      EXPECT_TRUE(summary.schedule.record(j).completed()) << name;
    }
    // Theorem 2 runs at a pending-weight-scaled speed; every other policy
    // runs at speed 1 and serves j3 before j4 (SPT, FIFO and density
    // order agree here).
    if (algorithm != api::Algorithm::kTheorem2) {
      EXPECT_EQ(summary.schedule.record(0).end, 10.0) << name;
      EXPECT_EQ(summary.schedule.record(3).end, 11.0) << name;
      EXPECT_EQ(summary.schedule.record(4).end, 12.0) << name;
    }
  }
}

TEST(Overload, ShedSequenceIsFeedInvariantForEveryAlgorithm) {
  // The determinism contract: sheds are a function of the accepted arrivals
  // alone, so per-job, batch-span and chunked-with-advances feeds of the
  // same stream produce bit-identical schedules and shed counts.
  const Instance instance = make_workload(base_seed(), 200, 4);
  std::vector<StreamJob> jobs(instance.num_jobs());
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &jobs[idx]);
  }
  service::SessionOptions options;
  options.live_window_cap = 8;
  options.shed_budget = 100000;  // absorbing: plain submit never aborts

  for (const api::Algorithm algorithm : kStreamable) {
    const std::string name = api::to_string(algorithm);

    service::SchedulerSession per_job(algorithm, instance.num_machines(),
                                      options);
    for (const StreamJob& job : jobs) per_job.submit(job);
    const std::size_t shed_per_job = per_job.num_shed();
    const api::RunSummary a = per_job.drain();

    service::SchedulerSession batch(algorithm, instance.num_machines(),
                                    options);
    batch.submit(std::span<const StreamJob>(jobs));
    EXPECT_EQ(batch.num_shed(), shed_per_job) << name;
    const api::RunSummary b = batch.drain();

    service::SchedulerSession chunked(algorithm, instance.num_machines(),
                                      options);
    for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
      chunked.submit(jobs[idx]);
      if ((idx + 1) % 16 == 0 && idx + 1 < jobs.size()) {
        chunked.advance(jobs[idx].release +
                        0.5 * (jobs[idx + 1].release - jobs[idx].release));
      }
    }
    EXPECT_EQ(chunked.num_shed(), shed_per_job) << name;
    const api::RunSummary c = chunked.drain();

    EXPECT_GT(shed_per_job, 0u) << name << ": the wall never saturated";
    expect_identical(a, b, name + " batch feed");
    expect_identical(a, c, name + " chunked feed");
  }
}

TEST(Overload, CheckpointRestoreReproducesTheShedSequence) {
  // Cut an overloaded stream mid-run — sheds already spent, budget partly
  // consumed — and restore: the replayed journal must reproduce every shed
  // (the v2 blob carries cap and budget; the journal carries exactly the
  // accepted arrivals), and the continued run must equal the uninterrupted
  // one decision for decision.
  const Instance instance = make_workload(base_seed() + 1, 160, 3);
  service::SessionOptions options;
  options.live_window_cap = 6;
  options.shed_budget = 100000;

  for (const api::Algorithm algorithm :
       {api::Algorithm::kTheorem1, api::Algorithm::kWeightedExt}) {
    const std::string name = api::to_string(algorithm);
    service::SchedulerSession uninterrupted(algorithm, instance.num_machines(),
                                            options);
    StreamJob job;
    for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
      fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
      uninterrupted.submit(job);
    }
    const std::size_t total_sheds = uninterrupted.num_shed();
    const api::RunSummary reference = uninterrupted.drain();
    ASSERT_GT(total_sheds, 0u) << name << ": the wall never saturated";

    service::SchedulerSession original(algorithm, instance.num_machines(),
                                       options);
    for (std::size_t idx = 0; idx < 80; ++idx) {
      fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
      original.submit(job);
    }
    ASSERT_GT(original.num_shed(), 0u) << name << ": cut before any shed";

    std::string error;
    auto restored =
        service::SchedulerSession::restore(original.checkpoint(), &error);
    ASSERT_NE(restored, nullptr) << name << ": " << error;
    EXPECT_EQ(restored->num_shed(), original.num_shed()) << name;

    for (std::size_t idx = 80; idx < instance.num_jobs(); ++idx) {
      fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
      restored->submit(job);
    }
    EXPECT_EQ(restored->num_shed(), total_sheds) << name;
    expect_identical(reference, restored->drain(), name + " restored");
  }
}

TEST(Overload, ShardDriverInlineModeForwardsBackpressure) {
  service::ShardDriverOptions options;
  options.threads = 1;  // inline: ops apply on the calling thread
  options.session.live_window_cap = 1;
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 1, 1, options);
  ASSERT_EQ(driver.worker_count(), 0u);

  EXPECT_EQ(driver.try_submit(0, stream_job(0.0, 1.0, {10.0})),
            service::StageOutcome::kAccepted);
  EXPECT_EQ(driver.try_submit(0, stream_job(1.0, 1.0, {10.0})),
            service::StageOutcome::kBackpressure);
  EXPECT_EQ(driver.inflight_batches(0), 0u);  // inline mode: nothing queued
  EXPECT_EQ(driver.session(0).num_backpressured(), 1u);
  // The first job completes at t=10; a later release is admitted.
  EXPECT_EQ(driver.try_submit(0, stream_job(10.0, 1.0, {10.0})),
            service::StageOutcome::kAccepted);
  const auto results = driver.drain_all();
  EXPECT_EQ(results[0].report.num_completed, 2u);
}

TEST(Overload, ShardDriverWorkerModeBoundsInflightBatches) {
  // Worker mode with max_inflight_batches = 1: try_submit refuses whenever
  // the shard already has a handed-off-but-unapplied batch; the caller
  // sync()s and retries — the documented backoff contract. The bound holds
  // at every observation point and no job is lost.
  const Instance instance = make_workload(base_seed() + 2, 100, 2);
  service::ShardDriverOptions options;
  options.threads = 2;
  options.max_inflight_batches = 1;
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 2, 2, options);
  ASSERT_GT(driver.worker_count(), 0u);

  std::size_t refusals = 0;
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    const std::size_t shard = idx % 2;
    while (!service::stage_ok(driver.try_submit(shard, job))) {
      ++refusals;
      EXPECT_LE(driver.inflight_batches(shard), 1u);
      driver.sync();  // the backlog drains; the retry must now stage
      ASSERT_TRUE(service::stage_ok(driver.try_submit(shard, job)));
      break;
    }
    driver.flush();
    EXPECT_LE(driver.inflight_batches(shard), 1u);
  }
  const auto results = driver.drain_all();
  std::size_t accounted = 0;
  for (const auto& summary : results) {
    accounted += summary.report.num_completed + summary.report.num_rejected;
  }
  EXPECT_EQ(accounted, instance.num_jobs()) << refusals << " refusals";
}

}  // namespace
}  // namespace osched

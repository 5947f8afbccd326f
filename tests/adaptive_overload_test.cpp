// Adaptive overload wall (PR 9): ε-charged shedding, cap auto-tuning and
// fair multi-tenant backpressure.
//
// Four layers of guarantees on top of tests/overload_test.cpp's PR 7 wall:
//  * budgets — the fixed rule's allowance arithmetic is exact at the
//    boundary (deficit == remaining sheds, deficit == remaining + 1
//    backpressures, including multi-shed deficits after an adaptive cap
//    drop), and make_room stays all-or-nothing: a refused submit sheds
//    nothing;
//  * ε-charging — kEpsilonCharged derives the shed budget from the paper's
//    rejection allowance floor(2·ε·n) shared with the policy's own Rule 1/2
//    rejections, evicts the globally largest queued processing time (Rule
//    2's victim, not the fixed rule's lowest-weight one), and the drained
//    schedule still validates — the sheds are booked as paper rejections;
//  * determinism — adaptive cap moves and ε-charged sheds are pure
//    functions of the accepted arrivals: per-job and chunked feeds agree,
//    checkpoint cuts restore to the uninterrupted run, the checkpoint
//    round-trips the configuration and forged fields come back as
//    diagnostics;
//  * fairness — the shard driver's deficit-round-robin admission bounds a
//    hot tenant to 2×quantum staged ops per flush round, never starves a
//    cold sibling, and the whole try_* surface (StageOutcome) stays
//    thread-count invariant under inflight saturation and fleet chaos.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/scheduler_api.hpp"
#include "fuzz_seed.hpp"
#include "service/checkpoint.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "sim/schedule_io.hpp"
#include "workload/generated_family.hpp"

namespace osched {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("adaptive_overload_test", 9);
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

// ---------------------------------------------------------------------------
// Budget arithmetic at the boundary (satellite: the hardened
// shed_budget - sheds_spent subtraction).

TEST(AdaptiveOverload, FixedAllowanceIsExactAtTheBoundary) {
  // Cap 3, budget 1: the first over-cap arrival has deficit 1 == remaining
  // 1 and sheds; the second has deficit 1 == remaining + 1 and bounces.
  service::SessionOptions options;
  options.live_window_cap = 3;
  options.shed_budget = 1;
  service::SchedulerSession session(api::Algorithm::kGreedySpt, 1, options);
  EXPECT_EQ(session.shed_allowance(), 1u);
  EXPECT_EQ(session.current_window_cap(), 3u);

  session.submit(stream_job(0.0, 1.0, {100.0}));  // running
  session.submit(stream_job(0.0, 1.0, {100.0}));
  session.submit(stream_job(0.0, 1.0, {100.0}));
  EXPECT_EQ(session.try_submit(stream_job(1.0, 1.0, {100.0})),
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 1u);
  EXPECT_EQ(session.shed_allowance(), 0u);
  EXPECT_EQ(session.try_submit(stream_job(2.0, 1.0, {100.0})),
            service::SubmitOutcome::kBackpressure);
  EXPECT_EQ(session.num_shed(), 1u);
  EXPECT_EQ(session.num_backpressured(), 1u);
}

// Shared scenario for the two adaptive-drop tests: one machine, p = 100
// everywhere, adaptive cap in [2, 6] over a 1.0 virtual-time window with
// sizing target 1.2. A t≈0 burst climbs the cap to 6 and fills the window;
// the lull before t = 10 then collapses the cap to 2, stranding live jobs
// above it — the only way a deficit can exceed 1.
service::SessionOptions adaptive_drop_options(std::size_t shed_budget) {
  service::SessionOptions options;
  options.live_window_cap = 6;
  options.shed_budget = shed_budget;
  options.adaptive_cap.enabled = true;
  options.adaptive_cap.min_cap = 2;
  options.adaptive_cap.max_cap = 6;
  options.adaptive_cap.window = 1.0;
  options.adaptive_cap.target_delay = 1.2;
  options.adaptive_cap.hysteresis = 0;
  return options;
}

TEST(AdaptiveOverload, CapTracksTheRateAndADropCanForceAMultiShed) {
  service::SchedulerSession session(api::Algorithm::kGreedySpt, 1,
                                    adaptive_drop_options(6));
  // The burst: each accepted arrival raises the observed rate by one, and
  // with hysteresis 0 the cap follows ceil(rate * 1.2) exactly.
  session.submit(stream_job(0.00, 1.0, {100.0}));  // j0: rate 1 -> cap 2
  EXPECT_EQ(session.current_window_cap(), 2u);
  session.submit(stream_job(0.01, 1.0, {100.0}));  // j1: rate 2 -> cap 3
  session.submit(stream_job(0.02, 1.0, {100.0}));  // j2: rate 3 -> cap 4
  session.submit(stream_job(0.03, 1.0, {100.0}));  // j3: rate 4 -> cap 5
  session.submit(stream_job(0.04, 1.0, {100.0}));  // j4: rate 5 -> cap 6
  session.submit(stream_job(0.05, 1.0, {100.0}));  // j5: desired 8, clamp 6
  EXPECT_EQ(session.current_window_cap(), 6u);
  EXPECT_EQ(session.live_jobs(), 6u);

  // The lull: j6 is admitted against the OLD cap (deficit 1, shedding the
  // fixed rule's victim — largest id j5), and only then re-tunes the cap
  // down to 2: its window (9, 10] holds just itself.
  EXPECT_EQ(session.try_submit(stream_job(10.0, 1.0, {100.0})),
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 1u);
  EXPECT_EQ(session.current_window_cap(), 2u);
  EXPECT_EQ(session.live_jobs(), 6u);

  // j7 faces 6 live jobs above cap 2: deficit 5 == the remaining budget
  // (6 - 1), so all five pending jobs are shed in one admission.
  EXPECT_EQ(session.try_submit(stream_job(10.5, 1.0, {100.0})),
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 6u);
  EXPECT_EQ(session.shed_allowance(), 0u);
  EXPECT_EQ(session.live_jobs(), 2u);

  const api::RunSummary summary = session.drain();
  EXPECT_EQ(summary.report.num_completed, 2u);  // j0 and j7
  EXPECT_EQ(summary.report.num_rejected, 6u);
  EXPECT_EQ(summary.schedule.record(5).fate, JobFate::kRejectedPending);
  EXPECT_EQ(summary.schedule.record(5).rejection_time, 10.0);
}

TEST(AdaptiveOverload, MultiShedDeficitIsAllOrNothing) {
  // Same drop, budget 5: j7's deficit 5 exceeds the remaining 4 by exactly
  // one, so the submit is refused and NOT ONE of the five candidate sheds
  // fires — a refused submit must leave no trace, or checkpoint replay
  // could not reproduce the shed sequence.
  service::SchedulerSession session(api::Algorithm::kGreedySpt, 1,
                                    adaptive_drop_options(5));
  for (std::size_t k = 0; k < 6; ++k) {
    session.submit(stream_job(0.01 * static_cast<Time>(k), 1.0, {100.0}));
  }
  ASSERT_EQ(session.try_submit(stream_job(10.0, 1.0, {100.0})),
            service::SubmitOutcome::kAccepted);
  ASSERT_EQ(session.num_shed(), 1u);

  EXPECT_EQ(session.try_submit(stream_job(10.5, 1.0, {100.0})),
            service::SubmitOutcome::kBackpressure);
  EXPECT_EQ(session.num_shed(), 1u);  // no partial shed
  EXPECT_EQ(session.live_jobs(), 6u);
  EXPECT_EQ(session.num_backpressured(), 1u);

  const api::RunSummary summary = session.drain();
  EXPECT_EQ(summary.report.num_completed, 6u);
  EXPECT_EQ(summary.report.num_rejected, 1u);
}

// ---------------------------------------------------------------------------
// ε-charged shedding.

TEST(AdaptiveOverload, EpsilonChargedBudgetAndVictimFollowThePaper) {
  // Theorem 1 at ε = 0.2, one machine, cap 3. The allowance for the k-th
  // arrival is floor(2·0.2·k): arrivals 4 and 5 may each charge one shed,
  // arrival 6 finds the allowance spent. The victim is Rule 2's — the
  // globally largest queued p — NOT the fixed rule's lowest weight, which
  // the weights below are rigged to distinguish. Five dispatches keep the
  // policy's own Rule 1 (threshold 5) and Rule 2 (threshold 6) silent, so
  // every charged rejection in this feed is a shed.
  service::SessionOptions charged;
  charged.run.epsilon = 0.2;
  charged.live_window_cap = 3;
  charged.shed_policy = service::ShedPolicy::kEpsilonCharged;
  charged.shed_budget = 0;  // ignored in this mode
  service::SchedulerSession session(api::Algorithm::kTheorem1, 1, charged);

  session.submit(stream_job(0.0, 1.0, {10.0}));  // j0: running
  session.submit(stream_job(0.0, 0.2, {2.0}));   // j1: lightest weight
  session.submit(stream_job(0.0, 5.0, {4.0}));   // j2: largest pending p
  EXPECT_EQ(session.try_submit(stream_job(1.0, 9.0, {1.0})),  // j3
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 1u);       // victim: j2 (p = 4)
  EXPECT_EQ(session.shed_allowance(), 1u); // floor(0.4 * 5) - 1
  EXPECT_EQ(session.try_submit(stream_job(2.0, 9.0, {1.0})),  // j4
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 2u);       // victim: j1 (p = 2 > j3's 1)
  EXPECT_EQ(session.try_submit(stream_job(3.0, 9.0, {1.0})),
            service::SubmitOutcome::kBackpressure);
  EXPECT_EQ(session.num_shed(), 2u);

  // The sheds are booked as paper rejections: the drained schedule (and
  // with it Theorem 1's dual accounting) validates.
  const api::RunSummary summary = session.drain();
  EXPECT_EQ(summary.report.num_completed, 3u);
  EXPECT_EQ(summary.report.num_rejected, 2u);
  EXPECT_EQ(summary.schedule.record(2).fate, JobFate::kRejectedPending);
  EXPECT_EQ(summary.schedule.record(2).rejection_time, 1.0);
  EXPECT_EQ(summary.schedule.record(1).rejection_time, 2.0);

  // The fixed rule on the same feed picks the OTHER victim first (lowest
  // weight j1, then j2) — the two policies are genuinely different rules.
  service::SessionOptions fixed;
  fixed.run.epsilon = 0.2;
  fixed.live_window_cap = 3;
  fixed.shed_budget = 2;
  service::SchedulerSession oracle(api::Algorithm::kTheorem1, 1, fixed);
  oracle.submit(stream_job(0.0, 1.0, {10.0}));
  oracle.submit(stream_job(0.0, 0.2, {2.0}));
  oracle.submit(stream_job(0.0, 5.0, {4.0}));
  ASSERT_EQ(oracle.try_submit(stream_job(1.0, 9.0, {1.0})),
            service::SubmitOutcome::kAccepted);
  const api::RunSummary oracle_summary = oracle.drain();
  EXPECT_EQ(oracle_summary.schedule.record(1).fate, JobFate::kRejectedPending);
  EXPECT_EQ(oracle_summary.schedule.record(1).rejection_time, 1.0);
}

TEST(AdaptiveOverload, EpsilonChargedVictimForTheWeightedExtension) {
  // The weighted extension's charged victim is Theorem 1's rule: the
  // globally largest queued p, ties to the largest id. ε = 0.2 and one
  // machine, cap 3: arrivals 4 and 5 may each charge one shed
  // (floor(2·0.2·k)), arrival 6 finds the allowance spent. The weights keep
  // Rule 1w (arrival weight during j0's run ≤ w0/ε = 5) and Rule 2w
  // (dispatched weight below 5 × the largest-p job's weight) silent, so
  // every charged rejection in this feed is a shed.
  service::SessionOptions charged;
  charged.run.epsilon = 0.2;
  charged.live_window_cap = 3;
  charged.shed_policy = service::ShedPolicy::kEpsilonCharged;
  service::SchedulerSession session(api::Algorithm::kWeightedExt, 1, charged);

  session.submit(stream_job(0.0, 1.0, {10.0}));  // j0: running
  session.submit(stream_job(0.0, 1.0, {2.0}));   // j1: lightest pending
  session.submit(stream_job(0.0, 1.2, {4.0}));   // j2: largest pending p
  EXPECT_EQ(session.try_submit(stream_job(1.0, 1.0, {2.0})),  // j3
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 1u);  // victim: j2 (p = 4), not light j1
  EXPECT_EQ(session.try_submit(stream_job(2.0, 0.5, {1.0})),  // j4
            service::SubmitOutcome::kAccepted);
  EXPECT_EQ(session.num_shed(), 2u);  // victim: j3 (p tie with j1, larger id)
  EXPECT_EQ(session.try_submit(stream_job(3.0, 0.5, {1.0})),
            service::SubmitOutcome::kBackpressure);
  EXPECT_EQ(session.num_shed(), 2u);

  const api::RunSummary summary = session.drain();
  EXPECT_EQ(summary.rule1_rejections, 0u);
  EXPECT_EQ(summary.rule2_rejections, 0u);
  EXPECT_EQ(summary.report.num_completed, 3u);
  EXPECT_EQ(summary.report.num_rejected, 2u);
  EXPECT_EQ(summary.schedule.record(2).fate, JobFate::kRejectedPending);
  EXPECT_EQ(summary.schedule.record(2).rejection_time, 1.0);
  EXPECT_EQ(summary.schedule.record(3).fate, JobFate::kRejectedPending);
  EXPECT_EQ(summary.schedule.record(3).rejection_time, 2.0);
  EXPECT_TRUE(summary.schedule.record(1).completed());
  EXPECT_EQ(summary.schedule.record(1).end, 12.0);  // density tie: release
  EXPECT_EQ(summary.schedule.record(4).end, 13.0);
}

// Drives `instance` through a session one try_submit at a time (refused
// jobs are dropped, as a shedding frontend would), advancing the clock at
// chunk boundaries, and reports everything the overload path decides.
struct DriveResult {
  api::RunSummary summary;
  std::size_t sheds = 0;
  std::size_t refused = 0;
  std::size_t final_cap = 0;
};

DriveResult drive(api::Algorithm algorithm, const Instance& instance,
                  const service::SessionOptions& options,
                  std::size_t chunk_size) {
  service::SchedulerSession session(algorithm, instance.num_machines(),
                                    options);
  StreamJob job;
  std::size_t in_chunk = 0;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    session.try_submit(job);
    if (++in_chunk == chunk_size) {
      session.advance(job.release);
      in_chunk = 0;
    }
  }
  DriveResult result;
  result.sheds = session.num_shed();
  result.refused = session.num_backpressured();
  result.final_cap = session.current_window_cap();
  result.summary = session.drain();
  return result;
}

TEST(AdaptiveOverload, EpsilonChargedShedsAreChunkInvariantForEveryPolicy) {
  // Every streamable algorithm supports kEpsilonCharged: policies without
  // their own charged victim (the list baselines) fall back to the fixed
  // victim under the derived budget. In all cases the shed/refusal pattern
  // is a function of the accepted arrivals alone — per-job and chunked
  // feeds agree exactly.
  const Instance instance = make_workload(base_seed() + 1, 120, 2);
  service::SessionOptions options;
  options.run.epsilon = 0.4;
  options.live_window_cap = 6;
  options.shed_policy = service::ShedPolicy::kEpsilonCharged;
  for (const api::Algorithm algorithm : kStreamable) {
    const std::string name = std::string(api::to_string(algorithm));
    const DriveResult per_job = drive(algorithm, instance, options, 1);
    const DriveResult chunked = drive(algorithm, instance, options, 7);
    const DriveResult spanned =
        drive(algorithm, instance, options, instance.num_jobs());
    EXPECT_EQ(per_job.sheds, chunked.sheds) << name;
    EXPECT_EQ(per_job.refused, chunked.refused) << name;
    EXPECT_EQ(per_job.sheds, spanned.sheds) << name;
    EXPECT_EQ(per_job.refused, spanned.refused) << name;
    expect_identical(per_job.summary, chunked.summary, name + " chunked");
    expect_identical(per_job.summary, spanned.summary, name + " spanned");
  }
}

// ---------------------------------------------------------------------------
// Adaptive determinism: chunking and checkpoint cuts.

service::SessionOptions adaptive_workload_options(const Instance& instance) {
  service::SessionOptions options;
  const Time span = instance.job(static_cast<JobId>(instance.num_jobs() - 1))
                        .release -
                    instance.job(static_cast<JobId>(0)).release;
  options.live_window_cap = 0;  // seed at min_cap
  options.shed_budget = 12;
  options.adaptive_cap.enabled = true;
  options.adaptive_cap.min_cap = 4;
  options.adaptive_cap.max_cap = 16;
  options.adaptive_cap.window = span / 8.0 + 1e-3;
  options.adaptive_cap.target_delay = span / 16.0 + 1e-3;
  options.adaptive_cap.hysteresis = 1;
  return options;
}

TEST(AdaptiveOverload, CapDecisionsAreChunkInvariant) {
  const Instance instance = make_workload(base_seed() + 2, 160, 2);
  const service::SessionOptions options = adaptive_workload_options(instance);
  const DriveResult per_job =
      drive(api::Algorithm::kGreedySpt, instance, options, 1);
  const DriveResult chunked =
      drive(api::Algorithm::kGreedySpt, instance, options, 7);
  const DriveResult spanned =
      drive(api::Algorithm::kGreedySpt, instance, options,
            instance.num_jobs());
  // Load 1.5 against max_cap 16 guarantees the window saturates: the cap
  // tuner and the shed budget are genuinely exercised, not vacuously equal.
  EXPECT_GT(per_job.sheds + per_job.refused, 0u);
  EXPECT_EQ(per_job.sheds, chunked.sheds);
  EXPECT_EQ(per_job.refused, chunked.refused);
  EXPECT_EQ(per_job.final_cap, chunked.final_cap);
  EXPECT_EQ(per_job.sheds, spanned.sheds);
  EXPECT_EQ(per_job.refused, spanned.refused);
  EXPECT_EQ(per_job.final_cap, spanned.final_cap);
  expect_identical(per_job.summary, chunked.summary, "chunked");
  expect_identical(per_job.summary, spanned.summary, "spanned");
}

TEST(AdaptiveOverload, CheckpointCutReproducesEveryCapAndShedDecision) {
  // Cut an adaptive ε-charged session mid-overload. The journal carries
  // configuration + accepted jobs only; replay must re-derive the rate
  // estimator, the cap trajectory and the charged-shed sequence, so the
  // restored session continues exactly like the original.
  const Instance instance = make_workload(base_seed() + 3, 160, 2);
  service::SessionOptions options = adaptive_workload_options(instance);
  options.shed_policy = service::ShedPolicy::kEpsilonCharged;
  options.run.epsilon = 0.3;
  service::SchedulerSession original(api::Algorithm::kTheorem1,
                                     instance.num_machines(), options);
  StreamJob job;
  const std::size_t cut = 80;
  for (std::size_t idx = 0; idx < cut; ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    original.try_submit(job);
  }

  std::string error;
  auto restored =
      service::SchedulerSession::restore(original.checkpoint(), &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->num_shed(), original.num_shed());
  EXPECT_EQ(restored->current_window_cap(), original.current_window_cap());
  EXPECT_EQ(restored->shed_allowance(), original.shed_allowance());

  for (std::size_t idx = cut; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    const auto a = original.try_submit(job);
    const auto b = restored->try_submit(job);
    EXPECT_EQ(a, b) << "job " << idx;
  }
  EXPECT_EQ(restored->num_shed(), original.num_shed());
  EXPECT_EQ(restored->current_window_cap(), original.current_window_cap());
  expect_identical(original.drain(), restored->drain(), "restored");
}

// ---------------------------------------------------------------------------
// Cap sizing at the numeric edges and forged checkpoint fields.

TEST(AdaptiveOverload, HugeSizingTargetSaturatesAtMaxCap) {
  // ceil(rate * target_delay) overflows size_t for a huge target_delay (or,
  // through the rate, a tiny window; the product may reach +inf). The
  // desired cap must saturate at max_cap, including max_cap = SIZE_MAX.
  struct Case {
    double window;
    double target_delay;
    std::size_t max_cap;
  };
  const Case cases[] = {
      {10.0, 1e300, 64},
      {10.0, std::numeric_limits<double>::max(), 64},
      {1e-300, 1e300, 64},
      {10.0, 1e300, std::numeric_limits<std::size_t>::max()},
  };
  for (const Case& c : cases) {
    service::SessionOptions options;
    options.adaptive_cap.enabled = true;
    options.adaptive_cap.min_cap = 2;
    options.adaptive_cap.max_cap = c.max_cap;
    options.adaptive_cap.window = c.window;
    options.adaptive_cap.target_delay = c.target_delay;
    service::SchedulerSession session(api::Algorithm::kGreedySpt, 1, options);
    // Unit jobs one apart: each completes as the next arrives, so the
    // window never saturates.
    for (int k = 0; k < 5; ++k) {
      session.submit(stream_job(static_cast<Time>(k), 1.0, {1.0}));
    }
    EXPECT_EQ(session.current_window_cap(), c.max_cap)
        << "window " << c.window << ", target_delay " << c.target_delay;
  }
}

TEST(AdaptiveOverload, ForgedV4FieldsAreDiagnosed) {
  using service::CheckpointWriter;
  const auto begin = [](CheckpointWriter& w) {
    w.bytes(service::kSessionCheckpointMagic, 8);
    w.u32(service::kCheckpointVersion);
    w.u32(static_cast<std::uint32_t>(api::Algorithm::kGreedySpt));
    w.u64(1);     // machines
    w.f64(0.2);   // epsilon
    w.f64(2.0);   // alpha
    w.u64(8);     // speed_levels
    w.f64(0.5);   // start_grid
    w.u8(0);      // validate off
    w.u64(0);     // no fleet events
    w.u64(0);     // initially_down
    w.u64(0);     // rejection_budget
    w.u8(1);      // shed_killed_running
    w.u64(8192);  // retire_batch
    w.u64(0);     // live_window_cap
    w.u64(0);     // shed_budget
    w.u8(static_cast<std::uint8_t>(StorageBackend::kDense));
  };
  const auto finish_empty = [](CheckpointWriter& w) {
    w.f64(0.0);  // clock
    w.u64(0);    // empty job journal
  };

  std::string error;
  {
    // A shed-policy id the enum does not name.
    CheckpointWriter w;
    begin(w);
    w.u8(7);     // forged shed policy
    w.u8(0);     // tuning disabled
    w.u64(0);
    w.u64(0);
    w.f64(0.0);
    w.f64(0.0);
    w.u64(0);
    finish_empty(w);
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("unknown shed policy id 7"), std::string::npos)
        << error;
  }
  {
    // Tuning enabled with an impossible min_cap: the constructor would
    // abort on these, so restore must catch them recoverably first.
    CheckpointWriter w;
    begin(w);
    w.u8(0);     // fixed policy
    w.u8(1);     // tuning enabled...
    w.u64(0);    // ...with min_cap 0
    w.u64(4);
    w.f64(1.0);
    w.f64(1.0);
    w.u64(0);
    finish_empty(w);
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("invalid adaptive-cap fields"), std::string::npos)
        << error;
  }
  // Non-finite estimator fields: the constructor requires both finite.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> non_finite[] = {
      {inf, 1.0}, {nan, 1.0}, {1.0, inf}, {1.0, nan}};
  for (const auto& [window, target_delay] : non_finite) {
    CheckpointWriter w;
    begin(w);
    w.u8(0);   // fixed policy
    w.u8(1);   // tuning enabled
    w.u64(2);  // min_cap
    w.u64(64);  // max_cap
    w.f64(window);
    w.f64(target_delay);
    w.u64(0);
    finish_empty(w);
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("invalid adaptive-cap fields"), std::string::npos)
        << "window " << window << ", target_delay " << target_delay << ": "
        << error;
  }
}

// ---------------------------------------------------------------------------
// Deficit-round-robin fairness in the shard driver.

TEST(AdaptiveOverload, DrrCreditsDeferCarryOverAndCapAtTwoQuanta) {
  service::ShardDriverOptions options;
  options.threads = 1;  // inline
  options.fair_quantum = 2;
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 1, 1, options);
  ASSERT_EQ(driver.worker_count(), 0u);
  EXPECT_EQ(driver.fair_quantum(), 2u);

  using service::StageOutcome;
  EXPECT_EQ(driver.try_submit(0, stream_job(0.0, 1.0, {1.0})),
            StageOutcome::kAccepted);
  EXPECT_EQ(driver.try_submit(0, stream_job(0.1, 1.0, {1.0})),
            StageOutcome::kAccepted);
  EXPECT_EQ(driver.try_submit(0, stream_job(0.2, 1.0, {1.0})),
            StageOutcome::kDeferred);
  EXPECT_EQ(driver.try_advance(0, 0.2), StageOutcome::kDeferred);
  EXPECT_EQ(driver.shard_counters(0).deferred, 2u);

  driver.flush();  // round boundary: credit -> 2
  EXPECT_EQ(driver.try_submit(0, stream_job(0.2, 1.0, {1.0})),
            StageOutcome::kAccepted);

  // Two idle rounds: 1 leftover + 2 + 2 would be 5, but carry caps at one
  // extra quantum — exactly 4 ops clear before the next deferral.
  driver.flush();
  driver.flush();
  std::size_t accepted = 0;
  for (std::size_t k = 0; k < 5; ++k) {
    const auto outcome =
        driver.try_submit(0, stream_job(1.0 + 0.1 * static_cast<Time>(k),
                                        1.0, {1.0}));
    if (service::stage_ok(outcome)) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(driver.shard_counters(0).deferred, 3u);
  EXPECT_EQ(driver.shard_counters(0).staged_ops, 7u);
  driver.drain_all();
}

TEST(AdaptiveOverload, DrrRefusalBurnsNoCreditOnSessionBackpressure) {
  // A kBackpressure refusal comes from the SESSION, after the fairness
  // gate passed — it must not consume the shard's credit, or a saturated
  // tenant would starve itself out of the retry the contract promises.
  service::ShardDriverOptions options;
  options.threads = 1;
  options.fair_quantum = 1;
  options.session.live_window_cap = 1;
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 1, 1, options);

  using service::StageOutcome;
  EXPECT_EQ(driver.try_submit(0, stream_job(0.0, 1.0, {10.0})),
            StageOutcome::kAccepted);
  driver.flush();  // credit back to 1
  EXPECT_EQ(driver.try_submit(0, stream_job(1.0, 1.0, {10.0})),
            StageOutcome::kBackpressure);
  // The credit survived the backpressure: the retry at t = 10 (first job
  // done) is admitted without another round.
  EXPECT_EQ(driver.try_submit(0, stream_job(10.0, 1.0, {10.0})),
            StageOutcome::kAccepted);
  const auto counters = driver.shard_counters(0);
  EXPECT_EQ(counters.backpressured, 1u);
  EXPECT_EQ(counters.deferred, 0u);
  driver.drain_all();
}

TEST(AdaptiveOverload, DrrShieldsAColdTenantFromAHotOne) {
  // Worker mode, two shards, quantum 4. The hot tenant fires 10 submits a
  // round, the cold one 1. The hot tenant is clipped to its quantum every
  // round; the cold tenant is never deferred — its credit is untouchable
  // by its sibling's burst.
  service::ShardDriverOptions options;
  options.threads = 2;
  options.fair_quantum = 4;
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 2, 2, options);
  ASSERT_GT(driver.worker_count(), 0u);

  using service::StageOutcome;
  std::size_t hot_staged = 0;
  for (std::size_t round = 0; round < 5; ++round) {
    const Time base = static_cast<Time>(round);
    std::size_t staged_this_round = 0;
    for (std::size_t k = 0; k < 10; ++k) {
      const auto outcome = driver.try_submit(
          0, stream_job(base + 0.01 * static_cast<Time>(k), 1.0, {0.5, 9.0}));
      if (service::stage_ok(outcome)) {
        ++hot_staged;
        ++staged_this_round;
      } else {
        EXPECT_EQ(outcome, StageOutcome::kDeferred);
      }
    }
    EXPECT_LE(staged_this_round, 2 * driver.fair_quantum());
    EXPECT_EQ(driver.try_submit(1, stream_job(base, 1.0, {9.0, 0.5})),
              StageOutcome::kStaged)
        << "cold tenant deferred in round " << round;
    driver.flush();
  }
  const auto hot = driver.shard_counters(0);
  const auto cold = driver.shard_counters(1);
  EXPECT_EQ(hot.staged_ops, hot_staged);
  EXPECT_EQ(hot.staged_ops, 20u);   // 4 per round
  EXPECT_EQ(hot.deferred, 30u);     // 6 per round
  EXPECT_EQ(cold.deferred, 0u);
  EXPECT_EQ(cold.staged_ops, 5u);
  EXPECT_EQ(hot.max_batch_ops, 4u);
  driver.drain_all();
}

TEST(AdaptiveOverload, SetFairQuantumArmsARestoredDriver) {
  // Checkpoints carry no runtime concerns, so a restored driver comes back
  // with fairness off; set_fair_quantum arms it in place.
  service::ShardDriverOptions options;
  options.threads = 1;
  options.fair_quantum = 2;
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 2, 1, options);
  driver.submit(0, stream_job(0.0, 1.0, {1.0}));
  driver.pump();

  std::string error;
  auto restored = service::ShardDriver::restore(driver.checkpoint(), 1, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->fair_quantum(), 0u);
  restored->set_fair_quantum(1);

  using service::StageOutcome;
  EXPECT_EQ(restored->try_submit(0, stream_job(1.0, 1.0, {1.0})),
            StageOutcome::kAccepted);
  EXPECT_EQ(restored->try_submit(0, stream_job(2.0, 1.0, {1.0})),
            StageOutcome::kDeferred);
  restored->drain_all();
}

// ---------------------------------------------------------------------------
// Chaos: inflight saturation × fleet events, invariant across worker counts.

std::vector<api::RunSummary> chaos_run(const Instance& instance,
                                       std::size_t threads) {
  constexpr std::size_t kShards = 4;
  service::ShardDriverOptions options;
  options.threads = threads;
  options.max_inflight_batches = 1;  // saturates constantly
  options.session.live_window_cap = 8;
  options.session.shed_budget = instance.num_jobs();  // absorbing
  options.session.run.fleet.events = {
      {4.0, 1, FleetEventKind::kSpeedChange, 0.25},
      {8.0, 2, FleetEventKind::kFail},
  };
  service::ShardDriver driver(api::Algorithm::kGreedySpt, kShards,
                              instance.num_machines(), options);

  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    const std::size_t shard = idx % kShards;
    while (!service::stage_ok(driver.try_submit(shard, job))) {
      driver.sync();  // at the inflight cap: drain and retry
    }
    if (idx % 8 == 7) {
      while (!service::stage_ok(driver.try_advance(shard, job.release))) {
        driver.sync();
      }
      driver.flush();
    }
  }
  return driver.drain_all();
}

TEST(AdaptiveOverload, SaturatedChaosFleetIsWorkerCountInvariant) {
  // max_inflight_batches = 1 keeps every shard at the refusal boundary of
  // the try_*/sync retry contract while the fleet plan throttles machine 1
  // and kills machine 2 mid-run. The whole thing must neither deadlock nor
  // let the worker count leak into a single scheduling decision.
  const Instance instance = make_workload(base_seed() + 4, 160, 3);
  const auto inline_results = chaos_run(instance, 1);
  const auto two = chaos_run(instance, 2);
  const auto four = chaos_run(instance, 4);
  ASSERT_EQ(inline_results.size(), two.size());
  ASSERT_EQ(inline_results.size(), four.size());
  for (std::size_t s = 0; s < inline_results.size(); ++s) {
    const std::string tag = "shard " + std::to_string(s);
    expect_identical(inline_results[s], two[s], tag + " @2 workers");
    expect_identical(inline_results[s], four[s], tag + " @4 workers");
  }
}

}  // namespace
}  // namespace osched

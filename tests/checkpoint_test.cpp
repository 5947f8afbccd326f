// Checkpoint/restore wall for streaming sessions and the shard driver.
//
// The contract (service/checkpoint.hpp): a checkpoint is a replay journal,
// and restoring it yields a session BIT-IDENTICAL to the original — cutting
// a stream at any point, checkpointing, restoring, and feeding the rest
// must reproduce the uninterrupted run double-for-double (the streaming
// differential wall supplies the underlying chunking-invariance). Damaged
// blobs — truncated at every length, corrupted at every byte, wrong magic
// or version — must come back as diagnostic errors, never aborts or
// out-of-bounds reads.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <string>
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
  return testing::fuzz_base_seed("checkpoint_test", 11);
}

const api::Algorithm kStreamable[] = {
    api::Algorithm::kTheorem1,    api::Algorithm::kTheorem2,
    api::Algorithm::kWeightedExt, api::Algorithm::kGreedySpt,
    api::Algorithm::kFifo,        api::Algorithm::kImmediateReject,
};

Instance make_workload(std::uint64_t seed, std::size_t n, std::size_t m) {
  workload::ClosedFormConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.25;
  return workload::make_closed_form_instance(config, StorageBackend::kDense);
}

void feed(service::SchedulerSession& session, const Instance& instance,
          std::size_t from, std::size_t to) {
  StreamJob job;
  for (std::size_t idx = from; idx < to; ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    session.submit(job);
  }
}

void expect_identical(const api::RunSummary& expected,
                      const api::RunSummary& actual,
                      const std::string& context) {
  ScheduleDiffOptions strict;
  strict.time_tolerance = 0.0;
  const auto diffs =
      diff_schedules(expected.schedule, actual.schedule, strict);
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
  EXPECT_EQ(expected.report.makespan, actual.report.makespan) << context;
  EXPECT_EQ(expected.certified_lower_bound, actual.certified_lower_bound)
      << context;
  EXPECT_EQ(expected.rule1_rejections, actual.rule1_rejections) << context;
  EXPECT_EQ(expected.rule2_rejections, actual.rule2_rejections) << context;
  EXPECT_EQ(expected.fleet.redispatched, actual.fleet.redispatched) << context;
  EXPECT_EQ(expected.fleet.fault_rejections, actual.fleet.fault_rejections)
      << context;
}

// Hand-written session blobs in the current wire version for the
// forged-field cases. A blob is write_head, the fleet events (u64 count +
// events), write_overload, the backend byte, write_fixed_policy, then the
// clock and job journal.
void write_head(service::CheckpointWriter& w, std::uint64_t machines) {
  w.bytes(service::kSessionCheckpointMagic, 8);
  w.u32(service::kCheckpointVersion);
  w.u32(static_cast<std::uint32_t>(api::Algorithm::kGreedySpt));
  w.u64(machines);
  w.f64(0.2);  // epsilon
  w.f64(2.0);  // alpha
  w.u64(8);    // speed_levels
  w.f64(0.5);  // start_grid
  w.u8(0);     // validate off
}

void write_overload(service::CheckpointWriter& w,
                    std::uint64_t live_window_cap,
                    std::uint64_t shed_budget) {
  w.u64(0);     // initially_down
  w.u64(0);     // rejection_budget
  w.u8(1);      // shed_killed_running
  w.u64(8192);  // retire_batch
  w.u64(live_window_cap);
  w.u64(shed_budget);
}

/// The fixed shed rule with cap tuning disabled.
void write_fixed_policy(service::CheckpointWriter& w) {
  w.u8(0);     // ShedPolicy::kFixedBudget
  w.u8(0);     // tuning disabled
  w.u64(0);    // min_cap
  w.u64(0);    // max_cap
  w.f64(0.0);  // window
  w.f64(0.0);  // target_delay
  w.u64(0);    // hysteresis
}

TEST(Checkpoint, MidStreamRoundTripEveryAlgorithm) {
  const Instance instance = make_workload(base_seed(), 300, 5);
  for (const api::Algorithm algorithm : kStreamable) {
    const std::string name = api::to_string(algorithm);

    service::SchedulerSession uninterrupted(algorithm,
                                            instance.num_machines());
    feed(uninterrupted, instance, 0, instance.num_jobs());
    const api::RunSummary reference = uninterrupted.drain();

    service::SchedulerSession original(algorithm, instance.num_machines());
    feed(original, instance, 0, instance.num_jobs() / 2);
    const std::string blob = original.checkpoint();

    std::string error;
    auto restored = service::SchedulerSession::restore(blob, &error);
    ASSERT_NE(restored, nullptr) << name << ": " << error;
    EXPECT_EQ(restored->algorithm(), algorithm);
    EXPECT_EQ(restored->num_machines(), instance.num_machines());
    EXPECT_EQ(restored->now(), original.now()) << name;
    EXPECT_EQ(restored->num_submitted(), original.num_submitted()) << name;
    EXPECT_EQ(restored->num_decided(), original.num_decided()) << name;

    // The restored session continues the stream...
    feed(*restored, instance, instance.num_jobs() / 2, instance.num_jobs());
    expect_identical(reference, restored->drain(), name + " restored");

    // ...and checkpointing was non-destructive: the original continues too.
    feed(original, instance, instance.num_jobs() / 2, instance.num_jobs());
    expect_identical(reference, original.drain(), name + " original");
  }
}

TEST(Checkpoint, RestoreAtEveryCutMatchesUninterrupted) {
  // Cut the stream at every 7th submission (plus the empty and full cuts),
  // checkpoint, restore, feed the remainder: the drained summary must equal
  // the uninterrupted run's at every cut point. advance() past the cut
  // release before checkpointing proves the clock itself round-trips.
  const Instance instance = make_workload(base_seed() + 1, 120, 4);
  service::SchedulerSession uninterrupted(api::Algorithm::kTheorem1,
                                          instance.num_machines());
  feed(uninterrupted, instance, 0, instance.num_jobs());
  const api::RunSummary reference = uninterrupted.drain();

  for (std::size_t cut = 0; cut <= instance.num_jobs(); cut += 7) {
    service::SchedulerSession session(api::Algorithm::kTheorem1,
                                      instance.num_machines());
    feed(session, instance, 0, cut);
    if (cut > 0 && cut < instance.num_jobs()) {
      const Time here = instance.job(static_cast<JobId>(cut - 1)).release;
      const Time next = instance.job(static_cast<JobId>(cut)).release;
      session.advance(here + 0.5 * (next - here));
    }
    std::string error;
    auto restored =
        service::SchedulerSession::restore(session.checkpoint(), &error);
    ASSERT_NE(restored, nullptr) << "cut=" << cut << ": " << error;
    feed(*restored, instance, cut, instance.num_jobs());
    expect_identical(reference, restored->drain(),
                     "cut=" + std::to_string(cut));
  }
}

TEST(Checkpoint, CarriesTheFleetPlanAndItsCursor) {
  // Checkpoint in the middle of a fleet plan — after a fail and a throttle
  // already fired, before a join and a recovery — and restore: the remaining
  // fleet events must fire in the restored session exactly as in the
  // uninterrupted run, and the v2 speed multipliers must round-trip.
  const Instance instance = make_workload(base_seed() + 2, 200, 5);
  api::RunOptions run;
  const Time t25 = instance.job(static_cast<JobId>(49)).release;
  const Time t40 = instance.job(static_cast<JobId>(79)).release;
  const Time t75 = instance.job(static_cast<JobId>(149)).release;
  const Time t90 = instance.job(static_cast<JobId>(179)).release;
  run.fleet.events = {{t25, 0, FleetEventKind::kFail},
                      {t40, 1, FleetEventKind::kSpeedChange, 0.5},
                      {t75, 0, FleetEventKind::kJoin},
                      {t90, 1, FleetEventKind::kSpeedChange, 2.0}};
  run.fleet.rejection_budget = 2;
  service::SessionOptions options;
  options.run = run;

  service::SchedulerSession uninterrupted(api::Algorithm::kTheorem1,
                                          instance.num_machines(), options);
  feed(uninterrupted, instance, 0, instance.num_jobs());
  const api::RunSummary reference = uninterrupted.drain();
  EXPECT_EQ(reference.fleet.fails, 1u);
  EXPECT_EQ(reference.fleet.joins, 1u);

  service::SchedulerSession session(api::Algorithm::kTheorem1,
                                    instance.num_machines(), options);
  feed(session, instance, 0, 100);  // fail+throttle fired; join+recovery pend
  std::string error;
  auto restored =
      service::SchedulerSession::restore(session.checkpoint(), &error);
  ASSERT_NE(restored, nullptr) << error;
  feed(*restored, instance, 100, instance.num_jobs());
  const api::RunSummary resumed = restored->drain();
  expect_identical(reference, resumed, "fleet checkpoint");
  EXPECT_EQ(resumed.fleet.fails, 1u);
  EXPECT_EQ(resumed.fleet.joins, 1u);
  EXPECT_EQ(resumed.fleet.speed_changes, reference.fleet.speed_changes);
  EXPECT_EQ(resumed.fleet.throttles, reference.fleet.throttles);
  EXPECT_EQ(resumed.fleet.recoveries, reference.fleet.recoveries);
  EXPECT_EQ(resumed.fleet.min_speed_multiplier,
            reference.fleet.min_speed_multiplier);
}

TEST(Checkpoint, ForgedFleetAndOverloadFieldsAreDiagnosed) {
  using service::CheckpointWriter;
  // Shared tail after the fleet events: a dense session with no overload
  // control, then the clock and an empty job journal.
  const auto finish_body = [](CheckpointWriter& w) {
    write_overload(w, /*live_window_cap=*/0, /*shed_budget=*/0);
    w.u8(static_cast<std::uint8_t>(StorageBackend::kDense));
    write_fixed_policy(w);
    w.f64(0.0);  // clock
    w.u64(0);    // no jobs
  };

  std::string error;
  {
    // A speed multiplier the fleet-plan validator refuses: recoverable, and
    // the diagnostic comes from the validator.
    CheckpointWriter w;
    write_head(w, /*machines=*/2);
    w.u64(1);
    w.f64(1.0);  // event time
    w.u32(0);    // machine
    w.u8(3);     // kSpeedChange
    w.f64(-1.0);  // forged multiplier
    finish_body(w);
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("invalid fleet plan"), std::string::npos) << error;
  }
  {
    // A fleet event kind past kSpeedChange is damage.
    CheckpointWriter w;
    write_head(w, /*machines=*/2);
    w.u64(1);
    w.f64(1.0);
    w.u32(0);
    w.u8(4);  // no such kind
    w.f64(1.0);
    finish_body(w);
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("unknown fleet event kind 4"), std::string::npos)
        << error;
  }
  {
    // Overload fields inconsistent with the journal: cap 1 with no shed
    // budget cannot have accepted a second live job, so the replay's
    // backpressure is reported as corruption, not an abort.
    CheckpointWriter w;
    write_head(w, /*machines=*/1);
    w.u64(0);  // no fleet events
    write_overload(w, /*live_window_cap=*/1, /*shed_budget=*/0);
    w.u8(static_cast<std::uint8_t>(StorageBackend::kDense));
    write_fixed_policy(w);
    w.f64(1.0);  // clock
    w.u64(2);    // two journaled jobs, both live at the cut — impossible
    for (const double release : {0.0, 1.0}) {
      w.f64(release);
      w.f64(1.0);            // weight
      w.f64(kTimeInfinity);  // no deadline
      w.f64(100.0);          // processing: still running when job 1 arrives
    }
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("backpressure"), std::string::npos) << error;
  }
}

TEST(Checkpoint, TruncationAtEveryLengthIsDiagnosedNotUB) {
  const Instance instance = make_workload(base_seed() + 3, 20, 3);
  service::SchedulerSession session(api::Algorithm::kTheorem1,
                                    instance.num_machines());
  feed(session, instance, 0, instance.num_jobs());
  const std::string blob = session.checkpoint();

  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::string error;
    const auto restored = service::SchedulerSession::restore(
        std::string_view(blob.data(), len), &error);
    EXPECT_EQ(restored, nullptr) << "prefix of " << len << " bytes restored";
    EXPECT_FALSE(error.empty()) << "no diagnostic for a " << len
                                << "-byte prefix";
  }
}

TEST(Checkpoint, CorruptionAtEveryByteIsDiagnosedNotUB) {
  const Instance instance = make_workload(base_seed() + 4, 20, 3);
  service::SchedulerSession session(api::Algorithm::kTheorem1,
                                    instance.num_machines());
  feed(session, instance, 0, instance.num_jobs());
  const std::string blob = session.checkpoint();

  std::string damaged = blob;
  for (std::size_t at = 0; at < blob.size(); ++at) {
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    std::string error;
    const auto restored = service::SchedulerSession::restore(damaged, &error);
    EXPECT_EQ(restored, nullptr) << "byte " << at << " flipped, restored anyway";
    EXPECT_FALSE(error.empty()) << "no diagnostic for a flip at byte " << at;
    damaged[at] = blob[at];
  }
}

TEST(Checkpoint, WrongMagicVersionAndForgedFieldsAreDiagnosed) {
  using service::CheckpointReader;
  using service::CheckpointWriter;

  std::string error;
  EXPECT_EQ(service::SchedulerSession::restore("", &error), nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // A validly checksummed blob with someone else's magic. (The u64 pad
  // keeps these above open()'s minimum-header size, so the magic/version
  // checks — not the truncation check — are what fires.)
  {
    CheckpointWriter w;
    w.bytes("NOTACKPT", 8);
    w.u32(service::kCheckpointVersion);
    w.u64(0);
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }

  // Right magic, any version but the current one — older blobs included:
  // refused, and the diagnostic names both versions. Same for the driver.
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 6u, 99u}) {
    const auto blob = [version](const char (&magic)[8]) {
      CheckpointWriter w;
      w.bytes(magic, 8);
      w.u32(version);
      w.u64(0);
      return w.finish();
    };
    const std::string expected =
        "unsupported checkpoint version " + std::to_string(version) +
        " (this build reads version 5)";
    EXPECT_EQ(service::SchedulerSession::restore(
                  blob(service::kSessionCheckpointMagic), &error),
              nullptr);
    EXPECT_EQ(error, expected);
    EXPECT_EQ(service::ShardDriver::restore(
                  blob(service::kDriverCheckpointMagic), 1, &error),
              nullptr);
    EXPECT_EQ(error, expected);
  }

  // Structurally valid header whose machine count is an allocation bomb.
  {
    CheckpointWriter w;
    w.bytes(service::kSessionCheckpointMagic, 8);
    w.u32(service::kCheckpointVersion);
    w.u32(0);                        // algorithm: theorem1
    w.u64(0xffffffffffffULL);        // num_machines: absurd
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
}

TEST(Checkpoint, ChecksumIsPinnedAndDetectsEverySingleByteChange) {
  using service::checkpoint_checksum;
  // Golden values: the checksum is part of the wire format, so changing it
  // without a kCheckpointVersion bump must fail here. The 43-byte string is
  // one whole 32-byte stripe plus an 11-byte tail.
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(checkpoint_checksum(fox.data(), fox.size()),
            0x4940a5ab7a2fe3e9ULL);
  EXPECT_EQ(checkpoint_checksum(nullptr, 0), 0x2c1870601f514f10ULL);

  // Every step is a bijection of the state, so one changed byte — in a
  // stripe word or in the tail — always changes the checksum.
  std::mt19937_64 rng(base_seed() + 90);
  std::string buffer(6 * 32 + 11, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  const std::uint64_t clean = checkpoint_checksum(buffer.data(), buffer.size());
  for (std::size_t at = 0; at < buffer.size(); ++at) {
    for (const unsigned mask : {0x01u, 0x80u, 0x5au, 0xffu}) {
      buffer[at] = static_cast<char>(buffer[at] ^ mask);
      EXPECT_NE(checkpoint_checksum(buffer.data(), buffer.size()), clean)
          << "byte " << at << " ^ " << mask << " went undetected";
      buffer[at] = static_cast<char>(buffer[at] ^ mask);
    }
  }

  // Flips of the same high bit in two different words must not cancel.
  // Multiplying by an odd constant only carries changes upward, so a step
  // without the rotation maps a bit-63 flip to the same bit-63 change
  // forever and any two such flips cancel. Cover every pair of words, in
  // the same lane and across lanes, for the top bit and its neighbours
  // (bit 7 of a byte at offset 8k + 7 is bit 63 of word k).
  const std::size_t words = buffer.size() / 32 * 4;
  for (const unsigned mask : {0x80u, 0x40u, 0xc0u}) {
    for (std::size_t a = 0; a < words; ++a) {
      for (std::size_t b = a + 1; b < words; ++b) {
        buffer[8 * a + 7] = static_cast<char>(buffer[8 * a + 7] ^ mask);
        buffer[8 * b + 7] = static_cast<char>(buffer[8 * b + 7] ^ mask);
        EXPECT_NE(checkpoint_checksum(buffer.data(), buffer.size()), clean)
            << "words " << a << " and " << b << " ^ " << mask << " cancel";
        buffer[8 * a + 7] = static_cast<char>(buffer[8 * a + 7] ^ mask);
        buffer[8 * b + 7] = static_cast<char>(buffer[8 * b + 7] ^ mask);
      }
    }
  }

  // The byte length is hashed in, so trailing zero bytes — whether they
  // land in the tail or complete a stripe — are never invisible.
  std::set<std::uint64_t> seen;
  std::string padded = buffer.substr(0, 37);
  for (int zeros = 0; zeros <= 70; ++zeros, padded.push_back('\0')) {
    EXPECT_TRUE(
        seen.insert(checkpoint_checksum(padded.data(), padded.size())).second)
        << zeros << " trailing zero bytes collide with a shorter buffer";
  }
}

TEST(Checkpoint, ReplayValidationFailuresAreDiagnosedNotAborts) {
  using service::CheckpointWriter;
  // A validly checksummed dense blob for a 2-machine session whose job 2
  // is bad; jobs 0 and 1 replay fine. Restore must stop at job 2 with the
  // replay diagnostic naming the problem.
  const auto blob_with_bad_job = [](double release, double p) {
    CheckpointWriter w;
    write_head(w, /*machines=*/2);
    w.u64(0);  // no fleet events
    write_overload(w, /*live_window_cap=*/0, /*shed_budget=*/0);
    w.u8(static_cast<std::uint8_t>(StorageBackend::kDense));
    write_fixed_policy(w);
    w.f64(2.0);  // clock
    w.u64(3);    // three journaled jobs
    const double jobs[3][2] = {{0.0, 1.0}, {1.0, 1.0}, {release, p}};
    for (const auto& [r, p0] : jobs) {
      w.f64(r);
      w.f64(1.0);            // weight
      w.f64(kTimeInfinity);  // no deadline
      w.f64(p0);
      w.f64(2.0);
    }
    return w.finish();
  };
  const std::string prefix = "checkpoint job 2 fails replay validation: ";
  const struct {
    const char* what;
    double release;
    double p;
    const char* problem;
  } cases[] = {
      {"negative p", 1.5, -1.0, "p[0] is non-positive or NaN"},
      {"NaN p", 1.5, std::numeric_limits<double>::quiet_NaN(),
       "p[0] is NaN"},
      {"release below job 1's", 0.5, 1.0,
       "precedes the last submitted release"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_EQ(service::SchedulerSession::restore(
                  blob_with_bad_job(c.release, c.p), &error),
              nullptr)
        << c.what;
    EXPECT_EQ(error.rfind(prefix, 0), 0u) << c.what << ": " << error;
    EXPECT_NE(error.find(c.problem), std::string::npos)
        << c.what << ": " << error;
  }
  // The same blob with a good job 2 restores, so the failures above are
  // the bad field and nothing else.
  std::string error;
  EXPECT_NE(service::SchedulerSession::restore(blob_with_bad_job(1.5, 1.0),
                                               &error),
            nullptr)
      << error;
}

TEST(Checkpoint, LowMemoryAndDrainedSessionsRefuse) {
  service::SessionOptions low_memory;
  low_memory.run.validate = false;
  low_memory.retain_records = false;
  service::SchedulerSession session(api::Algorithm::kTheorem1, 2, low_memory);
  EXPECT_DEATH(session.checkpoint(), "retain_records");

  service::SchedulerSession done(api::Algorithm::kTheorem1, 2);
  done.drain();
  EXPECT_DEATH(done.checkpoint(), "drained");
}

// -------------------------------------------- storage backends (wire v3)

Instance make_backend_workload(std::uint64_t seed, std::size_t n,
                               std::size_t m, StorageBackend backend,
                               double eligibility = 1.0) {
  workload::ClosedFormConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.25;
  config.eligibility = eligibility;
  return workload::make_closed_form_instance(config, backend);
}

void feed_backend(service::SchedulerSession& session, const Instance& instance,
                  std::size_t from, std::size_t to, bool meta_only) {
  StreamJob job;
  for (std::size_t idx = from; idx < to; ++idx) {
    const auto j = static_cast<JobId>(idx);
    if (meta_only) {
      fill_stream_job_meta(instance.job(j), 0.0, &job);
    } else {
      fill_stream_job(instance, j, 0.0, &job);
    }
    session.submit(job);
  }
}

TEST(Checkpoint, SparseSessionsRoundTripTheirVariableStrideJournal) {
  // A restricted-assignment sparse session journals (count, entries) rows of
  // varying length — the one wire-v3 layout whose stride is data-dependent.
  // Mid-stream cut, restore, continue: byte-identical to uninterrupted.
  const Instance instance = make_backend_workload(
      base_seed() + 60, 200, 8, StorageBackend::kSparseCsr,
      /*eligibility=*/0.4);
  service::SessionOptions options;
  options.storage = StorageBackend::kSparseCsr;

  service::SchedulerSession uninterrupted(api::Algorithm::kTheorem1,
                                          instance.num_machines(), options);
  feed_backend(uninterrupted, instance, 0, instance.num_jobs(), false);
  const api::RunSummary reference = uninterrupted.drain();

  service::SchedulerSession original(api::Algorithm::kTheorem1,
                                     instance.num_machines(), options);
  feed_backend(original, instance, 0, 100, false);
  std::string error;
  auto restored =
      service::SchedulerSession::restore(original.checkpoint(), &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->num_submitted(), original.num_submitted());
  feed_backend(*restored, instance, 100, instance.num_jobs(), false);
  expect_identical(reference, restored->drain(), "sparse restored");
  // The restored store is sparse, not a dense rehydration: continuing the
  // ORIGINAL proves checkpointing was non-destructive either way.
  feed_backend(original, instance, 100, instance.num_jobs(), false);
  expect_identical(reference, original.drain(), "sparse original");
}

TEST(Checkpoint, DenseSessionsRoundTripFullAndPartialRows) {
  // A dense store keeps no adjacency for a full row (it shares the identity
  // row) and an explicit one for a row with +inf holes. The journal writes
  // both as m-wide rows, so the replay must rebuild the same split: cut
  // mid-stream, restore, continue, byte-identical to uninterrupted, for
  // every algorithm.
  const Instance instance = make_backend_workload(
      base_seed() + 70, 200, 4, StorageBackend::kDense, /*eligibility=*/0.7);
  std::size_t full_rows = 0;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    full_rows += instance.eligible_machines(static_cast<JobId>(idx)).size() ==
                 instance.num_machines();
  }
  ASSERT_GT(full_rows, 0u);
  ASSERT_LT(full_rows, instance.num_jobs());

  for (const api::Algorithm algorithm : kStreamable) {
    const std::string name = api::to_string(algorithm);
    service::SchedulerSession uninterrupted(algorithm,
                                            instance.num_machines());
    feed_backend(uninterrupted, instance, 0, instance.num_jobs(), false);
    const api::RunSummary reference = uninterrupted.drain();

    service::SchedulerSession original(algorithm, instance.num_machines());
    feed_backend(original, instance, 0, 100, false);
    const std::string blob = original.checkpoint();
    std::string error;
    auto restored = service::SchedulerSession::restore(blob, &error);
    ASSERT_NE(restored, nullptr) << name << ": " << error;
    EXPECT_EQ(restored->checkpoint(), blob) << name;
    feed_backend(*restored, instance, 100, instance.num_jobs(), false);
    expect_identical(reference, restored->drain(), name + " restored");
  }
}

TEST(Checkpoint, GeneratorSessionsRoundTripGivenTheirClosedForm) {
  // A generator session's journal is metadata-only; restore() is handed the
  // closed form. A FRESH generator built from an equal config must do —
  // equal configs produce bit-identical forms, so checkpoints survive
  // process restarts where the original pointer is gone.
  workload::ClosedFormConfig config;
  config.num_jobs = 200;
  config.num_machines = 6;
  config.seed = base_seed() + 61;
  config.load = 1.25;
  const Instance instance =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  service::SessionOptions options;
  options.storage = StorageBackend::kGenerator;
  options.generator = workload::make_closed_form_generator(config);

  service::SchedulerSession uninterrupted(api::Algorithm::kTheorem1,
                                          instance.num_machines(), options);
  feed_backend(uninterrupted, instance, 0, instance.num_jobs(), true);
  const api::RunSummary reference = uninterrupted.drain();

  service::SchedulerSession original(api::Algorithm::kTheorem1,
                                     instance.num_machines(), options);
  feed_backend(original, instance, 0, 100, true);
  const std::string blob = original.checkpoint();

  // Without the closed form the blob is undecodable — diagnosed, not UB.
  std::string error;
  EXPECT_EQ(service::SchedulerSession::restore(blob, &error), nullptr);
  EXPECT_NE(error.find("generator-backed session"), std::string::npos)
      << error;

  auto restored = service::SchedulerSession::restore(
      blob, &error, workload::make_closed_form_generator(config));
  ASSERT_NE(restored, nullptr) << error;
  feed_backend(*restored, instance, 100, instance.num_jobs(), true);
  expect_identical(reference, restored->drain(), "generator restored");
}

TEST(Checkpoint, CompactBackendBlobTruncationIsDiagnosedNotUB) {
  // The dense truncation wall has a fixed journal stride; the sparse and
  // generator layouts have their own parse paths, so they get their own
  // every-length truncation sweep.
  workload::ClosedFormConfig config;
  config.num_jobs = 12;
  config.num_machines = 3;
  config.seed = base_seed() + 62;
  const auto generator = workload::make_closed_form_generator(config);

  std::vector<std::string> blobs;
  {
    const Instance sparse = make_backend_workload(
        base_seed() + 63, 12, 3, StorageBackend::kSparseCsr, 0.6);
    service::SessionOptions options;
    options.storage = StorageBackend::kSparseCsr;
    service::SchedulerSession session(api::Algorithm::kTheorem1, 3, options);
    feed_backend(session, sparse, 0, sparse.num_jobs(), false);
    blobs.push_back(session.checkpoint());
  }
  {
    const Instance generated =
        workload::make_closed_form_instance(config, StorageBackend::kGenerator);
    service::SessionOptions options;
    options.storage = StorageBackend::kGenerator;
    options.generator = generator;
    service::SchedulerSession session(api::Algorithm::kTheorem1, 3, options);
    feed_backend(session, generated, 0, generated.num_jobs(), true);
    blobs.push_back(session.checkpoint());
  }
  for (const std::string& blob : blobs) {
    for (std::size_t len = 0; len < blob.size(); ++len) {
      std::string error;
      const auto restored = service::SchedulerSession::restore(
          std::string_view(blob.data(), len), &error, generator);
      EXPECT_EQ(restored, nullptr) << "prefix of " << len << " bytes restored";
      EXPECT_FALSE(error.empty()) << "no diagnostic at " << len << " bytes";
    }
  }
}

TEST(Checkpoint, ForgedBackendFieldsAreDiagnosed) {
  using service::CheckpointWriter;
  // The header through the overload fields, for a 1-machine kGreedySpt
  // session — each case below appends a differently damaged tail.
  const auto begin = [](CheckpointWriter& w) {
    write_head(w, /*machines=*/1);
    w.u64(0);  // no fleet events
    write_overload(w, /*live_window_cap=*/0, /*shed_budget=*/0);
  };

  std::string error;
  {
    // A backend id the trio does not name.
    CheckpointWriter w;
    begin(w);
    w.u8(7);     // forged backend
    write_fixed_policy(w);
    w.f64(0.0);  // clock
    w.u64(0);    // no jobs
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("unknown storage backend id 7"), std::string::npos)
        << error;
  }
  {
    // A sparse job declaring more entries than the blob holds: the count is
    // bounds-checked before any allocation or read.
    CheckpointWriter w;
    begin(w);
    w.u8(static_cast<std::uint8_t>(StorageBackend::kSparseCsr));
    write_fixed_policy(w);
    w.f64(0.0);  // clock
    w.u64(1);    // one journaled job
    w.f64(0.0);            // release
    w.f64(1.0);            // weight
    w.f64(kTimeInfinity);  // deadline
    w.u32(0x00ffffff);     // entry count: a lie
    w.u32(0);              // one real entry's machine...
    w.f64(1.0);            // ...and value
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("more sparse entries than the blob holds"),
              std::string::npos)
        << error;
  }
  {
    // A dense journal is fixed-stride, so surplus bytes are caught by the
    // up-front size check.
    CheckpointWriter w;
    begin(w);
    w.u8(static_cast<std::uint8_t>(StorageBackend::kDense));
    write_fixed_policy(w);
    w.f64(0.0);  // clock
    w.u64(1);    // one journaled job
    w.f64(0.0);            // release
    w.f64(1.0);            // weight
    w.f64(kTimeInfinity);  // deadline
    w.f64(1.0);            // the 1-machine processing row
    w.f64(42.0);           // surplus
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("job journal size mismatch"), std::string::npos)
        << error;
  }
  {
    // The sparse journal's stride is data-dependent, so its surplus check
    // runs after replay: bytes left over are damage, not padding.
    CheckpointWriter w;
    begin(w);
    w.u8(static_cast<std::uint8_t>(StorageBackend::kSparseCsr));
    write_fixed_policy(w);
    w.f64(0.0);  // clock
    w.u64(1);    // one journaled job
    w.f64(0.0);            // release
    w.f64(1.0);            // weight
    w.f64(kTimeInfinity);  // deadline
    w.u32(1);              // one entry
    w.u32(0);              // machine 0
    w.f64(1.0);            // p
    w.u32(0);              // trailing garbage...
    w.f64(42.0);           // ...the declared journal never claims
    EXPECT_EQ(service::SchedulerSession::restore(w.finish(), &error), nullptr);
    EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
  }
}

TEST(ShardDriverCheckpoint, RoundTripAcrossThreadCounts) {
  // Checkpoint a 4-tenant driver mid-stream; restore twice (inline mode and
  // a real worker pool) and continue all three drivers identically: every
  // tenant's drained summary must match, and match the uninterrupted run.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kMachines = 4;
  std::vector<Instance> tenants;
  for (std::size_t s = 0; s < kShards; ++s) {
    tenants.push_back(make_workload(base_seed() + 50 + s, 200, kMachines));
  }
  const auto feed_driver = [&](service::ShardDriver& driver, std::size_t from,
                               std::size_t to) {
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t k = from; k < to && k < tenants[s].num_jobs(); ++k) {
        driver.submit(s, make_stream_job(tenants[s], static_cast<JobId>(k)));
      }
    }
    driver.pump();
  };

  service::ShardDriverOptions options;
  options.threads = 2;
  service::ShardDriver original(api::Algorithm::kTheorem1, kShards, kMachines,
                                options);
  feed_driver(original, 0, 100);
  const std::string blob = original.checkpoint();

  std::string error;
  auto inline_restore = service::ShardDriver::restore(blob, 1, &error);
  ASSERT_NE(inline_restore, nullptr) << error;
  EXPECT_EQ(inline_restore->worker_count(), 0u) << "threads=1 must run inline";
  auto pooled_restore = service::ShardDriver::restore(blob, 4, &error);
  ASSERT_NE(pooled_restore, nullptr) << error;

  feed_driver(original, 100, 200);
  feed_driver(*inline_restore, 100, 200);
  feed_driver(*pooled_restore, 100, 200);
  const auto a = original.drain_all();
  const auto b = inline_restore->drain_all();
  const auto c = pooled_restore->drain_all();
  ASSERT_EQ(a.size(), kShards);
  ASSERT_EQ(b.size(), kShards);
  ASSERT_EQ(c.size(), kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    service::SchedulerSession solo(api::Algorithm::kTheorem1, kMachines);
    feed(solo, tenants[s], 0, tenants[s].num_jobs());
    const api::RunSummary reference = solo.drain();
    expect_identical(reference, a[s], "original shard " + std::to_string(s));
    expect_identical(reference, b[s], "inline shard " + std::to_string(s));
    expect_identical(reference, c[s], "pooled shard " + std::to_string(s));
  }
}

TEST(ShardDriverCheckpoint, DamagedContainerIsDiagnosed) {
  service::ShardDriver driver(api::Algorithm::kGreedySpt, 2, 2);
  const std::string blob = driver.checkpoint();

  std::string error;
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, blob.size() / 2, blob.size() - 1}) {
    EXPECT_EQ(service::ShardDriver::restore(
                  std::string_view(blob.data(), len), 1, &error),
              nullptr)
        << len;
    EXPECT_FALSE(error.empty());
  }

  // A session blob is not a driver blob (and vice versa).
  service::SchedulerSession session(api::Algorithm::kGreedySpt, 2);
  EXPECT_EQ(service::ShardDriver::restore(session.checkpoint(), 1, &error),
            nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  EXPECT_EQ(service::SchedulerSession::restore(blob, &error), nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(ShardDriverCheckpoint, GeneratorFleetRestoresWithOneSharedForm) {
  // A whole fleet of generator-backed tenants checkpoints metadata-only
  // journals and restores against ONE closed form passed to
  // ShardDriver::restore — the multi-tenant shape bench_e21 soaks at scale.
  constexpr std::size_t kShards = 3;
  workload::ClosedFormConfig config;
  config.num_jobs = 150;
  config.num_machines = 4;
  config.seed = base_seed() + 70;
  config.load = 1.25;
  const Instance instance =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const auto generator = workload::make_closed_form_generator(config);

  service::ShardDriverOptions options;
  options.threads = 2;
  options.session.storage = StorageBackend::kGenerator;
  options.session.generator = generator;
  service::ShardDriver original(api::Algorithm::kTheorem1, kShards, 4,
                                options);
  const auto feed_driver = [&](service::ShardDriver& driver, std::size_t from,
                               std::size_t to) {
    StreamJob job;
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t k = from; k < to; ++k) {
        fill_stream_job_meta(instance.job(static_cast<JobId>(k)), 0.0, &job);
        driver.submit(s, job);
      }
    }
    driver.pump();
  };
  feed_driver(original, 0, 75);
  const std::string blob = original.checkpoint();

  std::string error;
  EXPECT_EQ(service::ShardDriver::restore(blob, 1, &error), nullptr)
      << "a generator fleet must not restore without its closed form";
  EXPECT_NE(error.find("generator-backed session"), std::string::npos)
      << error;

  auto restored = service::ShardDriver::restore(blob, 2, &error, generator);
  ASSERT_NE(restored, nullptr) << error;
  feed_driver(original, 75, config.num_jobs);
  feed_driver(*restored, 75, config.num_jobs);
  const auto a = original.drain_all();
  const auto b = restored->drain_all();
  ASSERT_EQ(a.size(), kShards);
  ASSERT_EQ(b.size(), kShards);

  service::SessionOptions solo_options;
  solo_options.storage = StorageBackend::kGenerator;
  solo_options.generator = generator;
  service::SchedulerSession solo(api::Algorithm::kTheorem1, 4, solo_options);
  feed_backend(solo, instance, 0, instance.num_jobs(), true);
  const api::RunSummary reference = solo.drain();
  for (std::size_t s = 0; s < kShards; ++s) {
    expect_identical(reference, a[s], "original shard " + std::to_string(s));
    expect_identical(reference, b[s], "restored shard " + std::to_string(s));
  }
}

}  // namespace
}  // namespace osched

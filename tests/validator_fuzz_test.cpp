// Mutation/property fuzzing of the independent schedule validator.
//
// Until now the validator was only ever shown feasible schedules (every
// scheduler's output passes it), so a validator that silently accepted
// garbage would never be caught. This test closes that hole: it takes
// known-feasible schedules produced by real runs, applies one structured
// mutation of a known violation class, and asserts the validator reports
// THAT class (substring-matched against its message) — then fuzzes random
// mutation sequences and asserts nothing slips through clean.
//
// Every mutated schedule is also validated over the equivalent streaming
// job store (the source a retained session's drain validates from) and over
// the same jobs under the other storage backends; all of them must return
// the identical violation vector.
//
// Seed rotation: OSCHED_FUZZ_SEED (decimal env var) reseeds the whole test;
// CI derives it from the run id and logs it, so every CI run explores fresh
// mutations and any failure is reproducible locally.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "fuzz_seed.hpp"
#include "instance/stream_job.hpp"
#include "service/job_store.hpp"
#include "sim/validator.hpp"
#include "util/rng.hpp"
#include "workload/generated_family.hpp"
#include "workload/generators.hpp"

namespace osched {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("validator_fuzz_test", 7);
}

Instance restricted_workload(std::uint64_t seed, std::size_t n = 200) {
  workload::WorkloadConfig config;
  config.num_jobs = n;
  config.num_machines = 4;
  config.seed = seed;
  config.load = 1.1;
  // Restricted assignment: guarantees genuinely ineligible (i, j) pairs for
  // the move-to-ineligible-machine mutation class.
  config.machines.model = workload::MachineModel::kRestricted;
  config.machines.eligibility = 0.5;
  return workload::generate_workload(config);
}

/// A feasible (schedule, instance) pair from a real run.
struct Feasible {
  Instance instance;
  Schedule schedule;
};

Feasible feasible_run(std::uint64_t seed, api::Algorithm algorithm) {
  Feasible out{restricted_workload(seed), Schedule{}};
  out.schedule = api::run(algorithm, out.instance).schedule;
  return out;
}

/// Picks a random completed job (every run here completes most jobs).
JobId random_completed(util::Rng& rng, const Schedule& schedule) {
  for (;;) {
    const auto j =
        static_cast<JobId>(rng.index(schedule.num_jobs()));
    if (schedule.record(j).completed()) return j;
  }
}

/// Streams `instance` into a store of its own backend, as a session's
/// submits do. Small blocks, so the jobs span several of them.
std::unique_ptr<service::StreamingJobStore> store_of(const Instance& instance) {
  const bool generated = instance.backend() == StorageBackend::kGenerator;
  auto store = std::make_unique<service::StreamingJobStore>(
      instance.num_machines(), /*jobs_per_block=*/64, instance.backend(),
      generated ? instance.shared_generator() : nullptr);
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    if (generated) {
      fill_stream_job_meta(instance.job(j), 0.0, &job);
    } else {
      fill_stream_job(instance, j, 0.0, &job);
    }
    store->append(job);
  }
  return store;
}

/// The same jobs and p values as a dense instance, stored sparse-CSR.
Instance sparse_twin(const Instance& dense) {
  std::vector<std::vector<SparseEntry>> rows(dense.num_jobs());
  for (std::size_t idx = 0; idx < dense.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    for (const MachineId i : dense.eligible_machines(j)) {
      rows[idx].push_back(SparseEntry{i, dense.processing(i, j)});
    }
  }
  return Instance::from_sparse_rows(dense.jobs(), dense.num_machines(),
                                    std::move(rows));
}

/// validate_schedule over `instance`, checked against the store of the same
/// backend and, for a dense instance, against its sparse-CSR twin and that
/// twin's store: every source must report the identical violations.
std::vector<std::string> validate_everywhere(
    const Schedule& schedule, const Instance& instance,
    const ValidationOptions& options = {}) {
  const auto expected = validate_schedule(schedule, instance, options);
  EXPECT_EQ(validate_schedule(schedule, *store_of(instance), options), expected);
  if (instance.backend() == StorageBackend::kDense) {
    const Instance sparse = sparse_twin(instance);
    EXPECT_EQ(validate_schedule(schedule, sparse, options), expected);
    EXPECT_EQ(validate_schedule(schedule, *store_of(sparse), options), expected);
  }
  return expected;
}

bool any_violation_contains(const std::vector<std::string>& violations,
                            const std::string& needle) {
  for (const std::string& v : violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---- One test per mutation class: the validator must name the crime. ----

TEST(ValidatorFuzz, CleanSchedulesStayClean) {
  for (std::uint64_t s = 0; s < 3; ++s) {
    const Feasible run = feasible_run(base_seed() + s, api::Algorithm::kTheorem1);
    EXPECT_TRUE(validate_everywhere(run.schedule, run.instance).empty());
  }
}

TEST(ValidatorFuzz, OverlappingIntervalsAreReported) {
  util::Rng rng(util::derive_seed(base_seed(), 1));
  for (int trial = 0; trial < 20; ++trial) {
    Feasible run = feasible_run(base_seed() + 10, api::Algorithm::kGreedySpt);
    // Pull one completed job's whole execution window onto the start of
    // another completed job on the same machine.
    const JobId a = random_completed(rng, run.schedule);
    JobId b = kInvalidJob;
    for (std::size_t idx = 0; idx < run.schedule.num_jobs(); ++idx) {
      const auto j = static_cast<JobId>(idx);
      if (j != a && run.schedule.record(j).completed() &&
          run.schedule.record(j).machine == run.schedule.record(a).machine) {
        b = j;
        break;
      }
    }
    if (b == kInvalidJob) continue;
    JobRecord& rec = run.schedule.record(b);
    const Time duration = rec.end - rec.start;
    rec.start = run.schedule.record(a).start;  // same machine, same moment
    rec.end = rec.start + duration;
    if (rec.start < run.instance.job(b).release) continue;  // keep one class
    const auto violations = validate_everywhere(run.schedule, run.instance);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(any_violation_contains(violations, "overlap"))
        << violations.front();
  }
}

TEST(ValidatorFuzz, StartBeforeReleaseIsReported) {
  util::Rng rng(util::derive_seed(base_seed(), 2));
  for (int trial = 0; trial < 20; ++trial) {
    Feasible run = feasible_run(base_seed() + 20, api::Algorithm::kTheorem1);
    const JobId j = random_completed(rng, run.schedule);
    const Job& job = run.instance.job(j);
    if (job.release <= 0.0) continue;
    JobRecord& rec = run.schedule.record(j);
    const Time duration = rec.end - rec.start;
    rec.start = job.release - rng.uniform(0.5, 2.0) - 1e-3;
    rec.end = rec.start + duration;  // duration intact: isolate the class
    const auto violations = validate_everywhere(run.schedule, run.instance);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(any_violation_contains(violations, "before release"))
        << violations.front();
  }
}

TEST(ValidatorFuzz, IneligibleMachineIsReported) {
  util::Rng rng(util::derive_seed(base_seed(), 3));
  int mutated = 0;
  for (int trial = 0; trial < 40 && mutated < 10; ++trial) {
    Feasible run = feasible_run(base_seed() + 30, api::Algorithm::kFifo);
    const JobId j = random_completed(rng, run.schedule);
    MachineId target = kInvalidMachine;
    for (std::size_t i = 0; i < run.instance.num_machines(); ++i) {
      if (!run.instance.eligible(static_cast<MachineId>(i), j)) {
        target = static_cast<MachineId>(i);
        break;
      }
    }
    if (target == kInvalidMachine) continue;  // fully eligible job
    ++mutated;
    run.schedule.record(j).machine = target;
    const auto violations = validate_everywhere(run.schedule, run.instance);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(any_violation_contains(violations, "ineligible machine"))
        << violations.front();
  }
  EXPECT_GT(mutated, 0) << "restricted workload produced no ineligible pair";
}

TEST(ValidatorFuzz, DroppedDecisionIsReported) {
  util::Rng rng(util::derive_seed(base_seed(), 4));
  for (int trial = 0; trial < 20; ++trial) {
    Feasible run = feasible_run(base_seed() + 40, api::Algorithm::kTheorem1);
    const auto j = static_cast<JobId>(rng.index(run.schedule.num_jobs()));
    run.schedule.record(j) = JobRecord{};  // as if the scheduler lost it
    const auto violations = validate_everywhere(run.schedule, run.instance);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(any_violation_contains(violations, "undecided"))
        << violations.front();
    // The drop is only a violation because the run claims to be complete:
    ValidationOptions mid_run;
    mid_run.require_all_decided = false;
    EXPECT_TRUE(validate_everywhere(run.schedule, run.instance, mid_run).empty());
  }
}

TEST(ValidatorFuzz, DeadlineViolationIsReported) {
  // Deadline workload, checked under the deadline-enforcing options.
  workload::WorkloadConfig config;
  config.num_jobs = 120;
  config.num_machines = 3;
  config.seed = base_seed() + 50;
  config.load = 0.7;
  config.with_deadlines = true;
  const Instance instance = workload::generate_workload(config);
  const Schedule original = api::run(api::Algorithm::kGreedySpt, instance).schedule;

  ValidationOptions options;
  options.require_deadlines = true;
  util::Rng rng(util::derive_seed(base_seed(), 5));
  int mutated = 0;
  for (int trial = 0; trial < 40 && mutated < 10; ++trial) {
    Schedule schedule = original;
    const JobId j = random_completed(rng, schedule);
    const Job& job = instance.job(j);
    if (!job.has_deadline()) continue;
    JobRecord& rec = schedule.record(j);
    const Time duration = rec.end - rec.start;
    // Slide the whole execution past the deadline; duration stays exact so
    // only the deadline class (plus possible overlap) can fire.
    rec.start = job.deadline + rng.uniform(0.0, 3.0);
    rec.end = rec.start + duration;
    ++mutated;
    const auto violations = validate_everywhere(schedule, instance, options);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(any_violation_contains(violations, "misses deadline"))
        << violations.front();
  }
  EXPECT_GT(mutated, 0);
}

TEST(ValidatorFuzz, DurationMismatchIsReported) {
  util::Rng rng(util::derive_seed(base_seed(), 6));
  for (int trial = 0; trial < 20; ++trial) {
    Feasible run = feasible_run(base_seed() + 60, api::Algorithm::kTheorem1);
    const JobId j = random_completed(rng, run.schedule);
    JobRecord& rec = run.schedule.record(j);
    rec.end += rng.uniform(0.5, 3.0);  // claims to have run too long
    const auto violations = validate_everywhere(run.schedule, run.instance);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(any_violation_contains(violations, "duration mismatch"))
        << violations.front();
  }
}

// ---- Random mutation fuzzing: whatever we break, the validator notices. --

TEST(ValidatorFuzz, RandomMutationsNeverPassClean) {
  util::Rng rng(util::derive_seed(base_seed(), 99));
  const Feasible original =
      feasible_run(base_seed() + 70, api::Algorithm::kTheorem1);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Schedule schedule = original.schedule;
    const JobId j = random_completed(rng, schedule);
    JobRecord& rec = schedule.record(j);
    bool expect_catch = true;
    switch (rng.index(5)) {
      case 0:  // shift start earlier, end fixed: duration inflates
        rec.start -= rng.uniform(0.1, 5.0);
        break;
      case 1:  // truncate the execution: duration deficit
        rec.end -= (rec.end - rec.start) * rng.uniform(0.2, 0.9);
        break;
      case 2:  // completed job that never started
        rec.started = false;
        break;
      case 3:  // negative/garbage machine index
        rec.machine = static_cast<MachineId>(
            static_cast<std::int64_t>(original.instance.num_machines()) +
            static_cast<std::int64_t>(rng.index(3)));
        break;
      case 4:  // impossible speed
        rec.speed = 0.0;
        break;
      default:
        expect_catch = false;
        break;
    }
    if (!expect_catch) continue;
    ++checked;
    const auto violations = validate_everywhere(schedule, original.instance);
    EXPECT_FALSE(violations.empty())
        << "mutation of job " << j << " passed the validator clean (trial "
        << trial << ")";
  }
  EXPECT_GT(checked, 150);
}

// ---- Store vs Instance on every backend, stacked random mutations. ----

TEST(ValidatorFuzz, StoresAndBackendsReportIdenticalViolations) {
  // A fully eligible closed-form family, so the generator backend can hold
  // it too. All three instances carry the same jobs and p values bit for
  // bit; validate_everywhere adds each one's store (and the dense one's
  // sparse twin).
  workload::ClosedFormConfig config;
  config.num_jobs = 300;
  config.num_machines = 6;
  config.seed = base_seed() + 80;
  config.load = 1.3;
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);
  const Instance generated =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Schedule original = api::run(api::Algorithm::kTheorem1, dense).schedule;

  util::Rng rng(util::derive_seed(base_seed(), 100));
  int caught = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Schedule schedule = original;
    const std::size_t mutations = 1 + rng.index(3);
    for (std::size_t k = 0; k < mutations; ++k) {
      const JobId j = random_completed(rng, schedule);
      JobRecord& rec = schedule.record(j);
      switch (rng.index(8)) {
        case 0:  // earlier start: duration, release and overlap classes
          rec.start -= rng.uniform(0.1, 5.0);
          break;
        case 1:  // truncated execution
          rec.end -= (rec.end - rec.start) * rng.uniform(0.2, 0.9);
          break;
        case 2:
          rec.started = false;
          break;
        case 3:
          rec.machine = static_cast<MachineId>(config.num_machines +
                                               rng.index(3));
          break;
        case 4:
          rec.speed = 0.0;
          break;
        case 5:  // lost decision
          rec = JobRecord{};
          break;
        case 6: {  // moved onto another job's machine and start
          const JobRecord& other = schedule.record(random_completed(rng, schedule));
          const Time duration = rec.end - rec.start;
          rec.machine = other.machine;
          rec.start = other.start;
          rec.end = rec.start + duration;
          break;
        }
        default:  // interrupted at a time that disagrees with its end
          rec.fate = JobFate::kRejectedRunning;
          rec.rejection_time = rec.end + rng.uniform(0.5, 2.0);
          break;
      }
    }
    const auto expected = validate_everywhere(schedule, dense);
    EXPECT_EQ(validate_everywhere(schedule, sparse), expected);
    EXPECT_EQ(validate_everywhere(schedule, generated), expected);
    caught += expected.empty() ? 0 : 1;
  }
  EXPECT_GT(caught, 50);
}

}  // namespace
}  // namespace osched

// Differential wall for the pluggable processing-time storage.
//
// The contract under test: an Instance's storage backend (dense flat
// matrix, sparse CSR over the eligibility adjacency, closed-form generator)
// is INVISIBLE to scheduling — every policy makes bit-identical decisions
// (same schedule under a zero-tolerance diff, same counters, same
// certificates, double for double) over all backends of the same workload,
// for every family, eligibility density, machine count and seed. Plus the
// CSR edge cases (single-eligible-machine jobs, the uint16 order table's
// ceiling at m = 65535/65536/65537), the façade accessor equivalences the
// checkers/metrics rely on, the row-tile lifetime contract, and the
// generated family's materialize-vs-synthesize bit equality. The acceptance
// wall at the end pins one verdict per submitted job across Instance and
// the streaming store.
//
// The rotating OSCHED_FUZZ_SEED hook lets CI explore fresh instances every
// run, reproducibly. `ctest -L backend-matrix` selects this wall.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/scheduler_api.hpp"
#include "baselines/list_scheduler.hpp"
#include "core/flow/rejection_flow.hpp"
#include "duality/flow_dual_check.hpp"
#include "float_lower_reference.hpp"
#include "fuzz_seed.hpp"
#include "instance/builders.hpp"
#include "instance/stream_job.hpp"
#include "service/job_store.hpp"
#include "sim/schedule_io.hpp"
#include "workload/generated_family.hpp"
#include "workload/generators.hpp"

namespace osched {
namespace {

using testing::lower_reference;

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("storage_backend_test", 1811);
}

Instance make_workload(double eligibility, std::uint64_t seed, std::size_t n,
                       std::size_t m) {
  workload::WorkloadConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.2;
  config.sizes.dist = workload::SizeDistribution::kPareto;
  if (eligibility < 1.0) {
    config.machines.model = workload::MachineModel::kRestricted;
    config.machines.eligibility = eligibility;
  }
  return workload::generate_workload(config);
}

void expect_same_schedule(const Schedule& a, const Schedule& b,
                          const std::string& context) {
  ScheduleDiffOptions strict;
  strict.time_tolerance = 0.0;  // byte-identical, not tolerance-equal
  const auto diffs = diff_schedules(a, b, strict);
  ASSERT_TRUE(diffs.empty()) << context << ": " << diffs.size()
                             << " schedule diffs; first: " << diffs.front();
}

void expect_same_summary(const api::RunSummary& a, const api::RunSummary& b,
                         const std::string& context) {
  expect_same_schedule(a.schedule, b.schedule, context);
  EXPECT_EQ(a.report.num_completed, b.report.num_completed) << context;
  EXPECT_EQ(a.report.num_rejected, b.report.num_rejected) << context;
  EXPECT_EQ(a.report.total_flow, b.report.total_flow) << context;
  EXPECT_EQ(a.report.total_weighted_flow, b.report.total_weighted_flow)
      << context;
  EXPECT_EQ(a.report.makespan, b.report.makespan) << context;
  EXPECT_EQ(a.certified_lower_bound, b.certified_lower_bound) << context;
  EXPECT_EQ(a.rule1_rejections, b.rule1_rejections) << context;
  EXPECT_EQ(a.rule2_rejections, b.rule2_rejections) << context;
}

// Every streamable-or-batch policy that reads the store on its hot path.
const api::Algorithm kAlgorithms[] = {
    api::Algorithm::kTheorem1,  api::Algorithm::kTheorem2,
    api::Algorithm::kWeightedExt, api::Algorithm::kGreedySpt,
    api::Algorithm::kFifo,      api::Algorithm::kImmediateReject,
};

// ------------------------------------------------------ dense == sparse

TEST(StorageBackend, SparseMatchesDenseAcrossPoliciesDensitiesSeeds) {
  const double densities[] = {1.0, 0.5, 0.1};
  for (double density : densities) {
    for (std::uint64_t round = 0; round < 2; ++round) {
      const std::uint64_t seed = base_seed() + 101 * round;
      const Instance dense = make_workload(density, seed, 500, 16);
      const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
      ASSERT_EQ(sparse.backend(), StorageBackend::kSparseCsr);
      // CSR pays an id beside every value; a dense row pays all m values
      // but no ids once every machine is eligible.
      if (density < 1.0) {
        ASSERT_LT(sparse.store_bytes(), dense.store_bytes());
      } else {
        ASSERT_LT(dense.store_bytes(), sparse.store_bytes());
      }
      for (api::Algorithm algorithm : kAlgorithms) {
        const std::string context = std::string(api::to_string(algorithm)) +
                                    " density=" + std::to_string(density) +
                                    " seed=" + std::to_string(seed);
        const api::RunSummary a = api::run(algorithm, dense);
        const api::RunSummary b = api::run(algorithm, sparse);
        expect_same_summary(a, b, context);
      }
    }
  }
}

TEST(StorageBackend, SparseRoundTripsBackToDense) {
  const Instance dense = make_workload(0.3, base_seed() + 7, 200, 9);
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  const Instance back = sparse.with_backend(StorageBackend::kDense);
  ASSERT_EQ(back.num_jobs(), dense.num_jobs());
  for (std::size_t j = 0; j < dense.num_jobs(); ++j) {
    for (std::size_t i = 0; i < dense.num_machines(); ++i) {
      EXPECT_EQ(back.processing(static_cast<MachineId>(i),
                                static_cast<JobId>(j)),
                dense.processing(static_cast<MachineId>(i),
                                 static_cast<JobId>(j)))
          << "entry (" << i << ", " << j << ")";
    }
  }
}

// --------------------------------------------- generator == dense == sparse

TEST(StorageBackend, GeneratorMatchesMaterializedBackends) {
  workload::ClosedFormConfig config;
  config.num_jobs = 400;
  config.num_machines = 24;
  config.seed = base_seed() + 31;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);

  // The closed form materializes to the same doubles it synthesizes.
  for (std::size_t j = 0; j < config.num_jobs; j += 17) {
    for (std::size_t i = 0; i < config.num_machines; ++i) {
      const auto machine = static_cast<MachineId>(i);
      const auto job = static_cast<JobId>(j);
      EXPECT_EQ(gen.processing(machine, job), dense.processing(machine, job));
      EXPECT_EQ(gen.processing(machine, job), sparse.processing(machine, job));
    }
  }

  for (api::Algorithm algorithm : kAlgorithms) {
    const std::string context = std::string(api::to_string(algorithm));
    const api::RunSummary d = api::run(algorithm, dense);
    expect_same_summary(api::run(algorithm, gen), d, context + " gen-vs-dense");
    expect_same_summary(api::run(algorithm, sparse), d,
                        context + " sparse-vs-dense");
  }
}

TEST(StorageBackend, GeneratorBatchStoreServesRowsAndBounds) {
  workload::ClosedFormConfig config;
  config.num_jobs = 64;
  config.num_machines = 11;
  config.seed = base_seed() + 97;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const service::StreamingJobStore store(gen.store());
  for (std::size_t j = 0; j < config.num_jobs; ++j) {
    const auto job = static_cast<JobId>(j);
    EXPECT_EQ(store.p_order_row(job).data(), nullptr);
    const Work* row = store.processing_row(job);
    ASSERT_EQ(store.eligible_machines(job).size(), config.num_machines);
    for (std::size_t i = 0; i < config.num_machines; ++i) {
      const Work want =
          workload::closed_form_entry(config, job, static_cast<MachineId>(i));
      EXPECT_EQ(row[i], want);
      // The bound the dispatch sweep reads: the row entry rounded down.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(float_lower(row[i])),
                std::bit_cast<std::uint32_t>(lower_reference(want)));
    }
  }
}

// ---------------------------------------------- the row-tile lifetime

/// The contract the dispatch relies on: a held processing_row(j) keeps
/// reading row j while rows j+1..j+3 are fetched and other ids are
/// point-probed. The probes reach past the four tile slots: point lookups
/// never touch a tile. `reference` is the dense materialization: ineligible
/// machines must read +infinity, which the sweep rounds to FLT_MAX, bit for
/// bit. Returns how many held entries were ineligible.
std::size_t expect_held_rows_survive(const service::StreamingJobStore& store,
                                     const Instance& reference,
                                     const std::string& context) {
  constexpr std::size_t probe_radius = 9;
  const std::size_t n = reference.num_jobs();
  const std::size_t m = reference.num_machines();
  std::size_t ineligible = 0;
  for (std::size_t j = 0; j + 3 < n; ++j) {
    const auto job = static_cast<JobId>(j);
    const Work* held_p = store.processing_row(job);
    for (std::size_t k = 1; k <= 3; ++k) {
      store.processing_row(static_cast<JobId>(j + k));
    }
    const std::size_t lo = j >= probe_radius ? j - probe_radius : 0;
    const std::size_t hi = std::min(n, j + probe_radius + 1);
    for (std::size_t other = lo; other < hi; ++other) {
      if (other == j) continue;
      const auto probe = static_cast<JobId>(other);
      for (std::size_t i = 0; i < m; ++i) {
        store.processing_unchecked(static_cast<MachineId>(i), probe);
      }
      store.min_processing(probe);
    }
    for (std::size_t i = 0; i < m; ++i) {
      const Work want = reference.processing(static_cast<MachineId>(i), job);
      if (!(want < kTimeInfinity)) {
        ++ineligible;
        EXPECT_EQ(float_lower(held_p[i]), std::numeric_limits<float>::max())
            << context << " job " << j << " machine " << i;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(held_p[i]),
                std::bit_cast<std::uint64_t>(want))
          << context << " job " << j << " machine " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(float_lower(held_p[i])),
                std::bit_cast<std::uint32_t>(lower_reference(want)))
          << context << " job " << j << " machine " << i;
    }
  }
  return ineligible;
}

TEST(StorageBackend, HeldTileRowsSurviveNeighbourFillsAndProbes) {
  // Restricted family for the CSR users (about 3/4 of the machines
  // ineligible), fully eligible for the generator users. Small blocks put
  // the streamed stores' rows across several blocks; the Instances' stores
  // hold one.
  workload::ClosedFormConfig config;
  config.num_jobs = 40;
  config.num_machines = 32;
  config.seed = base_seed() + 211;
  config.eligibility = 0.25;
  const Instance restricted_dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance restricted_sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);
  config.eligibility = 1.0;
  const Instance full_dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance full_gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);

  EXPECT_GT(expect_held_rows_survive(
                service::StreamingJobStore(restricted_sparse.store()),
                restricted_dense, "batch sparse store"),
            0u);
  expect_held_rows_survive(service::StreamingJobStore(full_gen.store()),
                           full_dense, "batch generator store");

  service::StreamingJobStore sparse_store(config.num_machines, 8,
                                          StorageBackend::kSparseCsr);
  service::StreamingJobStore gen_store(config.num_machines, 8,
                                       StorageBackend::kGenerator,
                                       full_gen.shared_generator());
  StreamJob job;
  for (std::size_t j = 0; j < config.num_jobs; ++j) {
    fill_stream_job(restricted_sparse, static_cast<JobId>(j), 0.0, &job);
    sparse_store.append(job);
    fill_stream_job_meta(full_gen.job(static_cast<JobId>(j)), 0.0, &job);
    gen_store.append(job);
  }
  EXPECT_GT(expect_held_rows_survive(sparse_store, restricted_dense,
                                     "sparse streaming store"),
            0u);
  expect_held_rows_survive(gen_store, full_dense, "generator streaming store");
}

// ------------------------------------------------- the dual-check template

TEST(StorageBackend, FlowDualCheckerAgreesAcrossBackends) {
  // Restricted family: the checker must produce the SAME report from every
  // backend (the feasibility VERDICT on restricted instances is the
  // algorithm's business, not storage's — see the full-eligibility case
  // below for the Lemma 4 assertion).
  const Instance dense = make_workload(0.4, base_seed() + 5, 300, 8);
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  const RejectionFlowOptions options{.epsilon = 0.25};
  const RejectionFlowResult result = run_rejection_flow(dense, options);
  const RejectionFlowResult sparse_result = run_rejection_flow(sparse, options);

  const DualCheckReport a = check_flow_dual_feasibility(dense, result, 0.25);
  const DualCheckReport b =
      check_flow_dual_feasibility(sparse, sparse_result, 0.25);
  EXPECT_EQ(a.max_violation, b.max_violation);
  EXPECT_EQ(a.constraints_checked, b.constraints_checked);

  // The batch store satisfies the checker's Store contract directly.
  const service::StreamingJobStore store(sparse.store());
  const DualCheckReport c =
      check_flow_dual_feasibility(store, sparse_result, 0.25);
  EXPECT_EQ(a.max_violation, c.max_violation);

  // Full eligibility: Lemma 4 feasibility holds and every backend of the
  // closed-form family reports it identically.
  workload::ClosedFormConfig config;
  config.num_jobs = 300;
  config.num_machines = 8;
  config.seed = base_seed() + 23;
  const Instance gd =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance gg =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const RejectionFlowResult rd = run_rejection_flow(gd, options);
  const RejectionFlowResult rg = run_rejection_flow(gg, options);
  const DualCheckReport fd = check_flow_dual_feasibility(gd, rd, 0.25);
  const DualCheckReport fg = check_flow_dual_feasibility(gg, rg, 0.25);
  EXPECT_TRUE(fd.feasible()) << fd.max_violation;
  EXPECT_EQ(fd.max_violation, fg.max_violation);
  EXPECT_EQ(fd.constraints_checked, fg.constraints_checked);
}

// ------------------------------------------------------------- edge cases

TEST(StorageBackend, SingleEligibleMachineJobs) {
  // Every job can run on exactly one machine: CSR rows of length 1, the
  // dispatch has no choice, and both backends must agree anyway.
  std::vector<Job> jobs;
  std::vector<std::vector<SparseEntry>> rows;
  for (std::size_t j = 0; j < 40; ++j) {
    Job job;
    job.id = static_cast<JobId>(j);
    job.release = 0.25 * static_cast<double>(j);
    job.weight = 1.0;
    jobs.push_back(job);
    rows.push_back({SparseEntry{static_cast<MachineId>(j % 5),
                                1.0 + 0.125 * static_cast<double>(j % 7)}});
  }
  const Instance sparse = Instance::from_sparse_rows(jobs, 5, rows);
  ASSERT_TRUE(sparse.validate().empty()) << sparse.validate();
  for (std::size_t j = 0; j < 40; ++j) {
    EXPECT_EQ(sparse.eligible_machines(static_cast<JobId>(j)).size(), 1u);
  }
  const Instance dense = sparse.with_backend(StorageBackend::kDense);
  const api::RunSummary a = api::run(api::Algorithm::kTheorem1, sparse);
  const api::RunSummary b = api::run(api::Algorithm::kTheorem1, dense);
  expect_same_summary(a, b, "single-eligible");
}

TEST(StorageBackend, OrderWidthBoundaryAcrossMatrixBackends) {
  // m = 65535 is the last machine count with uint16 order-table ids; at
  // 65536/65537 neither matrix backend builds a table. Every cell must make
  // the same call in BOTH matrix backends and agree with dense bit for bit.
  for (const std::size_t m :
       {std::size_t{65535}, std::size_t{65536}, std::size_t{65537}}) {
    std::vector<Job> jobs;
    std::vector<std::vector<SparseEntry>> rows;
    for (std::size_t j = 0; j < 6; ++j) {
      Job job;
      job.id = static_cast<JobId>(j);
      job.release = static_cast<double>(j);
      job.weight = 1.0;
      jobs.push_back(job);
      // A handful of eligible machines spread across the id range,
      // including the very last machine (the id that overflows uint16
      // once m > 65536).
      std::vector<SparseEntry> row;
      row.push_back(SparseEntry{static_cast<MachineId>(j), 2.0});
      row.push_back(SparseEntry{static_cast<MachineId>(30000 + 7 * j), 1.5});
      row.push_back(SparseEntry{static_cast<MachineId>(m - 1), 3.0});
      rows.push_back(std::move(row));
    }
    const Instance sparse =
        Instance::from_sparse_rows(jobs, m, std::move(rows));
    ASSERT_TRUE(sparse.validate().empty()) << sparse.validate();
    const int expect_width = m < 65536 ? 16 : 0;
    const Instance dense = sparse.with_backend(StorageBackend::kDense);
    for (const Instance* instance : {&sparse, &dense}) {
      EXPECT_EQ(instance->dispatch_order_width(), expect_width) << "m=" << m;
    }
    // Where the table exists it is equal across backends: the CSR-shaped
    // tables must rank the same machines identically.
    for (std::size_t j = 0; j < 6; ++j) {
      const auto job = static_cast<JobId>(j);
      const auto oa = dense.p_order_row(job);
      const auto ob = sparse.p_order_row(job);
      if (expect_width == 0) {
        EXPECT_TRUE(oa.data() == nullptr && ob.data() == nullptr)
            << "m=" << m;
        continue;
      }
      ASSERT_TRUE(oa.data() != nullptr && ob.data() != nullptr) << "m=" << m;
      EXPECT_EQ(oa.size(), sparse.eligible_machines(job).size()) << "m=" << m;
      EXPECT_TRUE(std::ranges::equal(oa, ob)) << "m=" << m;
    }
    expect_same_summary(api::run(api::Algorithm::kTheorem1, sparse),
                        api::run(api::Algorithm::kTheorem1, dense),
                        "width boundary m=" + std::to_string(m));
    // And indexed dispatch (with or without the table) stays bit-identical
    // to the exhaustive linear scan, the mode with no order table at all.
    RejectionFlowOptions indexed;
    indexed.epsilon = 0.5;
    RejectionFlowOptions linear = indexed;
    linear.dispatch = DispatchMode::kLinearScan;
    expect_same_schedule(run_rejection_flow(sparse, indexed).schedule,
                         run_rejection_flow(sparse, linear).schedule,
                         "vs linear m=" + std::to_string(m));
  }
}

TEST(StorageBackend, OrderWidthBoundaryGeneratorAgrees) {
  // Neither the generator backend nor a dense instance at m = 65536 builds
  // an order table — both take the order-less dispatch, through different
  // row sources, and must match decision for decision. Fully eligible closed
  // form, tiny n so the dense materialization stays a few megabytes.
  workload::ClosedFormConfig config;
  config.num_jobs = 6;
  config.num_machines = 65536;
  config.seed = base_seed() + 65;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  EXPECT_EQ(gen.dispatch_order_width(), 0);
  EXPECT_EQ(dense.dispatch_order_width(), 0);
  expect_same_summary(api::run(api::Algorithm::kTheorem1, gen),
                      api::run(api::Algorithm::kTheorem1, dense),
                      "generator at the width boundary");
}

TEST(StorageBackend, SparseValidationCatchesMalformedRows) {
  std::vector<Job> jobs(1);
  jobs[0].id = 0;
  jobs[0].release = 0.0;
  jobs[0].weight = 1.0;
  {
    // Non-positive entry.
    const Instance bad = Instance::from_sparse_rows(
        jobs, 3, {{SparseEntry{1, 0.0}}});
    EXPECT_NE(bad.validate().find("non-positive"), std::string::npos)
        << bad.validate();
  }
  {
    // Infinite entry (ineligible machines must be omitted, not listed).
    const Instance bad = Instance::from_sparse_rows(
        jobs, 3, {{SparseEntry{1, kTimeInfinity}}});
    EXPECT_NE(bad.validate().find("not finite"), std::string::npos)
        << bad.validate();
  }
  {
    // Empty row = no eligible machine.
    const Instance bad = Instance::from_sparse_rows(jobs, 3, {{}});
    EXPECT_NE(bad.validate().find("no eligible machine"), std::string::npos)
        << bad.validate();
  }
  // Malformed machine ids are diagnosed, never aborted on, and the offending
  // entry is not stored: the adjacency keeps only the well-formed entries.
  // Every read of that job, and its dense conversion (which scatters the
  // stored ids into an m-wide row), sees exactly the kept entries.
  const struct {
    std::vector<SparseEntry> row;
    const char* problem;
    std::vector<MachineId> kept;
    std::vector<Work> p;  ///< p_i0 for machines 0..2
  } malformed[] = {
      {{SparseEntry{3, 1.0}}, "out of range", {},
       {kTimeInfinity, kTimeInfinity, kTimeInfinity}},
      {{SparseEntry{0, 1.0}, SparseEntry{-1, 1.0}}, "out of range", {0},
       {1.0, kTimeInfinity, kTimeInfinity}},
      {{SparseEntry{1, 1.0}, SparseEntry{1, 2.0}}, "duplicates machine", {1},
       {kTimeInfinity, 1.0, kTimeInfinity}},
      {{SparseEntry{2, 1.0}, SparseEntry{0, 2.0}}, "out of order", {2},
       {kTimeInfinity, kTimeInfinity, 1.0}},
  };
  for (const auto& c : malformed) {
    const Instance bad = Instance::from_sparse_rows(jobs, 3, {c.row});
    EXPECT_NE(bad.validate().find(c.problem), std::string::npos)
        << bad.validate();
    const Instance bad_dense = bad.with_backend(StorageBackend::kDense);
    for (const Instance* instance : {&bad, &bad_dense}) {
      const std::string context =
          std::string(c.problem) + " " + to_string(instance->backend());
      const EligibleMachines kept = instance->eligible_machines(0);
      EXPECT_EQ(std::vector<MachineId>(kept.begin(), kept.end()), c.kept)
          << context;
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(instance->processing(static_cast<MachineId>(i), 0), c.p[i])
            << context << " machine " << i;
      }
    }
  }
  {
    // A generator instance is indexed by final job id, so unsorted releases
    // are a diagnostic too.
    std::vector<Job> unsorted(2, jobs[0]);
    unsorted[0].release = 2.0;
    unsorted[1].release = 1.0;
    workload::ClosedFormConfig config;
    config.num_jobs = 2;
    config.num_machines = 3;
    const Instance bad = Instance::from_generator(
        unsorted, 3, workload::make_closed_form_generator(config));
    EXPECT_NE(bad.validate().find("out of order"), std::string::npos)
        << bad.validate();
  }
}

TEST(StorageBackend, FacadeAccessorsAgree) {
  const Instance dense = make_workload(0.3, base_seed() + 13, 120, 7);
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  EXPECT_EQ(dense.processing_spread(), sparse.processing_spread());
  EXPECT_EQ(dense.total_weight(), sparse.total_weight());
  // A batch store (a copy of the Instance's store) serves dense rows and
  // both order tables from the memory the Instance's store owns, never
  // through the row tiles.
  const service::StreamingJobStore dense_store(dense.store());
  const service::StreamingJobStore sparse_store(sparse.store());
  for (std::size_t j = 0; j < dense.num_jobs(); ++j) {
    const auto job = static_cast<JobId>(j);
    EXPECT_EQ(dense.min_processing(job), sparse.min_processing(job));
    const auto a = dense.eligible_machines(job);
    const auto b = sparse.eligible_machines(job);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a.first[k], b.first[k]);
    }
    // The order prefixes rank the same machines in both backends.
    const auto oa = dense.p_order_row(job);
    const auto ob = sparse.p_order_row(job);
    ASSERT_TRUE(oa.data() != nullptr && ob.data() != nullptr);
    EXPECT_EQ(oa.size(),
              std::min(a.size(), service::StreamingJobStore::kPOrderPrefix));
    EXPECT_TRUE(std::ranges::equal(oa, ob));
    for (const auto& [store, want] :
         {std::pair{&dense.store(), oa}, std::pair{&sparse.store(), ob},
          std::pair{&dense_store, oa}, std::pair{&sparse_store, ob}}) {
      EXPECT_EQ(store->p_order_row(job).data(), want.data());
      EXPECT_EQ(store->p_order_row(job).size(), want.size());
    }
    EXPECT_EQ(dense.store().processing_row(job), dense.processing_row(job));
    EXPECT_EQ(dense_store.processing_row(job), dense.processing_row(job));
    for (std::size_t i = 0; i < dense.num_machines(); ++i) {
      EXPECT_EQ(dense.processing(static_cast<MachineId>(i), job),
                sparse.processing(static_cast<MachineId>(i), job));
    }
  }
}

// The order prefix is the first min(count, K) entries of a full sort of
// each job's eligible machines on (p bit pattern, id), on both backends
// that build one: rows shorter than, equal to and longer than K, and runs
// of bit-equal p that straddle position K, where only the id decides which
// tied machines make the cut.
TEST(StorageBackend, OrderPrefixIsTheCheapestK) {
  constexpr std::size_t kK = service::StreamingJobStore::kPOrderPrefix;
  constexpr std::size_t m = 3 * kK;
  std::mt19937_64 rng(base_seed() + 211);
  const auto draw = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Eligible counts per job: below, at, around and above K, and the full
  // row (which a dense store keeps as the shared identity adjacency).
  const std::size_t counts[] = {1, 5, kK - 1, kK, kK + 1, 2 * kK, m, m, m};
  std::vector<Job> jobs;
  std::vector<std::vector<Work>> processing(m);
  for (std::size_t j = 0; j < 3 * std::size(counts); ++j) {
    const std::size_t count = counts[j % std::size(counts)];
    std::vector<std::size_t> machines(m);
    std::iota(machines.begin(), machines.end(), std::size_t{0});
    std::shuffle(machines.begin(), machines.end(), rng);
    std::vector<Work> row(m, kTimeInfinity);
    for (std::size_t k = 0; k < count; ++k) {
      // Every second job: a run of bit-equal p across positions
      // [K - 8, K + 8) of its order; the rest draw from a few values so
      // smaller ties land everywhere. One full row per round is a single
      // value, so only the ids decide its whole prefix.
      const bool straddle = j % 2 == 0 && k >= kK - 8 && k < kK + 8;
      const bool flat = j % std::size(counts) == 7;
      row[machines[k]] =
          straddle || flat
              ? 4.0
              : (k < kK - 8 ? 1.0 + 0.25 * static_cast<double>(draw(8))
                            : 8.0 + static_cast<double>(draw(4)));
    }
    for (std::size_t i = 0; i < m; ++i) processing[i].push_back(row[i]);
    Job job;
    job.id = static_cast<JobId>(j);
    job.release = static_cast<Time>(j);
    jobs.push_back(job);
  }
  const Instance dense(std::move(jobs), std::move(processing));
  ASSERT_EQ(dense.validate(), "");
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  for (const Instance* instance : {&dense, &sparse}) {
    const std::string context = to_string(instance->backend());
    const service::StreamingJobStore store(instance->store());
    for (std::size_t j = 0; j < instance->num_jobs(); ++j) {
      const auto job = static_cast<JobId>(j);
      std::vector<std::pair<std::uint64_t, std::uint16_t>> keys;
      for (const MachineId i : instance->eligible_machines(job)) {
        keys.emplace_back(
            std::bit_cast<std::uint64_t>(instance->processing(i, job)),
            static_cast<std::uint16_t>(i));
      }
      ASSERT_EQ(keys.size(), counts[j % std::size(counts)]) << context;
      std::sort(keys.begin(), keys.end());
      std::vector<std::uint16_t> want;
      for (std::size_t k = 0; k < std::min(keys.size(), kK); ++k) {
        want.push_back(keys[k].second);
      }
      const auto got = store.p_order_row(job);
      EXPECT_EQ(std::vector<std::uint16_t>(got.begin(), got.end()), want)
          << context << " job " << j;
      EXPECT_EQ(got.data(), instance->p_order_row(job).data())
          << context << " job " << j;
    }
    // The façade checks the id; the store's hot-path accessor does not.
    const auto past_end = static_cast<JobId>(instance->num_jobs());
    EXPECT_DEATH(instance->p_order_row(past_end), "");
  }
}

TEST(StorageBackend, BatchStoreMatchesTheInstanceFacade) {
  // A batch store is a copy of its Instance's store: every accessor returns
  // the façade's value, and the job records, explicit adjacency, dense rows
  // and order tables are the memory the Instance's store owns, not copies.
  workload::ClosedFormConfig config;
  config.num_jobs = 90;
  config.num_machines = 13;
  config.seed = base_seed() + 307;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance dense = make_workload(0.4, base_seed() + 309, 90, 13);
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  for (const Instance* instance : {&dense, &sparse, &gen}) {
    const std::string context = to_string(instance->backend());
    const service::StreamingJobStore& owner = instance->store();
    const service::StreamingJobStore store(owner);
    ASSERT_EQ(store.num_jobs(), instance->num_jobs()) << context;
    ASSERT_EQ(store.num_machines(), instance->num_machines()) << context;
    EXPECT_EQ(store.backend(), instance->backend()) << context;
    EXPECT_EQ(store.matrix_bytes(), owner.matrix_bytes()) << context;
    EXPECT_EQ(store.store_bytes(), instance->store_bytes()) << context;
    for (std::size_t j = 0; j < instance->num_jobs(); ++j) {
      const auto job = static_cast<JobId>(j);
      EXPECT_EQ(&store.job(job), &instance->job(job)) << context;
      EXPECT_EQ(&owner.job(job), &instance->job(job)) << context;
      const EligibleMachines want = instance->eligible_machines(job);
      const EligibleMachines got = store.eligible_machines(job);
      EXPECT_EQ(std::vector<MachineId>(got.begin(), got.end()),
                std::vector<MachineId>(want.begin(), want.end()))
          << context << " job " << j;
      if (want.size() < instance->num_machines()) {
        // An explicit adjacency slice, not the per-store identity row.
        EXPECT_EQ(got.begin(), want.begin()) << context << " job " << j;
      }
      EXPECT_EQ(store.p_order_row(job).data(),
                instance->p_order_row(job).data())
          << context << " job " << j;
      EXPECT_EQ(store.p_order_row(job).size(),
                instance->p_order_row(job).size())
          << context << " job " << j;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(store.min_processing(job)),
                std::bit_cast<std::uint64_t>(instance->min_processing(job)))
          << context << " job " << j;
      if (instance->backend() == StorageBackend::kDense) {
        EXPECT_EQ(store.processing_row(job), instance->processing_row(job));
      }
      const Work* row = store.processing_row(job);
      for (std::size_t i = 0; i < instance->num_machines(); ++i) {
        const auto machine = static_cast<MachineId>(i);
        const Work p = instance->processing(machine, job);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(store.processing(machine, job)),
                  std::bit_cast<std::uint64_t>(p))
            << context << " job " << j << " machine " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row[i]),
                  std::bit_cast<std::uint64_t>(p))
            << context << " job " << j << " machine " << i;
        EXPECT_EQ(store.eligible(machine, job),
                  instance->eligible(machine, job))
            << context << " job " << j << " machine " << i;
      }
    }
    if (instance->backend() == StorageBackend::kSparseCsr) {
      const Work* values = store.csr_values(0);
      const EligibleMachines ids = store.eligible_machines(0);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(values[k], instance->processing(ids.first[k], 0));
      }
    }
  }
}

TEST(StorageBackend, StoreCopiesStayIndependent) {
  // An order table covers the jobs it was built over: appending after it
  // aborts.
  const Instance dense = make_workload(1.0, base_seed() + 311, 20, 4);
  StreamJob job;
  fill_stream_job(dense, 19, 0.0, &job);
  EXPECT_DEATH(
      {
        service::StreamingJobStore store(dense.store());
        store.append(job);
      },
      "append after build_p_order");

  // A generator Instance has no table, so a copy of its store may append
  // and retire: the copy clones the shared block first, and the Instance
  // keeps every job it had.
  workload::ClosedFormConfig config;
  config.num_jobs = 20;
  config.num_machines = 4;
  config.seed = base_seed() + 313;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const std::size_t bytes = gen.store_bytes();
  {
    service::StreamingJobStore copy(gen.store());
    fill_stream_job_meta(gen.job(19), 0.0, &job);
    EXPECT_EQ(copy.append(job), 20);
    EXPECT_EQ(copy.job(20).release, gen.job(19).release);
    copy.retire_below(20);
  }
  EXPECT_EQ(gen.num_jobs(), 20u);
  EXPECT_EQ(gen.jobs().size(), 20u);
  EXPECT_EQ(gen.store_bytes(), bytes);
  EXPECT_EQ(gen.job(19).id, 19);
}

TEST(StorageBackend, InstanceCopiesOwnTheirData) {
  // A copy of an Instance outlives its source: runs on the copy are bit
  // for bit the runs on an untouched twin (the sanitizer CI job turns any
  // read of freed memory here into a failure).
  workload::ClosedFormConfig config;
  config.num_jobs = 150;
  config.num_machines = 9;
  config.seed = base_seed() + 317;
  config.eligibility = 0.5;
  const auto build = [&](StorageBackend backend) {
    workload::ClosedFormConfig c = config;
    if (backend == StorageBackend::kGenerator) c.eligibility = 1.0;
    return workload::make_closed_form_instance(c, backend);
  };
  for (const StorageBackend backend :
       {StorageBackend::kDense, StorageBackend::kSparseCsr,
        StorageBackend::kGenerator}) {
    const std::string context = to_string(backend);
    auto source = std::make_unique<Instance>(build(backend));
    Instance copy = *source;
    source.reset();
    const Instance twin = build(backend);
    expect_same_summary(api::run(api::Algorithm::kTheorem1, copy),
                        api::run(api::Algorithm::kTheorem1, twin), context);
    EXPECT_EQ(copy.store_bytes(), twin.store_bytes()) << context;
  }

  // Batch stores over one Instance share its blocks but not their row
  // tiles: each serves a sparse row from its own tile slot.
  const Instance sparse = build(StorageBackend::kSparseCsr);
  const service::StreamingJobStore a(sparse.store());
  const service::StreamingJobStore b(sparse.store());
  for (std::size_t j = 0; j < 8; ++j) {
    const auto job = static_cast<JobId>(j);
    const Work* row_a = a.processing_row(job);
    const Work* row_b = b.processing_row(job);
    EXPECT_NE(row_a, row_b) << "job " << j;
    for (std::size_t i = 0; i < sparse.num_machines(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row_a[i]),
                std::bit_cast<std::uint64_t>(row_b[i]));
    }
  }
}

TEST(StorageBackend, DispatchIndexFlagTracksTheOrderTable) {
  // RunSummary::dispatch_order_width surfaces whether the (p, id) order
  // table backed a Theorem 1 run — 16 for the matrix backends (below the
  // uint16 ceiling; dispatch_index_test covers the boundary), 0 for the
  // generator backend, which never builds one. Every other algorithm
  // reports 0: none of them reads the table.
  workload::ClosedFormConfig config;
  config.num_jobs = 60;
  config.num_machines = 6;
  config.seed = base_seed() + 53;
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  EXPECT_EQ(dense.dispatch_order_width(), 16);
  EXPECT_EQ(sparse.dispatch_order_width(), 16);
  EXPECT_EQ(gen.dispatch_order_width(), 0);
  EXPECT_EQ(api::run(api::Algorithm::kTheorem1, dense).dispatch_order_width,
            16);
  EXPECT_EQ(api::run(api::Algorithm::kTheorem1, gen).dispatch_order_width,
            0);
  for (const api::Algorithm algorithm : kAlgorithms) {
    if (algorithm == api::Algorithm::kTheorem1) continue;
    EXPECT_EQ(api::run(algorithm, dense).dispatch_order_width, 0)
        << api::to_string(algorithm);
  }

  // The shared closed form is reachable for streaming handoff (and only
  // from the backend that has one).
  EXPECT_NE(gen.shared_generator(), nullptr);
  EXPECT_DEATH(dense.shared_generator(), "");
}

TEST(StorageBackend, StoreBytesCollapseForSparseFamilies) {
  workload::ClosedFormConfig config;
  config.num_jobs = 2000;
  config.num_machines = 64;
  config.eligibility = 0.0625;
  config.seed = base_seed() + 41;
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);
  EXPECT_GE(dense.store_bytes(), 4 * sparse.store_bytes())
      << "dense " << dense.store_bytes() << " vs sparse "
      << sparse.store_bytes();

  config.eligibility = 1.0;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance gen_dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  EXPECT_GE(gen_dense.store_bytes(), 4 * gen.store_bytes());
}

// ---- Acceptance wall: one verdict for a submitted job ----
//
// A job is valid or not regardless of who is asked: the batch Instance
// (dense, sparse-CSR or generator) and the streaming store must return the
// same verdict on the same fields and payload. Each input below is one job
// on m = 3 machines; a dense row goes through the dense Instance and both
// matrix stores, a sparse row through from_sparse_rows and both matrix
// stores, and the job fields alone through from_generator and the
// generator store. The store's diagnostic form must agree with its fast
// form, so validate_job(job) is empty exactly when job_ok(job) holds.

constexpr std::size_t kWallMachines = 3;

std::shared_ptr<const RowGenerator> wall_generator() {
  workload::ClosedFormConfig config;
  config.num_jobs = 4;
  config.num_machines = kWallMachines;
  return workload::make_closed_form_generator(config);
}

Job wall_job(Time release, Weight weight, Time deadline) {
  Job job;
  job.id = 0;
  job.release = release;
  job.weight = weight;
  job.deadline = deadline;
  return job;
}

StreamJob wall_stream_job(const Job& job) {
  StreamJob out;
  out.release = job.release;
  out.weight = job.weight;
  out.deadline = job.deadline;
  return out;
}

/// job_ok on a fresh store of `backend`, cross-checked against validate_job.
bool store_accepts(StorageBackend backend, const StreamJob& job) {
  const service::StreamingJobStore store(
      kWallMachines, 4096, backend,
      backend == StorageBackend::kGenerator ? wall_generator() : nullptr);
  const bool ok = store.job_ok(job);
  EXPECT_EQ(ok, store.validate_job(job).empty())
      << to_string(backend) << ": " << store.validate_job(job);
  return ok;
}

std::string describe(const Job& job) {
  std::ostringstream out;
  out << "release " << job.release << " weight " << job.weight
      << " deadline " << job.deadline;
  return out.str();
}

/// The dense row through the dense Instance and both matrix stores.
void expect_dense_agreement(const Job& job, const std::vector<Work>& row,
                            const std::string& what) {
  std::vector<std::vector<Work>> processing;
  for (const Work p : row) processing.push_back({p});
  const Instance instance({job}, processing);
  const bool batch_ok = instance.validate().empty();
  StreamJob streamed = wall_stream_job(job);
  streamed.processing = row;
  std::ostringstream context;
  context << what << " (" << describe(job) << ", dense row";
  for (const Work p : row) context << ' ' << p;
  context << "): instance says '" << instance.validate() << "'";
  EXPECT_EQ(batch_ok, store_accepts(StorageBackend::kDense, streamed))
      << context.str();
  EXPECT_EQ(batch_ok, store_accepts(StorageBackend::kSparseCsr, streamed))
      << context.str();
}

/// The sparse row through from_sparse_rows and both matrix stores.
void expect_sparse_agreement(const Job& job,
                             const std::vector<SparseEntry>& entries,
                             const std::string& what) {
  const Instance instance =
      Instance::from_sparse_rows({job}, kWallMachines, {entries});
  const bool batch_ok = instance.validate().empty();
  StreamJob streamed = wall_stream_job(job);
  streamed.entries = entries;
  std::ostringstream context;
  context << what << " (" << describe(job) << ", sparse row";
  for (const SparseEntry& e : entries) {
    context << ' ' << e.machine << ':' << e.p;
  }
  context << "): instance says '" << instance.validate() << "'";
  EXPECT_EQ(batch_ok, store_accepts(StorageBackend::kDense, streamed))
      << context.str();
  EXPECT_EQ(batch_ok, store_accepts(StorageBackend::kSparseCsr, streamed))
      << context.str();
}

/// The job fields alone through from_generator and the generator store.
void expect_metadata_agreement(const Job& job, const std::string& what) {
  const Instance instance =
      Instance::from_generator({job}, kWallMachines, wall_generator());
  EXPECT_EQ(instance.validate().empty(),
            store_accepts(StorageBackend::kGenerator, wall_stream_job(job)))
      << what << " (" << describe(job) << "): instance says '"
      << instance.validate() << "'";
}

void expect_agreement(const Job& job, const std::vector<Work>& row,
                      const std::vector<SparseEntry>& entries,
                      const std::string& what) {
  expect_dense_agreement(job, row, what);
  expect_sparse_agreement(job, entries, what);
  expect_metadata_agreement(job, what);
}

TEST(StorageBackend, InstanceAndStoreAcceptTheSameJobs) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = kTimeInfinity;
  constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  const Job good = wall_job(1.0, 1.0, kInf);

  // Processing values, in both payload forms (the sparse form lists the
  // value on machine 1 next to a finite entry on machine 0).
  const struct {
    const char* what;
    std::vector<Work> row;
    bool accepted;
  } dense_rows[] = {
      {"finite row", {1.0, 2.0, 3.0}, true},
      {"NaN p", {kNaN, 1.0, 1.0}, false},
      {"-0.0 p", {-0.0, 1.0, 1.0}, false},
      {"+0.0 p", {0.0, 1.0, 1.0}, false},
      {"negative p", {1.0, -2.0, 1.0}, false},
      {"-inf p", {1.0, -kInf, 1.0}, false},
      {"subnormal p", {kSubnormal, 1.0, 1.0}, true},
      {"DBL_MAX p", {1.0, kMax, 1.0}, true},
      {"all +inf", {kInf, kInf, kInf}, false},
      {"+inf and finite", {kInf, 2.0, kInf}, true},
      {"+inf, finite and NaN", {kInf, 2.0, kNaN}, false},
  };
  for (const auto& c : dense_rows) {
    expect_dense_agreement(good, c.row, c.what);
    const StreamJob probe = [&] {
      StreamJob job = wall_stream_job(good);
      job.processing = c.row;
      return job;
    }();
    EXPECT_EQ(store_accepts(StorageBackend::kDense, probe), c.accepted)
        << c.what;
  }
  for (const double p : {kNaN, -0.0, 0.0, -2.0, -kInf, kSubnormal, kMax,
                         kInf}) {
    expect_sparse_agreement(good, {SparseEntry{0, 1.0}, SparseEntry{1, p}},
                            "sparse p value");
    expect_sparse_agreement(good, {SparseEntry{2, p}}, "sparse single p");
  }

  // Job fields, in every payload form.
  const std::vector<Work> row = {1.0, kInf, 2.0};
  const std::vector<SparseEntry> entries = {SparseEntry{0, 1.0},
                                            SparseEntry{2, 2.0}};
  const struct {
    const char* what;
    Job job;
    bool accepted;
  } fields[] = {
      {"valid fields", good, true},
      {"release +inf", wall_job(kInf, 1.0, kInf), false},
      {"release NaN", wall_job(kNaN, 1.0, kInf), false},
      {"release -0.0", wall_job(-0.0, 1.0, kInf), true},
      {"release negative", wall_job(-1.0, 1.0, kInf), false},
      {"weight NaN", wall_job(1.0, kNaN, kInf), false},
      {"weight 0", wall_job(1.0, 0.0, kInf), false},
      {"weight +inf", wall_job(1.0, kInf, kInf), false},
      {"weight subnormal", wall_job(1.0, kSubnormal, kInf), true},
      {"deadline == release", wall_job(1.0, 1.0, 1.0), false},
      {"deadline NaN", wall_job(1.0, 1.0, kNaN), false},
      {"deadline before release", wall_job(5.0, 1.0, 4.0), false},
      {"finite deadline after release", wall_job(1.0, 1.0, 1.5), true},
  };
  for (const auto& c : fields) {
    expect_agreement(c.job, row, entries, c.what);
    EXPECT_EQ(store_accepts(StorageBackend::kGenerator,
                            wall_stream_job(c.job)),
              c.accepted)
        << c.what;
  }

  // Sparse structure.
  const struct {
    const char* what;
    std::vector<SparseEntry> entries;
  } sparse_rows[] = {
      {"empty row", {}},
      {"machine -1", {SparseEntry{-1, 1.0}}},
      {"machine m", {SparseEntry{0, 1.0}, SparseEntry{3, 1.0}}},
      {"machine far out of range", {SparseEntry{1000, 1.0}}},
      {"duplicate", {SparseEntry{1, 1.0}, SparseEntry{1, 2.0}}},
      {"descending", {SparseEntry{2, 1.0}, SparseEntry{0, 2.0}}},
      {"descending after a gap",
       {SparseEntry{0, 1.0}, SparseEntry{2, 1.0}, SparseEntry{1, 1.0}}},
      {"out of range then valid", {SparseEntry{5, 1.0}, SparseEntry{1, 1.0}}},
      {"ascending", {SparseEntry{0, 1.0}, SparseEntry{1, 1.0},
                     SparseEntry{2, 1.0}}},
  };
  for (const auto& c : sparse_rows) {
    expect_sparse_agreement(good, c.entries, c.what);
  }

  // Release order: the generator Instance and the store both demand
  // non-decreasing releases (dense and sparse Instances sort instead).
  for (const auto& [first, second] :
       std::vector<std::pair<double, double>>{
           {2.0, 1.0}, {1.0, 1.0}, {1.0, 2.0}, {0.0, -0.0}, {2.0, kNaN}}) {
    const Job a = wall_job(first, 1.0, kInf);
    Job b = wall_job(second, 1.0, kInf);
    b.id = 1;
    const Instance instance =
        Instance::from_generator({a, b}, kWallMachines, wall_generator());
    service::StreamingJobStore store(kWallMachines, 4096,
                                     StorageBackend::kGenerator,
                                     wall_generator());
    store.append(wall_stream_job(a));
    EXPECT_EQ(instance.validate().empty(), store.job_ok(wall_stream_job(b)))
        << "releases " << first << ", " << second << ": instance says '"
        << instance.validate() << "', store says '"
        << store.validate_job(wall_stream_job(b)) << "'";
    EXPECT_EQ(store.job_ok(wall_stream_job(b)),
              store.validate_job(wall_stream_job(b)).empty());
  }
}

TEST(StorageBackend, InstanceAndStoreAcceptTheSameMutatedJobs) {
  // Seeded mutations of a valid job: each round replaces one to three
  // fields, processing values or sparse machine ids with an edge value and
  // asks every owner for its verdict.
  std::mt19937_64 rng(base_seed() + 97);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             -0.0,
                             0.0,
                             -1.0,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             kTimeInfinity,
                             -kTimeInfinity,
                             0.5,
                             3.0};
  const MachineId ids[] = {-1, 0, 1, 2, 3, 7};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t accepted = 0;
  constexpr int kRounds = 600;
  for (int round = 0; round < kRounds; ++round) {
    Job job = wall_job(1.0, 1.0, kTimeInfinity);
    std::vector<Work> row = {1.0, 2.0, 3.0};
    std::vector<SparseEntry> entries = {SparseEntry{0, 1.0},
                                        SparseEntry{1, 2.0},
                                        SparseEntry{2, 3.0}};
    const std::size_t mutations = 1 + pick(3);
    for (std::size_t k = 0; k < mutations; ++k) {
      const double value = specials[pick(std::size(specials))];
      switch (pick(7)) {
        case 0: job.release = value; break;
        case 1: job.weight = value; break;
        case 2:
          job.deadline = pick(2) == 0 ? value : job.release + value;
          break;
        case 3: row[pick(row.size())] = value; break;
        case 4:
          if (!entries.empty()) entries[pick(entries.size())].p = value;
          break;
        case 5:
          if (!entries.empty()) {
            entries[pick(entries.size())].machine = ids[pick(std::size(ids))];
          }
          break;
        case 6:
          if (!entries.empty()) {
            entries.erase(entries.begin() +
                          static_cast<std::ptrdiff_t>(pick(entries.size())));
          }
          break;
      }
    }
    const std::string what = "mutation round " + std::to_string(round);
    expect_agreement(job, row, entries, what);
    StreamJob probe = wall_stream_job(job);
    probe.processing = row;
    accepted += store_accepts(StorageBackend::kDense, probe) ? 1 : 0;
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
}

}  // namespace
}  // namespace osched

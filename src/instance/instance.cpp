#include "instance/instance.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <sstream>

#include "instance/stream_job.hpp"
#include "service/job_store.hpp"

namespace osched {

const char* to_string(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kDense: return "dense";
    case StorageBackend::kSparseCsr: return "sparse-csr";
    case StorageBackend::kGenerator: return "generator";
  }
  return "?";
}

namespace {

/// The (release, id) job order every matrix backend normalizes to —
/// release order is the order the online algorithms see arrivals.
std::vector<std::size_t> release_order(const std::vector<Job>& jobs) {
  std::vector<std::size_t> perm(jobs.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    if (jobs[a].release != jobs[b].release)
      return jobs[a].release < jobs[b].release;
    return jobs[a].id < jobs[b].id;
  });
  return perm;
}

/// An Instance's store: one block over all n jobs.
std::shared_ptr<service::StreamingJobStore> instance_store(
    std::size_t num_jobs, std::size_t num_machines, StorageBackend backend,
    std::shared_ptr<const RowGenerator> generator = nullptr) {
  return std::make_shared<service::StreamingJobStore>(
      num_machines, std::bit_ceil(std::max<std::size_t>(num_jobs, 1)),
      backend, std::move(generator));
}

/// Copies the job fields into `out` bit for bit (the store numbers ids).
void set_fields(const Job& job, StreamJob* out) {
  out->release = job.release;
  out->weight = job.weight;
  out->deadline = job.deadline;
}

}  // namespace

Instance::Instance(std::vector<Job> jobs,
                   std::vector<std::vector<Work>> processing) {
  for (const auto& row : processing) {
    OSCHED_CHECK_EQ(row.size(), jobs.size())
        << "processing matrix row width must equal the number of jobs";
  }
  const std::size_t n = jobs.size();
  const std::size_t m = processing.size();
  const std::vector<std::size_t> perm = release_order(jobs);
  auto store = instance_store(n, m, StorageBackend::kDense);
  std::ostringstream problems;
  StreamJob row;
  row.processing.resize(m);
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = jobs[perm[j]];
    for (std::size_t i = 0; i < m; ++i) {
      row.processing[i] = processing[i][perm[j]];
    }
    if (!job_rules::fields_ok(job) ||
        !job_rules::dense_row_ok(row.processing, m)) {
      problems << "job " << j << ": ";
      job_rules::diagnose_fields(job.release, job.weight, job.deadline,
                                 problems);
      job_rules::diagnose_dense_row(row.processing, m, problems);
    }
    set_fields(job, &row);
    store->append_trusted(row);
  }
  adopt(std::move(store), problems.str());
}

Instance Instance::from_sparse_rows(std::vector<Job> jobs,
                                    std::size_t num_machines,
                                    std::vector<std::vector<SparseEntry>> rows) {
  OSCHED_CHECK_EQ(rows.size(), jobs.size())
      << "one sparse row per job is required";
  const std::size_t n = jobs.size();
  const std::vector<std::size_t> perm = release_order(jobs);
  auto store = instance_store(n, num_machines, StorageBackend::kSparseCsr);
  std::size_t entries = 0;
  for (const auto& row : rows) entries += row.size();
  if (entries > 0) store->reserve_entries(entries);
  std::ostringstream problems;
  StreamJob row;
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = jobs[perm[j]];
    row.entries = std::move(rows[perm[j]]);
    const bool row_ok = job_rules::sparse_row_ok(row.entries, num_machines);
    if (!job_rules::fields_ok(job) || !row_ok) {
      problems << "job " << j << ": ";
      job_rules::diagnose_fields(job.release, job.weight, job.deadline,
                                 problems);
      job_rules::diagnose_sparse_row(row.entries, num_machines, problems);
    }
    if (!row_ok) {
      // An entry whose machine id is out of range, duplicated or out of
      // order was diagnosed above and is left out, so the stored adjacency
      // stays strictly ascending and in range.
      std::size_t kept = 0;
      MachineId previous = kInvalidMachine;
      for (const SparseEntry& entry : row.entries) {
        if (!job_rules::sparse_id_ok(entry.machine, previous, num_machines)) {
          continue;
        }
        previous = entry.machine;
        row.entries[kept++] = entry;
      }
      row.entries.resize(kept);
    }
    set_fields(job, &row);
    store->append_trusted(row);
  }
  Instance instance;
  instance.adopt(std::move(store), problems.str());
  return instance;
}

Instance Instance::from_generator(
    std::vector<Job> jobs, std::size_t num_machines,
    std::shared_ptr<const RowGenerator> generator) {
  OSCHED_CHECK(generator != nullptr);
  auto store = instance_store(jobs.size(), num_machines,
                              StorageBackend::kGenerator, std::move(generator));
  std::ostringstream problems;
  StreamJob meta;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // The generator is indexed by final job id: require release order
    // instead of silently permuting entries out from under the closed form.
    const Job& job = jobs[j];
    const Time previous = j > 0 ? jobs[j - 1].release : -kTimeInfinity;
    if (!job_rules::fields_ok(job) ||
        !job_rules::release_order_ok(job.release, previous)) {
      problems << "job " << j << ": ";
      job_rules::diagnose_fields(job.release, job.weight, job.deadline,
                                 problems);
      job_rules::diagnose_release_order(job.release, previous, problems);
    }
    set_fields(job, &meta);
    store->append_trusted(meta);
  }
  Instance instance;
  instance.adopt(std::move(store), problems.str());
  return instance;
}

void Instance::adopt(std::shared_ptr<service::StreamingJobStore> store,
                     std::string problems) {
  store->build_p_order();
  store_ = std::move(store);
  validation_problems_ = std::move(problems);
}

Instance Instance::with_backend(StorageBackend target) const {
  if (target == backend()) return *this;
  OSCHED_CHECK(target != StorageBackend::kGenerator)
      << "a matrix has no closed form to recover; build generator instances "
         "with Instance::from_generator";
  const std::size_t n = num_jobs();
  // The jobs are already release-sorted with ids 0..n-1, so the target
  // constructor's stable sort is the identity permutation and every p_ij
  // keeps its (i, j) address.
  std::vector<Job> jobs = this->jobs();
  if (target == StorageBackend::kSparseCsr) {
    std::vector<std::vector<SparseEntry>> rows(n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto job = static_cast<JobId>(j);
      rows[j].reserve(eligible_machines(job).size());
      for (const MachineId i : eligible_machines(job)) {
        rows[j].push_back(SparseEntry{i, processing_unchecked(i, job)});
      }
    }
    return from_sparse_rows(std::move(jobs), num_machines(), std::move(rows));
  }
  std::vector<std::vector<Work>> processing(
      num_machines(), std::vector<Work>(n, kTimeInfinity));
  for (std::size_t j = 0; j < n; ++j) {
    const auto job = static_cast<JobId>(j);
    for (const MachineId i : eligible_machines(job)) {
      processing[static_cast<std::size_t>(i)][j] = processing_unchecked(i, job);
    }
  }
  return Instance(std::move(jobs), std::move(processing));
}

StorageBackend Instance::backend() const {
  return store_ != nullptr ? store_->backend() : StorageBackend::kDense;
}

const service::StreamingJobStore& Instance::store() const {
  OSCHED_CHECK(store_ != nullptr) << "a default-constructed Instance has no "
                                     "store";
  return *store_;
}

std::size_t Instance::store_bytes() const {
  return store_ != nullptr ? store_->store_bytes() : 0;
}

std::size_t Instance::num_jobs() const {
  return store_ != nullptr ? store_->num_jobs() : 0;
}

std::size_t Instance::num_machines() const {
  return store_ != nullptr ? store_->num_machines() : 0;
}

const Job& Instance::job(JobId j) const {
  OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
  return store_->job(j);
}

const std::vector<Job>& Instance::jobs() const {
  static const std::vector<Job> kNoJobs;
  return num_jobs() == 0 ? kNoJobs : store_->block_jobs(0);
}

Work Instance::processing(MachineId i, JobId j) const {
  OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
  return store_->processing(i, j);
}

Work Instance::processing_unchecked(MachineId i, JobId j) const {
  return store_->processing_unchecked(i, j);
}

const Work* Instance::processing_row(JobId j) const {
  OSCHED_CHECK(backend() == StorageBackend::kDense);
  OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
  return store_->processing_row(j);
}

std::span<const std::uint16_t> Instance::p_order_row(JobId j) const {
  if (store_ == nullptr || num_jobs() == 0) return {};
  OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
  return store_->p_order_row(j);
}

int Instance::dispatch_order_width() const {
  return p_order_row(0).data() != nullptr ? 16 : 0;
}

EligibleMachines Instance::eligible_machines(JobId j) const {
  OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
  return store_->eligible_machines(j);
}

Work Instance::min_processing(JobId j) const {
  OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
  return store_->min_processing(j);
}

const std::shared_ptr<const RowGenerator>& Instance::shared_generator() const {
  OSCHED_CHECK(backend() == StorageBackend::kGenerator);
  return store_->generator();
}

double Instance::processing_spread() const {
  // Generator backend: a full closed-form sweep, analysis-only (never on a
  // scheduling path).
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t j = 0; j < num_jobs(); ++j) {
    const auto job = static_cast<JobId>(j);
    for (const MachineId i : eligible_machines(job)) {
      const Work p = processing_unchecked(i, job);
      if (job_rules::eligible(p)) {
        lo = std::min(lo, p);
        hi = std::max(hi, p);
      }
    }
  }
  if (hi == 0.0) return 1.0;
  return hi / lo;
}

Weight Instance::total_weight() const {
  Weight total = 0.0;
  for (const Job& job : jobs()) total += job.weight;
  return total;
}

std::string Instance::validate() const {
  // Computed once at construction; an Instance is immutable afterwards.
  if (num_machines() == 0) return "no machines; " + validation_problems_;
  return validation_problems_;
}

void Instance::check_valid() const {
  OSCHED_CHECK(validate().empty()) << "invalid instance: " << validate();
}

void fill_stream_job(const Instance& instance, JobId j, Time release_offset,
                     StreamJob* out) {
  const Job& src = instance.job(j);
  out->release = release_offset + src.release;
  out->weight = src.weight;
  out->deadline = src.deadline;
  const service::StreamingJobStore& store = instance.store();
  if (instance.backend() == StorageBackend::kSparseCsr) {
    // Eligible entries only, already ascending in the adjacency, with the
    // CSR values aligned: no m-wide vector is ever touched.
    out->processing.clear();
    out->entries.clear();
    const EligibleMachines eligible = store.eligible_machines(j);
    const Work* values = store.csr_values(j);
    out->entries.reserve(eligible.size());
    for (std::size_t k = 0; k < eligible.size(); ++k) {
      out->entries.push_back(SparseEntry{eligible.first[k], values[k]});
    }
    return;
  }
  out->entries.clear();
  if (instance.backend() == StorageBackend::kDense) {
    // Dense fast path (the feed loops' case): one contiguous row copy.
    const Work* row = store.processing_row(j);
    out->processing.assign(row, row + instance.num_machines());
    return;
  }
  // Generator rows are fully eligible by contract: synthesize the dense row
  // through the closed form (O(m) is inherent in materializing it at all).
  out->processing.resize(instance.num_machines());
  instance.generator().fill_row(j, instance.num_machines(),
                                out->processing.data());
}

StreamJob make_stream_job(const Instance& instance, JobId j,
                          Time release_offset) {
  StreamJob out;
  fill_stream_job(instance, j, release_offset, &out);
  return out;
}

}  // namespace osched

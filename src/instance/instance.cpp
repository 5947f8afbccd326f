#include "instance/instance.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

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

/// The (release, id) job order every backend normalizes to — release order
/// is the order the online algorithms see arrivals.
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

std::vector<Job> apply_order(std::vector<Job> jobs,
                             const std::vector<std::size_t>& perm) {
  std::vector<Job> sorted(jobs.size());
  for (std::size_t pos = 0; pos < perm.size(); ++pos) {
    sorted[pos] = jobs[perm[pos]];
    sorted[pos].id = static_cast<JobId>(pos);
  }
  return sorted;
}

}  // namespace

Instance::Instance(std::vector<Job> jobs,
                   std::vector<std::vector<Work>> processing)
    : jobs_(std::move(jobs)),
      num_machines_(processing.size()),
      backend_(StorageBackend::kDense) {
  for (const auto& row : processing) {
    OSCHED_CHECK_EQ(row.size(), jobs_.size())
        << "processing matrix row width must equal the number of jobs";
  }

  // Sort jobs by (release, id) and renumber, permuting matrix columns to
  // match. Release order is the order the online algorithms see arrivals.
  const std::vector<std::size_t> perm = release_order(jobs_);
  jobs_ = apply_order(std::move(jobs_), perm);

  const std::size_t n = jobs_.size();
  processing_.resize(num_machines_ * n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    Work* job_slice = processing_.data() + pos * num_machines_;
    const std::size_t original = perm[pos];
    for (std::size_t i = 0; i < num_machines_; ++i) {
      job_slice[i] = processing[i][original];
    }
  }

  // Per-job eligible-machine adjacency, ascending machine index, and the
  // validation verdict under the shared job rules (instance/job_rules.hpp):
  // an Instance is immutable, so the verdict is computed once here and
  // validate() just returns it. A message is built only for a job that
  // fails the fast form.
  std::ostringstream problems;
  eligible_offsets_.assign(n + 1, 0);
  eligible_flat_.reserve(num_machines_ > 0 ? n : 0);
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = jobs_[j];
    const Work* job_slice = processing_.data() + j * num_machines_;
    const std::span<const Work> row(job_slice, num_machines_);
    if (!job_rules::fields_ok(job) ||
        !job_rules::dense_row_ok(row, num_machines_)) {
      problems << "job " << j << ": ";
      job_rules::diagnose_fields(job.release, job.weight, job.deadline,
                                 problems);
      job_rules::diagnose_dense_row(row, num_machines_, problems);
    }
    for (std::size_t i = 0; i < num_machines_; ++i) {
      if (job_rules::eligible(job_slice[i])) {
        eligible_flat_.push_back(static_cast<MachineId>(i));
      }
    }
    eligible_offsets_[j + 1] = eligible_flat_.size();
  }
  validation_problems_ = problems.str();
  build_p_order_dense();
}

Instance Instance::from_sparse_rows(std::vector<Job> jobs,
                                    std::size_t num_machines,
                                    std::vector<std::vector<SparseEntry>> rows) {
  OSCHED_CHECK_EQ(rows.size(), jobs.size())
      << "one sparse row per job is required";
  Instance instance;
  instance.backend_ = StorageBackend::kSparseCsr;
  instance.num_machines_ = num_machines;
  instance.jobs_ = std::move(jobs);

  const std::vector<std::size_t> perm = release_order(instance.jobs_);
  instance.jobs_ = apply_order(std::move(instance.jobs_), perm);

  const std::size_t n = instance.jobs_.size();
  std::ostringstream problems;
  std::size_t nnz = 0;
  for (const auto& row : rows) nnz += row.size();
  instance.eligible_offsets_.assign(n + 1, 0);
  instance.eligible_flat_.reserve(nnz);
  instance.csr_p_.reserve(nnz);
  for (std::size_t j = 0; j < n; ++j) {
    const std::vector<SparseEntry>& row = rows[perm[j]];
    const Job& job = instance.jobs_[j];
    if (!job_rules::fields_ok(job) ||
        !job_rules::sparse_row_ok(row, num_machines)) {
      problems << "job " << j << ": ";
      job_rules::diagnose_fields(job.release, job.weight, job.deadline,
                                 problems);
      job_rules::diagnose_sparse_row(row, num_machines, problems);
    }
    // Strictly ascending in-range machine ids give the same adjacency order
    // the dense pass produces, and make processing_unchecked a binary
    // search. An entry that breaks that was diagnosed above and is left
    // out, so the stored adjacency stays well-formed.
    MachineId previous = kInvalidMachine;
    for (const SparseEntry& entry : row) {
      if (!job_rules::sparse_id_ok(entry.machine, previous, num_machines)) {
        continue;
      }
      previous = entry.machine;
      instance.eligible_flat_.push_back(entry.machine);
      instance.csr_p_.push_back(entry.p);
    }
    instance.eligible_offsets_[j + 1] = instance.eligible_flat_.size();
  }
  instance.validation_problems_ = problems.str();
  instance.build_p_order_csr();
  return instance;
}

Instance Instance::from_generator(
    std::vector<Job> jobs, std::size_t num_machines,
    std::shared_ptr<const RowGenerator> generator) {
  OSCHED_CHECK(generator != nullptr);
  Instance instance;
  instance.backend_ = StorageBackend::kGenerator;
  instance.num_machines_ = num_machines;
  instance.jobs_ = std::move(jobs);
  instance.generator_ = std::move(generator);

  std::ostringstream problems;
  for (std::size_t j = 0; j < instance.jobs_.size(); ++j) {
    // The generator is indexed by final job id: require release order
    // instead of silently permuting entries out from under the closed form.
    const Job& job = instance.jobs_[j];
    const Time previous =
        j > 0 ? instance.jobs_[j - 1].release : -kTimeInfinity;
    if (!job_rules::fields_ok(job) ||
        !job_rules::release_order_ok(job.release, previous)) {
      problems << "job " << j << ": ";
      job_rules::diagnose_fields(job.release, job.weight, job.deadline,
                                 problems);
      job_rules::diagnose_release_order(job.release, previous, problems);
    }
    instance.jobs_[j].id = static_cast<JobId>(j);
  }
  instance.validation_problems_ = problems.str();
  instance.identity_machines_.resize(num_machines);
  std::iota(instance.identity_machines_.begin(),
            instance.identity_machines_.end(), MachineId{0});
  return instance;
}

Instance Instance::with_backend(StorageBackend target) const {
  if (target == backend_) return *this;
  OSCHED_CHECK(target != StorageBackend::kGenerator)
      << "a matrix has no closed form to recover; build generator instances "
         "with Instance::from_generator";
  const std::size_t n = jobs_.size();
  // The jobs are already release-sorted with ids 0..n-1, so the target
  // constructor's stable sort is the identity permutation and every p_ij
  // keeps its (i, j) address.
  std::vector<Job> jobs = jobs_;
  if (target == StorageBackend::kSparseCsr) {
    std::vector<std::vector<SparseEntry>> rows(n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto job = static_cast<JobId>(j);
      rows[j].reserve(eligible_machines(job).size());
      for (const MachineId i : eligible_machines(job)) {
        rows[j].push_back(SparseEntry{i, processing_unchecked(i, job)});
      }
    }
    return from_sparse_rows(std::move(jobs), num_machines_, std::move(rows));
  }
  std::vector<std::vector<Work>> processing(
      num_machines_, std::vector<Work>(n, kTimeInfinity));
  for (std::size_t j = 0; j < n; ++j) {
    const auto job = static_cast<JobId>(j);
    for (const MachineId i : eligible_machines(job)) {
      processing[static_cast<std::size_t>(i)][j] = processing_unchecked(i, job);
    }
  }
  return Instance(std::move(jobs), std::move(processing));
}

std::size_t Instance::store_bytes() const {
  auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  return bytes(jobs_) + bytes(processing_) + bytes(csr_p_) +
         bytes(identity_machines_) + bytes(p_order_) + bytes(eligible_flat_) +
         bytes(eligible_offsets_);
}

template <class EntryP>
void Instance::build_p_order(EntryP&& entry_p) {
  // Per-job (p, id)-sorted eligible machines for the dispatch index's
  // idle-machine walk. Sorting runs over PACKED (p bit pattern, id) keys:
  // the bit patterns of non-negative IEEE doubles order exactly like the
  // values, and value compares beat a comparator that chases back into the
  // matrix per call. `entry_p(j, k, id)` is the backend's way to read the
  // adjacency entry's p value — one builder, so the dense and CSR order
  // tables can't drift. Construction is batched per job: the sort scratch
  // is one row's keys (capacity = the widest adjacency row, reused across
  // jobs), so a build never holds more than the finished table plus one
  // row of keys. Ids are uint16, so at m >= 65536 no table is built and
  // dispatch takes its order-less sub-path.
  if (num_machines_ >= 65536u) return;
  const std::size_t n = jobs_.size();
  p_order_.resize(eligible_flat_.size());
  std::vector<detail::POrderKey> keys;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t begin = eligible_offsets_[j];
    const std::size_t end = eligible_offsets_[j + 1];
    keys.clear();
    for (std::size_t k = begin; k < end; ++k) {
      const auto id = static_cast<std::uint16_t>(eligible_flat_[k]);
      keys.push_back(detail::POrderKey::make(entry_p(j, k, id), id));
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t k = begin; k < end; ++k) {
      p_order_[k] = keys[k - begin].id;
    }
  }
}

void Instance::build_p_order_dense() {
  build_p_order([this](std::size_t j, std::size_t /*k*/, std::size_t id) {
    return processing_[j * num_machines_ + id];
  });
}

void Instance::build_p_order_csr() {
  // The CSR values are adjacency-aligned already: slice entry k IS p.
  build_p_order([this](std::size_t /*j*/, std::size_t k, std::size_t /*id*/) {
    return csr_p_[k];
  });
}

Work Instance::min_processing(JobId j) const {
  OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < jobs_.size());
  Work best = kTimeInfinity;
  switch (backend_) {
    case StorageBackend::kDense:
      for (std::size_t i = 0; i < num_machines_; ++i) {
        best =
            std::min(best, processing_unchecked(static_cast<MachineId>(i), j));
      }
      break;
    case StorageBackend::kSparseCsr: {
      const std::size_t begin = eligible_offsets_[static_cast<std::size_t>(j)];
      const std::size_t end =
          eligible_offsets_[static_cast<std::size_t>(j) + 1];
      for (std::size_t k = begin; k < end; ++k) {
        best = std::min(best, csr_p_[k]);
      }
      break;
    }
    case StorageBackend::kGenerator:
      for (std::size_t i = 0; i < num_machines_; ++i) {
        best = std::min(best, generator_->entry(j, static_cast<MachineId>(i)));
      }
      break;
  }
  return best;
}

double Instance::processing_spread() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  auto fold = [&](Work p) {
    if (job_rules::eligible(p)) {
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
  };
  switch (backend_) {
    case StorageBackend::kDense:
      for (Work p : processing_) fold(p);
      break;
    case StorageBackend::kSparseCsr:
      for (Work p : csr_p_) fold(p);
      break;
    case StorageBackend::kGenerator:
      // Full closed-form sweep: analysis-only (never on a scheduling path).
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        for (std::size_t i = 0; i < num_machines_; ++i) {
          fold(generator_->entry(static_cast<JobId>(j),
                                 static_cast<MachineId>(i)));
        }
      }
      break;
  }
  if (hi == 0.0) return 1.0;
  return hi / lo;
}

Weight Instance::total_weight() const {
  Weight total = 0.0;
  for (const Job& job : jobs_) total += job.weight;
  return total;
}

std::string Instance::validate() const {
  // Computed once at construction; an Instance is immutable afterwards.
  if (num_machines_ == 0) return "no machines; " + validation_problems_;
  return validation_problems_;
}

void Instance::check_valid() const {
  OSCHED_CHECK(validate().empty()) << "invalid instance: " << validate();
}

}  // namespace osched

#include "instance/instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>
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

void Instance::check_job_fields(const Job& job, std::size_t j,
                                std::ostream& problems) {
  if (job.release < 0.0) {
    problems << "job " << j << " has negative release; ";
  } else if (!std::isfinite(job.release)) {
    // NaN compares false against everything, so it needs its own branch
    // or it would sail through all the ordering checks below.
    problems << "job " << j << " has non-finite release; ";
  }
  if (!(job.weight > 0.0)) {  // catches NaN weights too
    problems << "job " << j << " has non-positive weight; ";
  } else if (job.weight >= kTimeInfinity) {
    problems << "job " << j << " has infinite weight; ";
  }
  if (!(job.deadline > job.release)) {  // catches NaN deadlines too
    problems << "job " << j << " has deadline <= release; ";
  }
}

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
  bounds_.resize(num_machines_ * n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    Work* job_slice = processing_.data() + pos * num_machines_;
    float* bounds_slice = bounds_.data() + pos * num_machines_;
    const std::size_t original = perm[pos];
    // The transposing copy gathers across rows; the shadow is then one
    // contiguous (vectorizable) conversion pass over the job's slice.
    for (std::size_t i = 0; i < num_machines_; ++i) {
      job_slice[i] = processing[i][original];
    }
    for (std::size_t i = 0; i < num_machines_; ++i) {
      bounds_slice[i] = float_lower(job_slice[i]);
    }
  }

  // Per-job eligible-machine adjacency, ascending machine index. The same
  // full-matrix pass performs validation (KEEP the checks in sync with
  // service::StreamingJobStore::check_job): an Instance is immutable, so
  // the verdict is computed once here and validate() just returns it —
  // run_* entry points used to re-scan the whole matrix per run, which
  // showed up as ~15% of the measured scheduling time in the perf tier.
  std::ostringstream problems;
  if (num_machines_ == 0) problems << "no machines; ";
  eligible_offsets_.assign(n + 1, 0);
  eligible_flat_.reserve(num_machines_ > 0 ? n : 0);
  for (std::size_t j = 0; j < n; ++j) {
    check_job_fields(jobs_[j], j, problems);
    const Work* job_slice = processing_.data() + j * num_machines_;
    bool any_eligible = false;
    for (std::size_t i = 0; i < num_machines_; ++i) {
      const Work p = job_slice[i];
      if (p < kTimeInfinity) {
        any_eligible = true;
        if (p <= 0.0) {
          problems << "p[" << i << "][" << j << "] is non-positive; ";
        }
        eligible_flat_.push_back(static_cast<MachineId>(i));
      } else if (std::isnan(p)) {
        problems << "p[" << i << "][" << j << "] is NaN; ";
      }
    }
    if (num_machines_ > 0 && !any_eligible) {
      problems << "job " << j << " has no eligible machine; ";
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
  if (num_machines == 0) problems << "no machines; ";
  std::size_t nnz = 0;
  for (const auto& row : rows) nnz += row.size();
  instance.eligible_offsets_.assign(n + 1, 0);
  instance.eligible_flat_.reserve(nnz);
  instance.csr_p_.reserve(nnz);
  for (std::size_t j = 0; j < n; ++j) {
    check_job_fields(instance.jobs_[j], j, problems);
    const std::vector<SparseEntry>& row = rows[perm[j]];
    MachineId previous = kInvalidMachine;
    for (std::size_t k = 0; k < row.size(); ++k) {
      const SparseEntry& entry = row[k];
      // Strictly ascending machine ids give the same adjacency order the
      // dense pass produces, and make processing_unchecked a binary search.
      // An entry that breaks that is reported (in the streaming store's
      // words) and left out, so the stored adjacency stays well-formed.
      if (entry.machine < 0 ||
          static_cast<std::size_t>(entry.machine) >= num_machines) {
        problems << "job " << j << " entries[" << k << "] machine "
                 << entry.machine << " out of range (instance has "
                 << num_machines << " machines); ";
        continue;
      }
      if (entry.machine == previous) {
        problems << "job " << j << " entries[" << k << "] duplicates machine "
                 << entry.machine << "; ";
        continue;
      }
      if (entry.machine < previous) {
        problems << "job " << j << " entries[" << k << "] machine "
                 << entry.machine
                 << " out of order (entries are sorted ascending by "
                    "machine); ";
        continue;
      }
      previous = entry.machine;
      if (!(entry.p > 0.0)) {  // catches NaN
        problems << "p[" << entry.machine << "][" << j
                 << "] is non-positive; ";
      } else if (!(entry.p < kTimeInfinity)) {
        // A sparse row lists ELIGIBLE entries; an infinite one is a
        // malformed row, not a compact way to say "ineligible".
        problems << "p[" << entry.machine << "][" << j
                 << "] is not finite (omit ineligible machines); ";
      }
      instance.eligible_flat_.push_back(entry.machine);
      instance.csr_p_.push_back(entry.p);
    }
    if (num_machines > 0 &&
        instance.eligible_flat_.size() == instance.eligible_offsets_[j]) {
      problems << "job " << j << " has no eligible machine; ";
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
  if (num_machines == 0) problems << "no machines; ";
  for (std::size_t j = 0; j < instance.jobs_.size(); ++j) {
    // The generator is indexed by final job id: require release order
    // instead of silently permuting entries out from under the closed form.
    if (j > 0 &&
        instance.jobs_[j].release < instance.jobs_[j - 1].release) {
      problems << "job " << j << " release " << instance.jobs_[j].release
               << " out of order (generator-backed jobs must arrive "
                  "release-sorted); ";
    }
    instance.jobs_[j].id = static_cast<JobId>(j);
    check_job_fields(instance.jobs_[j], j, problems);
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
  return bytes(jobs_) + bytes(processing_) + bytes(bounds_) + bytes(csr_p_) +
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

Work Instance::sparse_lookup(MachineId i, JobId j) const {
  const std::size_t begin = eligible_offsets_[static_cast<std::size_t>(j)];
  const std::size_t end = eligible_offsets_[static_cast<std::size_t>(j) + 1];
  const MachineId* first = eligible_flat_.data() + begin;
  const MachineId* last = eligible_flat_.data() + end;
  const MachineId* hit = std::lower_bound(first, last, i);
  if (hit == last || *hit != i) return kTimeInfinity;
  return csr_p_[begin + static_cast<std::size_t>(hit - first)];
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
    if (p < kTimeInfinity) {
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
  // Computed once at construction (for matrix backends, in the same pass
  // that builds the eligibility adjacency); an Instance is immutable
  // afterwards. The default-constructed empty Instance reports its
  // machine-less state here.
  if (num_machines_ == 0 && jobs_.empty()) return "no machines; ";
  return validation_problems_;
}

}  // namespace osched

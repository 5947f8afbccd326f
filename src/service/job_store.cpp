#include "service/job_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

namespace osched::service {

StreamingJobStore::StreamingJobStore(
    std::size_t num_machines, std::size_t jobs_per_block,
    StorageBackend backend, std::shared_ptr<const RowGenerator> generator)
    : num_machines_(num_machines),
      jobs_per_block_(jobs_per_block),
      backend_(backend),
      generator_(std::move(generator)),
      tiles_(num_machines) {
  OSCHED_CHECK_GT(num_machines, 0u);
  OSCHED_CHECK_GT(jobs_per_block, 0u);
  if (backend_ == StorageBackend::kGenerator) {
    OSCHED_CHECK(generator_ != nullptr)
        << "a generator-backed store needs the closed form";
    identity_machines_.resize(num_machines_);
    std::iota(identity_machines_.begin(), identity_machines_.end(),
              MachineId{0});
  } else {
    OSCHED_CHECK(generator_ == nullptr)
        << "only the kGenerator backend takes a row generator";
  }
}

bool StreamingJobStore::check_job_after(const StreamJob& job,
                                        Time last_release, bool have_last,
                                        std::ostringstream* problems) const {
  // Single implementation behind both validation surfaces: with a null
  // sink (the append() hot path) the first violation returns false without
  // touching a stream; with a sink every violation is described. The
  // negated comparisons (!(x > y)) deliberately catch NaN operands.
  //
  // KEEP IN SYNC with Instance::validate / Instance::from_sparse_rows
  // (instance/instance.cpp): these are the same per-job rules plus the
  // streaming-only ones (arity, release monotonicity, the per-backend
  // payload-form contract). tests/streaming_test.cpp's differential wall
  // turns any acceptance drift into a loud failure, but rule edits should
  // land in both places.
  bool ok = true;
  const auto flag = [&ok, problems] {
    ok = false;
    return problems != nullptr;  // keep going only when collecting messages
  };
  const bool has_dense = !job.processing.empty();
  const bool has_sparse = !job.entries.empty();
  if (has_dense && has_sparse) {
    if (!flag()) return false;
    *problems << "both the dense row and sparse entries are set (a "
                 "submission carries exactly one payload form); ";
  }
  if (backend_ == StorageBackend::kGenerator && (has_dense || has_sparse)) {
    if (!flag()) return false;
    *problems << "generator-backed stores take metadata-only submissions "
                 "(the shared closed form supplies every p_ij); ";
  }
  if (backend_ != StorageBackend::kGenerator && !has_dense && !has_sparse) {
    if (!flag()) return false;
    *problems << "empty payload: this store has " << num_machines_
              << " machines and needs a dense processing row or sparse "
                 "(machine, p) entries; ";
  }
  if (!(job.release >= 0.0)) {
    if (!flag()) return false;
    *problems << "release " << job.release << " is negative or NaN; ";
  }
  if (have_last && job.release < last_release) {
    if (!flag()) return false;
    *problems << "release " << job.release
              << " precedes the last submitted release " << last_release
              << " (streaming submissions must be in release order); ";
  }
  if (!(job.weight > 0.0) || job.weight >= kTimeInfinity) {
    if (!flag()) return false;
    *problems << "weight " << job.weight << " is not finite positive; ";
  }
  if (!(job.deadline > job.release)) {
    if (!flag()) return false;
    *problems << "deadline " << job.deadline << " not after release; ";
  }
  if (has_dense && !has_sparse) {
    if (job.processing.size() != num_machines_) {
      if (!flag()) return false;
      *problems << "processing row has " << job.processing.size()
                << " entries, store has " << num_machines_ << " machines; ";
    }
    bool any_eligible = false;
    for (std::size_t i = 0; i < job.processing.size(); ++i) {
      const Work p = job.processing[i];
      if (p < kTimeInfinity) {
        any_eligible = true;
        if (!(p > 0.0)) {
          if (!flag()) return false;
          *problems << "p[" << i << "] is non-positive or NaN; ";
        }
      } else if (std::isnan(p)) {
        if (!flag()) return false;
        *problems << "p[" << i << "] is NaN; ";
      }
    }
    // Only meaningful when the arity matched (an arity mismatch was already
    // flagged above, and num_machines_ > 0 by construction).
    if (job.processing.size() == num_machines_ && !any_eligible) {
      if (!flag()) return false;
      *problems << "no eligible machine; ";
    }
  }
  if (has_sparse && !has_dense) {
    // Mirrors Instance::from_sparse_rows: strictly ascending in-range
    // machine ids (duplicates and disorder diagnosed separately), finite
    // positive p — an ineligible machine is expressed by OMITTING it.
    MachineId prev = -1;
    for (std::size_t k = 0; k < job.entries.size(); ++k) {
      const SparseEntry& entry = job.entries[k];
      if (entry.machine < 0 ||
          static_cast<std::size_t>(entry.machine) >= num_machines_) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] machine " << entry.machine
                  << " out of range (store has " << num_machines_
                  << " machines); ";
      } else if (k > 0 && entry.machine == prev) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] duplicates machine "
                  << entry.machine << "; ";
      } else if (k > 0 && entry.machine < prev) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] machine " << entry.machine
                  << " out of order (entries are sorted ascending by "
                     "machine); ";
      }
      prev = entry.machine;
      if (!(entry.p > 0.0)) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] p is non-positive or NaN; ";
      } else if (entry.p >= kTimeInfinity) {
        if (!flag()) return false;
        *problems << "entries[" << k
                  << "] p is not finite (omit ineligible machines); ";
      }
    }
    // A non-empty valid entry list implies an eligible machine, so there is
    // no sparse "no eligible machine" case: the empty list is the empty-
    // payload diagnostic above.
  }
  return ok;
}

std::string StreamingJobStore::validate_job(const StreamJob& job) const {
  std::ostringstream problems;
  if (check_job(job, &problems)) return std::string();
  return problems.str();
}

JobId StreamingJobStore::append(const StreamJob& job) {
  // job_ok is the allocation-free gate; the diagnostic message is only
  // materialized on the failure path (OSCHED_CHECK streams lazily).
  OSCHED_CHECK(job_ok(job))
      << "invalid streamed job " << num_jobs_ << ": " << validate_job(job);
  return append_trusted(job);
}

void StreamingJobStore::validate_batch(std::span<const StreamJob> jobs) const {
  Time last = last_release_;
  bool have_last = num_jobs_ > 0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (!check_job_after(jobs[k], last, have_last, nullptr)) {
      // Diagnose against the same predecessor the gate used (the store's
      // validate_job would compare against its own high-water mark).
      std::ostringstream problems;
      check_job_after(jobs[k], last, have_last, &problems);
      OSCHED_CHECK(false) << "invalid streamed job " << num_jobs_ + k
                          << " (batch position " << k
                          << "): " << problems.str();
    }
    last = jobs[k].release;
    have_last = true;
  }
}

JobId StreamingJobStore::append_trusted(const StreamJob& job) {
  const std::size_t block_index = num_jobs_ / jobs_per_block_;
  if (block_index == blocks_.size()) {
    blocks_.push_back(std::make_unique<Block>());
    Block& fresh = *blocks_.back();
    fresh.jobs.reserve(jobs_per_block_);
    if (backend_ == StorageBackend::kDense) {
      fresh.processing.reserve(jobs_per_block_ * num_machines_);
    }
    if (backend_ != StorageBackend::kGenerator) {
      fresh.eligible_offsets.reserve(jobs_per_block_ + 1);
      fresh.eligible_offsets.push_back(0);
    }
  }
  Block& block = *blocks_[block_index];

  const auto id = static_cast<JobId>(num_jobs_);
  Job stored;
  stored.id = id;
  stored.release = job.release;
  stored.weight = job.weight;
  stored.deadline = job.deadline;
  block.jobs.push_back(stored);

  switch (backend_) {
    case StorageBackend::kDense:
      if (!job.entries.empty()) {
        // Sparse submission into a dense store: scatter over an
        // infinity-filled row (the one conversion that still pays O(m) —
        // it is the dense store's own cost, not the feeder's).
        const std::size_t base = block.processing.size();
        block.processing.resize(base + num_machines_, kTimeInfinity);
        for (const SparseEntry& entry : job.entries) {
          block.processing[base + static_cast<std::size_t>(entry.machine)] =
              entry.p;
          block.eligible.push_back(entry.machine);
        }
      } else {
        block.processing.insert(block.processing.end(),
                                job.processing.begin(), job.processing.end());
        // The float shadow is NOT written here: it fills lazily on the
        // first bounds_row() touch (see the header), which moved the former
        // ~40% of append's cost off the ingest clock.
        for (std::size_t i = 0; i < job.processing.size(); ++i) {
          if (job.processing[i] < kTimeInfinity) {
            block.eligible.push_back(static_cast<MachineId>(i));
          }
        }
      }
      block.eligible_offsets.push_back(
          static_cast<std::uint32_t>(block.eligible.size()));
      bump_matrix_bytes(num_machines_ * sizeof(Work));
      break;
    case StorageBackend::kSparseCsr:
      if (!job.entries.empty()) {
        // The backend's native form: O(eligible) append, nothing m-wide.
        for (const SparseEntry& entry : job.entries) {
          block.eligible.push_back(entry.machine);
          block.csr_p.push_back(entry.p);
        }
      } else {
        for (std::size_t i = 0; i < job.processing.size(); ++i) {
          if (job.processing[i] < kTimeInfinity) {
            block.eligible.push_back(static_cast<MachineId>(i));
            block.csr_p.push_back(job.processing[i]);
          }
        }
      }
      block.eligible_offsets.push_back(
          static_cast<std::uint32_t>(block.eligible.size()));
      bump_matrix_bytes((block.eligible_offsets.back() -
                         block.eligible_offsets[block.jobs.size() - 1]) *
                        sizeof(Work));
      break;
    case StorageBackend::kGenerator:
      // Metadata only: the closed form holds every p_ij, adjacency is the
      // shared identity row. Nothing else to store.
      break;
  }

  last_release_ = job.release;
  ++num_jobs_;
  return id;
}

const RowTileCache::Row& StreamingJobStore::tile(JobId j) const {
  // The fast path must still honor the retirement abort: a slot can hold a
  // row whose block was retired since, and serving it would hide the
  // use-after-retire the dense path traps.
  const RowTileCache::Row* hit = tiles_.find(j);
  if (hit != nullptr && j >= begin_id_) return *hit;
  const Block& b = block_of(j);
  if (backend_ == StorageBackend::kGenerator) {
    return tiles_.fill_generated(j, *generator_);
  }
  const std::size_t offset = offset_of(j);
  const std::uint32_t begin = b.eligible_offsets[offset];
  return tiles_.fill_sparse(j, b.eligible.data() + begin,
                            b.csr_p.data() + begin,
                            b.eligible_offsets[offset + 1] - begin);
}

void StreamingJobStore::fill_bounds(const Block& block,
                                    std::size_t offset) const {
  // One-time block allocation, then a contiguous conversion sweep over
  // every row appended since the last touch. float_lower (branch-free, so
  // the sweep vectorizes) is the rounded-down conversion Instance::bounds_
  // uses (inf -> FLT_MAX), so both stores' shadow rows obey one contract.
  if (block.bounds.empty()) {
    block.bounds.resize(jobs_per_block_ * num_machines_);
    bump_matrix_bytes(block.bounds.size() * sizeof(float));
  }
  const std::size_t begin = block.bounds_rows_filled * num_machines_;
  const std::size_t end = (offset + 1) * num_machines_;
  const Work* __restrict from = block.processing.data();
  float* __restrict to = block.bounds.data();
  for (std::size_t k = begin; k < end; ++k) {
    to[k] = float_lower(from[k]);
  }
  block.bounds_rows_filled = offset + 1;
}

void StreamingJobStore::retire_below(JobId frontier) {
  if (frontier <= begin_id_) return;
  begin_id_ = std::min(frontier, static_cast<JobId>(num_jobs_));
  const std::size_t first_live_block =
      static_cast<std::size_t>(begin_id_) / jobs_per_block_;
  for (std::size_t b = 0; b < first_live_block && b < blocks_.size(); ++b) {
    release_block(blocks_[b]);
  }
}

Work StreamingJobStore::min_processing(JobId j) const {
  Work best = kTimeInfinity;
  switch (backend_) {
    case StorageBackend::kDense: {
      const Work* row = processing_row(j);
      for (std::size_t i = 0; i < num_machines_; ++i) {
        best = std::min(best, row[i]);
      }
      break;
    }
    case StorageBackend::kSparseCsr: {
      const Block& b = block_of(j);
      const std::size_t offset = offset_of(j);
      for (std::uint32_t e = b.eligible_offsets[offset];
           e < b.eligible_offsets[offset + 1]; ++e) {
        best = std::min(best, b.csr_p[e]);
      }
      break;
    }
    case StorageBackend::kGenerator:
      // Deliberately tile-free (like every point read): the caller may hold
      // row pointers into the tiles.
      for (std::size_t i = 0; i < num_machines_; ++i) {
        best = std::min(
            best, generator_->entry(j, static_cast<MachineId>(i)));
      }
      break;
  }
  return best;
}

}  // namespace osched::service

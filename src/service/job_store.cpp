#include "service/job_store.hpp"

#include <algorithm>
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
  } else {
    OSCHED_CHECK(generator_ == nullptr)
        << "only the kGenerator backend takes a row generator";
  }
  if (backend_ != StorageBackend::kSparseCsr) {
    identity_machines_.resize(num_machines_);
    std::iota(identity_machines_.begin(), identity_machines_.end(),
              MachineId{0});
  }
}

std::string StreamingJobStore::diagnose_after(const StreamJob& job,
                                              Time previous) const {
  // The payload form is the store's own rule; the rest are the shared job
  // rules (instance/job_rules.hpp).
  std::ostringstream out;
  const bool has_dense = !job.processing.empty();
  const bool has_sparse = !job.entries.empty();
  if (has_dense && has_sparse) {
    out << "both the dense row and sparse entries are set (a submission "
           "carries exactly one payload form); ";
  }
  if (backend_ == StorageBackend::kGenerator && (has_dense || has_sparse)) {
    out << "generator-backed stores take metadata-only submissions (the "
           "shared closed form supplies every p_ij); ";
  }
  if (backend_ != StorageBackend::kGenerator && !has_dense && !has_sparse) {
    out << "empty payload: this store has " << num_machines_
        << " machines and needs a dense processing row or sparse "
           "(machine, p) entries; ";
  }
  job_rules::diagnose_fields(job.release, job.weight, job.deadline, out);
  job_rules::diagnose_release_order(job.release, previous, out);
  if (has_dense && !has_sparse) {
    job_rules::diagnose_dense_row(job.processing, num_machines_, out);
  }
  if (has_sparse && !has_dense) {
    job_rules::diagnose_sparse_row(job.entries, num_machines_, out);
  }
  return out.str();
}

JobId StreamingJobStore::append(const StreamJob& job) {
  // job_ok is the allocation-free gate; the diagnostic message is only
  // materialized on the failure path (OSCHED_CHECK streams lazily).
  OSCHED_CHECK(job_ok(job))
      << "invalid streamed job " << num_jobs_ << ": " << validate_job(job);
  return append_trusted(job);
}

void StreamingJobStore::validate_batch(std::span<const StreamJob> jobs) const {
  // Each job is diagnosed against the same predecessor its gate used.
  Time previous = last_release_;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    OSCHED_CHECK(job_ok_after(jobs[k], previous))
        << "invalid streamed job " << num_jobs_ + k << " (batch position "
        << k << "): " << diagnose_after(jobs[k], previous);
    previous = jobs[k].release;
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
        std::size_t finite = 0;
        for (const Work p : job.processing) finite += job_rules::eligible(p);
        // A full row stores no ids: its empty span reads as the shared
        // identity row (eligible_machines).
        if (finite != num_machines_) {
          for (std::size_t i = 0; i < job.processing.size(); ++i) {
            if (job_rules::eligible(job.processing[i])) {
              block.eligible.push_back(static_cast<MachineId>(i));
            }
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
          if (job_rules::eligible(job.processing[i])) {
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
      // One fill_row (bit-identical to m entry() calls by its contract, at
      // one evaluation of the job's factors) into a scratch row of its own,
      // not a tile: the caller may hold row pointers into the tiles.
      min_row_.resize(num_machines_);
      generator_->fill_row(j, num_machines_, min_row_.data());
      for (const Work p : min_row_) best = std::min(best, p);
      break;
  }
  return best;
}

}  // namespace osched::service

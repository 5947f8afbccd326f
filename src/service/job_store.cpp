#include "service/job_store.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

namespace osched::service {

StreamingJobStore::StreamingJobStore(
    std::size_t num_machines, std::size_t jobs_per_block,
    StorageBackend backend, std::shared_ptr<const RowGenerator> generator)
    : num_machines_(num_machines),
      jobs_per_block_(jobs_per_block),
      block_shift_(std::countr_zero(jobs_per_block)),
      backend_(backend),
      generator_(std::move(generator)),
      tiles_(num_machines) {
  OSCHED_CHECK(std::has_single_bit(jobs_per_block))
      << "jobs_per_block must be a power of two, got " << jobs_per_block;
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

StreamingJobStore::Block& StreamingJobStore::tail_block() {
  OSCHED_CHECK(p_order_ == nullptr) << "append after build_p_order";
  const std::size_t block_index = num_jobs_ >> block_shift_;
  if (block_index == blocks_.size()) {
    Block& fresh = *blocks_.emplace_back(std::make_shared<Block>());
    fresh.jobs.reserve(jobs_per_block_);
    if (backend_ == StorageBackend::kDense) {
      fresh.processing.reserve(jobs_per_block_ * num_machines_);
    }
    if (backend_ != StorageBackend::kGenerator) {
      fresh.eligible_offsets.reserve(jobs_per_block_ + 1);
      fresh.eligible_offsets.push_back(0);
    }
  } else if (blocks_[block_index].use_count() > 1) {
    // Copy-on-write: a copy of this store still reads the block.
    blocks_[block_index] = std::make_shared<Block>(*blocks_[block_index]);
  }
  return *blocks_[block_index];
}

void StreamingJobStore::reserve_entries(std::size_t num_entries) {
  Block& block = tail_block();
  block.eligible.reserve(block.eligible.size() + num_entries);
  if (backend_ == StorageBackend::kSparseCsr) {
    block.csr_p.reserve(block.csr_p.size() + num_entries);
  }
}

JobId StreamingJobStore::append_trusted(const StreamJob& job) {
  Block& block = tail_block();

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
        has_ineligible_rows_ |= finite == 0 && num_machines_ > 0;
        if (finite != num_machines_) {
          for (std::size_t i = 0; i < job.processing.size(); ++i) {
            if (job_rules::eligible(job.processing[i])) {
              block.eligible.push_back(static_cast<MachineId>(i));
            }
          }
        }
      }
      block.eligible_offsets.push_back(block.eligible.size());
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
      block.eligible_offsets.push_back(block.eligible.size());
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
  const std::size_t begin = b.eligible_offsets[offset];
  return tiles_.fill_sparse(j, b.eligible.data() + begin,
                            b.csr_p.data() + begin,
                            b.eligible_offsets[offset + 1] - begin);
}

namespace {

/// Moves to the front of `keys` every key that can be among its `k`
/// smallest and returns how many there are, without a branch per key. Of
/// k blocks of keys.size() / k keys, each holds a key no larger than
/// cut = max over blocks of the block minimum, so at least k keys have
/// pbits <= cut, and so does each of the k smallest. Short rows are kept
/// whole.
std::size_t keep_prefix_candidates(std::vector<detail::POrderKey>& keys,
                                   std::size_t k) {
  const std::size_t n = keys.size();
  if (n <= 2 * k) return n;
  const std::size_t width = n / k;
  std::uint64_t cut = 0;
  for (std::size_t b = 0; b < k; ++b) {
    std::uint64_t low = keys[b * width].pbits;
    for (std::size_t e = 1; e < width; ++e) {
      low = std::min(low, keys[b * width + e].pbits);
    }
    cut = std::max(cut, low);
  }
  std::size_t kept = 0;
  for (std::size_t e = 0; e < n; ++e) {
    keys[kept] = keys[e];
    kept += keys[e].pbits <= cut ? 1 : 0;
  }
  return kept;
}

}  // namespace

void StreamingJobStore::build_p_order() {
  // Selection runs over PACKED (p bit pattern, id) keys: the bit patterns
  // of non-negative IEEE doubles order exactly like the values, and value
  // compares beat a comparator that chases back into the matrix per call.
  // Per job, one pass builds the keys, a branch-free filter drops most of
  // those that cannot make the prefix, nth_element splits off the
  // kPOrderPrefix smallest, and only those are sorted: O(m) per job, not
  // O(m log m). (A bounded insertion pass over the row measured slower.)
  // The scratch is one row's keys, reused across jobs.
  if (backend_ == StorageBackend::kGenerator || num_machines_ >= 65536u) {
    return;
  }
  OSCHED_CHECK_EQ(begin_id_, 0) << "build_p_order after retire_below";
  static_assert(kPOrderPrefix <= 255, "prefix lengths are stored as uint8");
  auto table = std::make_shared<POrderTable>();
  // The stride is the longest prefix any job has, so a sparse store whose
  // rows list a handful of machines pays for a handful of ids per job.
  for (std::size_t j = 0; j < num_jobs_; ++j) {
    table->stride = std::max(
        table->stride,
        std::min(eligible_machines(static_cast<JobId>(j)).size(),
                 kPOrderPrefix));
  }
  if (table->stride == 0) return;
  table->ids.resize(num_jobs_ * table->stride);
  table->lengths.resize(num_jobs_);
  // A dense row is indexed by machine, CSR values by adjacency position.
  const bool dense = backend_ == StorageBackend::kDense;
  std::vector<detail::POrderKey> keys;
  for (std::size_t j = 0; j < num_jobs_; ++j) {
    const auto job = static_cast<JobId>(j);
    const EligibleMachines ids = eligible_machines(job);
    const Work* p = dense ? processing_row(job) : csr_values(job);
    keys.clear();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const MachineId i = ids.first[k];
      keys.push_back(detail::POrderKey::make(
          p[dense ? static_cast<std::size_t>(i) : k],
          static_cast<std::uint16_t>(i)));
    }
    const std::size_t kept = keep_prefix_candidates(keys, kPOrderPrefix);
    const std::size_t len = std::min(kept, kPOrderPrefix);
    detail::POrderKey* const first = keys.data();
    std::nth_element(first, first + len, first + kept);
    std::sort(first, first + len);
    std::uint16_t* out = table->ids.data() + j * table->stride;
    for (std::size_t k = 0; k < len; ++k) out[k] = keys[k].id;
    table->lengths[j] = static_cast<std::uint8_t>(len);
  }
  p_order_ = std::move(table);
}

std::size_t StreamingJobStore::store_bytes() const {
  auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  std::size_t total = bytes(identity_machines_);
  for (const std::shared_ptr<Block>& b : blocks_) {
    if (b == nullptr) continue;
    total += bytes(b->jobs) + bytes(b->processing) + bytes(b->eligible) +
             bytes(b->eligible_offsets) + bytes(b->csr_p);
  }
  if (p_order_ != nullptr) {
    total += bytes(p_order_->ids) + bytes(p_order_->lengths);
  }
  return total;
}

void StreamingJobStore::retire_below(JobId frontier) {
  if (frontier <= begin_id_) return;
  // Blocks below the old frontier's were released by earlier calls.
  const std::size_t first_unreleased =
      static_cast<std::size_t>(begin_id_) >> block_shift_;
  begin_id_ = std::min(frontier, static_cast<JobId>(num_jobs_));
  const std::size_t first_live_block =
      static_cast<std::size_t>(begin_id_) >> block_shift_;
  for (std::size_t b = first_unreleased;
       b < first_live_block && b < blocks_.size(); ++b) {
    release_block(b);
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
      for (std::size_t e = b.eligible_offsets[offset];
           e < b.eligible_offsets[offset + 1]; ++e) {
        best = std::min(best, b.csr_p[e]);
      }
      break;
    }
    case StorageBackend::kGenerator:
      // Point evaluations, not a tile: the caller may hold row pointers
      // into the tiles.
      for (std::size_t i = 0; i < num_machines_; ++i) {
        best = std::min(best, generator_->entry(j, static_cast<MachineId>(i)));
      }
      break;
  }
  return best;
}

}  // namespace osched::service

// The job store every policy reads job data through, batch and streamed.
//
// A SchedulerSession ingests jobs one at a time, in release order, and the
// policies read job data through exactly the accessor surface Instance
// exposes (job / processing_unchecked / eligible_machines / ...). The store
// keeps that data in fixed-size blocks so that once every job of a block is
// decided and folded, the whole block's memory is handed back — the live
// footprint tracks the in-flight window, not the full trace.
//
// A batch run borrows its Instance instead (the const Instance&
// constructor): one read-only block aliases the Instance's job records,
// dense rows, adjacency, CSR values and identity row without copying them,
// and p_order_row serves the Instance's (p, id) order table. Appending to
// or retiring from a borrowed store aborts.
//
// Storage backends (the PR-5 batch trio, carried through the service layer):
//  * kDense     — each block holds a job-major m-wide double matrix. The
//                 compatibility hot path; accepts dense AND sparse
//                 submission forms (sparse entries scatter into an
//                 infinity-filled row). A dense row with every entry
//                 finite stores no adjacency and shares the identity row;
//                 other rows list their finite ids.
//  * kSparseCsr — each block stores only the eligible (machine, p) entries,
//                 as a values array aligned with the eligibility adjacency
//                 the store keeps anyway. A restricted-assignment job costs
//                 O(eligible), never O(m). Accepts both submission forms
//                 (a dense row is compacted on append).
//  * kGenerator — no matrix at all: p_ij comes from a shared RowGenerator
//                 closed form (fully eligible by contract, so every row
//                 shares the identity adjacency). Submissions are
//                 METADATA-ONLY (release/weight/deadline; both payload
//                 vectors empty).
// The m-wide row accessor (processing_row) that the indexed dispatch path
// needs is served, for the compact backends, from the 4-slot RowTileCache
// (instance/row_tile.hpp), so the dispatch's row-j + lookahead row-j+1
// pointers never collide. Point lookups (processing_unchecked) NEVER go
// through the tiles: policies probe arbitrary pending ids mid-dispatch while
// holding tile row pointers, so those reads use a per-row binary search
// (CSR) or the closed form (generator) instead.
//
// Ids are dense and monotone: append() assigns 0, 1, 2, ... in submission
// order (a power-of-two block size makes the id → block lookup a shift and
// a mask), and submissions must be non-decreasing in release time (the
// online model's arrival order; Instance sorts batch input the same way).
// Reading a retired job aborts — schedulers only touch pending/running
// jobs, so a read below the frontier is a bug, never a recoverable
// condition.
//
// Validation is instance/job_rules.hpp, the rules Instance applies too, plus
// the store's payload-form rules: one form per submission, metadata-only
// toward a generator, a non-empty payload otherwise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "instance/instance.hpp"
#include "instance/job_rules.hpp"
#include "instance/row_tile.hpp"
#include "instance/stream_job.hpp"
#include "util/check.hpp"

namespace osched::service {

class StreamingJobStore {
 public:
  /// `backend` selects the block representation above. kGenerator requires
  /// a non-null `generator` (the closed form shared with the feeder); the
  /// matrix-backed backends require it null. `jobs_per_block` must be a
  /// power of two.
  explicit StreamingJobStore(
      std::size_t num_machines, std::size_t jobs_per_block = 4096,
      StorageBackend backend = StorageBackend::kDense,
      std::shared_ptr<const RowGenerator> generator = nullptr);

  /// The batch store: a read-only view of `instance`'s buffers (see the
  /// header comment). Keep the Instance alive for the store's lifetime, and
  /// use one store per run: the row tiles are as private to a policy as its
  /// own scratch.
  explicit StreamingJobStore(const Instance& instance);

  std::size_t num_machines() const { return num_machines_; }
  /// Total jobs ever appended (retired jobs included) — the id space size.
  std::size_t num_jobs() const { return num_jobs_; }
  /// First id still stored.
  JobId begin_id() const { return begin_id_; }

  StorageBackend backend() const { return backend_; }
  /// The closed form of a kGenerator store; null otherwise.
  const std::shared_ptr<const RowGenerator>& generator() const {
    return generator_;
  }

  /// Allocation-free structural check of one submission (the hot-path
  /// form): true iff append() would accept the job.
  bool job_ok(const StreamJob& job) const {
    return job_ok_after(job, last_release_);
  }

  /// Diagnostic form of job_ok: empty string = acceptable, else a
  /// description of every problem. Only builds its message machinery when
  /// the job is actually invalid.
  std::string validate_job(const StreamJob& job) const {
    return job_ok(job) ? std::string() : diagnose_after(job, last_release_);
  }

  /// Appends the job and returns its id. Aborts on invalid input — callers
  /// wanting recoverable rejection run job_ok/validate_job first — and on a
  /// borrowed store.
  JobId append(const StreamJob& job);

  /// One validation pass over a whole batch (each job checked against its
  /// in-batch predecessor for release order, the first against the store's
  /// high-water mark). Aborts on the first invalid job, naming its batch
  /// position; the store is not mutated. The amortization behind
  /// SchedulerSession's batch submit: validate once, then append_trusted
  /// per job with no per-job gate.
  void validate_batch(std::span<const StreamJob> jobs) const;

  /// Appends WITHOUT the validity gate — legal only for jobs a
  /// validate_batch pass (or an explicit job_ok) already accepted.
  JobId append_trusted(const StreamJob& job);

  /// Frees every block that lies entirely below `frontier`. Aborts on a
  /// borrowed store.
  void retire_below(JobId frontier);

  /// Bytes currently held in p_ij payload across live blocks: dense rows
  /// and CSR value arrays. Job records, the eligibility adjacency and the
  /// fixed 4-row tile scratch are excluded — this is the
  /// number that collapses for compact backends (a kGenerator store reports
  /// 0 forever, and so does a borrowed store, which holds no payload of its
  /// own). matrix_peak_bytes() is its lifetime high-water mark, the
  /// deterministic per-tenant memory metric the multi-tenant soak tracks.
  std::size_t matrix_bytes() const { return matrix_bytes_; }
  std::size_t matrix_peak_bytes() const { return matrix_peak_bytes_; }

  // ---- Instance-compatible accessor surface (policies are templates over
  // it; semantics match Instance exactly) ----

  const Job& job(JobId j) const {
    const Block& b = block_of(j);
    return b.jobs[offset_of(j)];
  }

  /// Point lookup. NEVER routed through the row tiles: policies call this
  /// with arbitrary pending ids (shed victim scans, queue-key refreshes)
  /// while holding processing_row pointers, and a tile fill here would
  /// clobber the rows those pointers alias.
  Work processing_unchecked(MachineId i, JobId j) const {
    const Block& b = block_of(j);
    if (backend_ == StorageBackend::kDense) {
      return b.processing[offset_of(j) * num_machines_ +
                          static_cast<std::size_t>(i)];
    }
    if (backend_ == StorageBackend::kGenerator) {
      return generator_->entry(j, i);
    }
    const std::size_t offset = offset_of(j);
    const std::size_t begin = b.eligible_offsets[offset];
    return job_rules::csr_lookup(b.eligible + begin, b.csr_p + begin,
                                 b.eligible_offsets[offset + 1] - begin, i);
  }

  /// Job j's contiguous p_{., j} row, same contract as
  /// Instance::processing_row. Dense blocks serve the stored row (rows
  /// never straddle a block boundary); compact backends decompress into the
  /// j % 4 tile slot. The pointer stays valid across reads of rows j and
  /// j+1 and any number of processing_unchecked probes — exactly the
  /// lifetime the dispatch path needs.
  const Work* processing_row(JobId j) const {
    if (backend_ == StorageBackend::kDense) {
      const Block& b = block_of(j);
      return b.processing + offset_of(j) * num_machines_;
    }
    return tile(j).p.data();
  }

  /// Job j's slice of the borrowed Instance's (p, id) order table, same
  /// contract as Instance::p_order_row. Streamed stores have none: sorting
  /// every append would sit on the ingest clock, and a just-appended row is
  /// cache-hot anyway, so the dispatch's ordered path derives the idle
  /// argmin from the double row instead (nullptr selects that sub-path).
  const std::uint16_t* p_order_row(JobId j) const {
    if (p_order_ == nullptr) return nullptr;
    return p_order_ + block_of(j).eligible_offsets[offset_of(j)];
  }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < num_machines_);
    return processing_unchecked(i, j);
  }

  bool eligible(MachineId i, JobId j) const {
    return job_rules::eligible(processing(i, j));
  }

  EligibleMachines eligible_machines(JobId j) const {
    const Block& b = block_of(j);
    if (backend_ != StorageBackend::kGenerator) {
      const std::size_t offset = offset_of(j);
      const std::size_t begin = b.eligible_offsets[offset];
      const std::size_t end = b.eligible_offsets[offset + 1];
      // Every stored row has an eligible machine, so an empty span can only
      // be a full dense row (append_trusted stores no ids for it).
      if (begin != end) {
        return EligibleMachines{b.eligible + begin, b.eligible + end};
      }
    }
    // Fully eligible: generator rows by contract, full dense rows by value.
    return EligibleMachines{identity_, identity_ + num_machines_};
  }

  /// kSparseCsr only: job j's stored values, aligned entry-for-entry with
  /// eligible_machines(j). The checkpoint writer reads rows through this
  /// instead of m probes.
  const Work* csr_values(JobId j) const {
    OSCHED_CHECK(backend_ == StorageBackend::kSparseCsr);
    const Block& b = block_of(j);
    return b.csr_p + b.eligible_offsets[offset_of(j)];
  }

  Work min_processing(JobId j) const;

 private:
  /// The acceptance predicate behind job_ok/validate_batch/append: the
  /// store's payload-form rules, then the shared job rules. `previous` is
  /// the release the job must not precede (the store's high-water mark, or
  /// the preceding job of a batch).
  bool job_ok_after(const StreamJob& job, Time previous) const {
    if (!job_rules::fields_ok(job) ||
        !job_rules::release_order_ok(job.release, previous)) {
      return false;
    }
    const bool has_dense = !job.processing.empty();
    const bool has_sparse = !job.entries.empty();
    if (backend_ == StorageBackend::kGenerator) return !has_dense && !has_sparse;
    if (has_dense == has_sparse) return false;  // both forms, or neither
    return has_dense ? job_rules::dense_row_ok(job.processing, num_machines_)
                     : job_rules::sparse_row_ok(job.entries, num_machines_);
  }
  /// Diagnostic form of job_ok_after: every problem, "" when there is none.
  std::string diagnose_after(const StreamJob& job, Time previous) const;

  /// One block's arrays as the accessors read them: a streamed block's
  /// point into its BlockData (every append re-points them), the borrowed
  /// block's into the Instance's buffers.
  struct Block {
    const Job* jobs = nullptr;
    const Work* processing = nullptr;  ///< kDense: m per job, job-major
    /// Eligibility adjacency (kDense and kSparseCsr). A streamed dense row
    /// whose m entries are all finite stores an empty span and reads as the
    /// shared identity row, like every kGenerator row (which stores
    /// nothing).
    const MachineId* eligible = nullptr;
    const std::size_t* eligible_offsets = nullptr;  ///< one per job, + 1
    /// kSparseCsr: stored p values, aligned with `eligible`.
    const Work* csr_p = nullptr;
  };

  /// A streamed block's storage.
  struct BlockData {
    std::vector<Job> jobs;
    std::vector<Work> processing;
    std::vector<MachineId> eligible;
    std::vector<std::size_t> eligible_offsets;
    std::vector<Work> csr_p;

    Block view() const {
      return Block{jobs.data(), processing.data(), eligible.data(),
                   eligible_offsets.data(), csr_p.data()};
    }
  };

  /// Serves row j from its tile slot, filling it from the block (CSR) or
  /// the closed form (generator) on a miss.
  const RowTileCache::Row& tile(JobId j) const;

  /// p-payload bytes a block currently holds (the matrix_bytes unit).
  std::size_t block_matrix_bytes(const BlockData& block) const {
    return (block.processing.size() + block.csr_p.size()) * sizeof(Work);
  }
  void bump_matrix_bytes(std::size_t bytes) {
    matrix_bytes_ += bytes;
    matrix_peak_bytes_ = std::max(matrix_peak_bytes_, matrix_bytes_);
  }
  void release_block(std::size_t b) {
    matrix_bytes_ -= block_matrix_bytes(data_[b]);
    data_[b] = BlockData{};
    blocks_[b] = Block{};
  }

  const Block& block_of(JobId j) const {
    OSCHED_CHECK(j >= begin_id_ && static_cast<std::size_t>(j) < num_jobs_)
        << "job " << j << " outside the live store window [" << begin_id_
        << ", " << num_jobs_ << ")";
    return blocks_[static_cast<std::size_t>(j) >> block_shift_];
  }

  std::size_t offset_of(JobId j) const {
    return static_cast<std::size_t>(j) & (jobs_per_block_ - 1);
  }

  std::size_t num_machines_;
  /// A power of two; block_shift_ is its log2.
  std::size_t jobs_per_block_;
  int block_shift_ = 0;
  StorageBackend backend_ = StorageBackend::kDense;
  std::shared_ptr<const RowGenerator> generator_;
  /// Set by the Instance constructor: append and retire_below abort.
  bool borrowed_ = false;
  /// A streamed kDense or kGenerator store's 0..m-1 adjacency, which every
  /// generator row and every full dense row shares (kSparseCsr rows are all
  /// explicit). identity_ points at it, or at the borrowed Instance's.
  std::vector<MachineId> identity_machines_;
  const MachineId* identity_ = nullptr;
  /// The borrowed Instance's (p, id) order table, sliced like the
  /// adjacency; null for streamed stores and where the Instance has none.
  const std::uint16_t* p_order_ = nullptr;
  std::size_t num_jobs_ = 0;
  JobId begin_id_ = 0;
  /// Release of the last appended job; -infinity before the first.
  Time last_release_ = -kTimeInfinity;
  /// blocks_[b] reads ids [b*B, (b+1)*B), and data_[b] holds them for a
  /// streamed store (a borrowed store has no data_); retirement frees
  /// data_[b] and nulls blocks_[b].
  std::vector<Block> blocks_;
  std::vector<BlockData> data_;
  /// Compact-backend row cache. Mutable: serving a row is logically const.
  mutable RowTileCache tiles_;
  std::size_t matrix_bytes_ = 0;
  std::size_t matrix_peak_bytes_ = 0;
};

}  // namespace osched::service

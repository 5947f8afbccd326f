// Streaming job store: the growable, prefix-retirable counterpart of
// Instance.
//
// A SchedulerSession ingests jobs one at a time, in release order, and the
// policies read job data through exactly the accessor surface Instance
// exposes (job / processing_unchecked / eligible_machines / ...). The store
// keeps that data in fixed-size blocks so that once every job of a block is
// decided and folded, the whole block's memory is handed back — the live
// footprint tracks the in-flight window, not the full trace.
//
// Storage backends (the PR-5 batch trio, carried through the service layer):
//  * kDense     — each block holds a job-major m-wide double matrix plus a
//                 lazily filled float_lower shadow. The compatibility hot
//                 path; accepts dense AND sparse submission forms (sparse
//                 entries scatter into an infinity-filled row).
//  * kSparseCsr — each block stores only the eligible (machine, p) entries,
//                 as a values array aligned with the eligibility adjacency
//                 the store keeps anyway. A restricted-assignment job costs
//                 O(eligible), never O(m). Accepts both submission forms
//                 (a dense row is compacted on append).
//  * kGenerator — no matrix at all: p_ij comes from a shared RowGenerator
//                 closed form (fully eligible by contract). Submissions are
//                 METADATA-ONLY (release/weight/deadline; both payload
//                 vectors empty).
// The m-wide row accessors (processing_row / bounds_row) that the indexed
// dispatch path needs are served, for the compact backends, from the
// 4-slot RowTileCache (instance/row_tile.hpp) the batch InstanceView uses
// too, so the dispatch's row-j + lookahead row-j+1
// pointers never collide. Point lookups (processing_unchecked) NEVER go
// through the tiles: policies probe arbitrary pending ids mid-dispatch
// while holding tile row pointers, so those reads use a per-row binary
// search (CSR) or the closed form (generator) instead.
//
// Ids are dense and monotone: append() assigns 0, 1, 2, ... in submission
// order, and submissions must be non-decreasing in release time (the online
// model's arrival order; Instance sorts batch input the same way). Reading
// a retired job aborts — schedulers only touch pending/running jobs, so a
// read below the frontier is a bug, never a recoverable condition.
#pragma once

#include <algorithm>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "instance/instance.hpp"
#include "instance/row_tile.hpp"
#include "instance/stream_job.hpp"
#include "util/check.hpp"

namespace osched::service {

class StreamingJobStore {
 public:
  /// `backend` selects the block representation above. kGenerator requires
  /// a non-null `generator` (the closed form shared with the feeder); the
  /// matrix-backed backends require it null.
  explicit StreamingJobStore(
      std::size_t num_machines, std::size_t jobs_per_block = 4096,
      StorageBackend backend = StorageBackend::kDense,
      std::shared_ptr<const RowGenerator> generator = nullptr);

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
  bool job_ok(const StreamJob& job) const { return check_job(job, nullptr); }

  /// Diagnostic form of job_ok: empty string = acceptable, else a
  /// description of every problem. Only builds its message machinery when
  /// the job is actually invalid.
  std::string validate_job(const StreamJob& job) const;

  /// Appends the job and returns its id. Aborts on invalid input — callers
  /// wanting recoverable rejection run job_ok/validate_job first.
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

  /// Frees every block that lies entirely below `frontier`.
  void retire_below(JobId frontier);

  /// Bytes currently held in p_ij payload across live blocks: dense rows,
  /// float shadows and CSR value arrays. Job records, the eligibility
  /// adjacency and the fixed 4-row tile scratch are excluded — this is the
  /// number that collapses for compact backends (a kGenerator store reports
  /// 0 forever). matrix_peak_bytes() is its lifetime high-water mark, the
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
    const MachineId* base = b.eligible.data();
    const MachineId* begin = base + b.eligible_offsets[offset];
    const MachineId* end = base + b.eligible_offsets[offset + 1];
    const MachineId* it = std::lower_bound(begin, end, i);
    if (it == end || *it != i) return kTimeInfinity;
    return b.csr_p[static_cast<std::size_t>(it - base)];
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
      return b.processing.data() + offset_of(j) * num_machines_;
    }
    return tile(j).p.data();
  }

  /// Rounded-down float32 shadow row, same contract as
  /// Instance::bounds_row. Dense blocks fill LAZILY: append() never touches
  /// the shadow (the fill used to be ~40% of its cost); the first
  /// bounds_row() on a block allocates the block's shadow and fills every
  /// row up to j in one contiguous, vectorized conversion loop. Runs that
  /// never read bounds (linear-scan dispatch) never pay for — or allocate —
  /// the shadow at all. Compact backends fill p and bounds together into
  /// the same tile slot, so bounds_row(j) after processing_row(j) is a hit,
  /// not a refill.
  const float* bounds_row(JobId j) const {
    if (backend_ == StorageBackend::kDense) {
      const Block& b = block_of(j);
      const std::size_t offset = offset_of(j);
      if (offset >= b.bounds_rows_filled) fill_bounds(b, offset);
      return b.bounds.data() + offset * num_machines_;
    }
    return tile(j).bounds.data();
  }

  /// Streaming stores have no precomputed (p, id) order: sorting every
  /// append would sit on the ingest clock, and a just-appended row is
  /// cache-hot anyway, so the dispatch's ordered path derives the idle
  /// argmin from the shadow row instead (nullptr selects that sub-path).
  const std::uint16_t* p_order_row(JobId /*j*/) const { return nullptr; }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < num_machines_);
    return processing_unchecked(i, j);
  }

  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }

  EligibleMachines eligible_machines(JobId j) const {
    const Block& b = block_of(j);
    if (backend_ == StorageBackend::kGenerator) {
      // Fully eligible by contract: every generator row is the identity.
      return EligibleMachines{identity_machines_.data(),
                              identity_machines_.data() + num_machines_};
    }
    const std::size_t offset = offset_of(j);
    const MachineId* base = b.eligible.data();
    return EligibleMachines{base + b.eligible_offsets[offset],
                            base + b.eligible_offsets[offset + 1]};
  }

  /// kSparseCsr only: job j's stored values, aligned entry-for-entry with
  /// eligible_machines(j). The checkpoint writer reads rows through this
  /// instead of m probes.
  const Work* csr_values(JobId j) const {
    OSCHED_CHECK(backend_ == StorageBackend::kSparseCsr);
    const Block& b = block_of(j);
    return b.csr_p.data() + b.eligible_offsets[offset_of(j)];
  }

  Work min_processing(JobId j) const;

 private:
  /// The one validation predicate behind job_ok/validate_job/append: null
  /// sink = fast boolean short-circuit, non-null = collect every problem.
  /// `last_release` is the release the job must not precede (the store's
  /// high-water mark, or the preceding job of a batch); `have_last` is
  /// false for the very first submission.
  bool check_job_after(const StreamJob& job, Time last_release, bool have_last,
                       std::ostringstream* problems) const;
  bool check_job(const StreamJob& job, std::ostringstream* problems) const {
    return check_job_after(job, last_release_, num_jobs_ > 0, problems);
  }

  struct Block {
    std::vector<Job> jobs;
    std::vector<Work> processing;  ///< kDense: jobs.size() * m, job-major
    /// float_lower shadow of processing, lazily materialized (bounds_row).
    mutable std::vector<float> bounds;
    mutable std::size_t bounds_rows_filled = 0;
    /// Eligibility adjacency (kDense and kSparseCsr; kGenerator rows are
    /// implicitly the identity and store nothing).
    std::vector<MachineId> eligible;
    std::vector<std::uint32_t> eligible_offsets;  ///< jobs.size() + 1
    /// kSparseCsr: stored p values, aligned with `eligible`.
    std::vector<Work> csr_p;
  };

  /// Serves row j from its tile slot, filling it from the block (CSR) or
  /// the closed form (generator) on a miss.
  const RowTileCache::Row& tile(JobId j) const;

  /// Extends the block's shadow through row `offset` (see bounds_row).
  void fill_bounds(const Block& block, std::size_t offset) const;

  /// p-payload bytes a block currently holds (the matrix_bytes unit).
  std::size_t block_matrix_bytes(const Block& block) const {
    return block.processing.size() * sizeof(Work) +
           block.bounds.size() * sizeof(float) +
           block.csr_p.size() * sizeof(Work);
  }
  void bump_matrix_bytes(std::size_t bytes) const {
    matrix_bytes_ += bytes;
    matrix_peak_bytes_ = std::max(matrix_peak_bytes_, matrix_bytes_);
  }
  void release_block(std::unique_ptr<Block>& block) {
    if (block == nullptr) return;
    matrix_bytes_ -= block_matrix_bytes(*block);
    block.reset();
  }

  const Block& block_of(JobId j) const {
    OSCHED_CHECK(j >= begin_id_ && static_cast<std::size_t>(j) < num_jobs_)
        << "job " << j << " outside the live store window [" << begin_id_
        << ", " << num_jobs_ << ")";
    const Block* block =
        blocks_[static_cast<std::size_t>(j) / jobs_per_block_].get();
    return *block;
  }

  std::size_t offset_of(JobId j) const {
    return static_cast<std::size_t>(j) % jobs_per_block_;
  }

  std::size_t num_machines_;
  std::size_t jobs_per_block_;
  StorageBackend backend_ = StorageBackend::kDense;
  std::shared_ptr<const RowGenerator> generator_;
  /// kGenerator: the identity adjacency row every job shares.
  std::vector<MachineId> identity_machines_;
  std::size_t num_jobs_ = 0;
  JobId begin_id_ = 0;
  Time last_release_ = 0.0;
  /// blocks_[b] covers ids [b*B, (b+1)*B); retired blocks are null.
  std::vector<std::unique_ptr<Block>> blocks_;
  /// Compact-backend row cache. Mutable: serving a row is logically const.
  mutable RowTileCache tiles_;
  mutable std::size_t matrix_bytes_ = 0;
  mutable std::size_t matrix_peak_bytes_ = 0;
};

}  // namespace osched::service

// The job store every policy reads job data through, batch and streamed.
//
// A SchedulerSession ingests jobs one at a time, in release order, and the
// policies read job data through exactly the accessor surface Instance
// exposes (job / processing_unchecked / eligible_machines / ...). The store
// keeps that data in fixed-size blocks so that once every job of a block is
// decided and folded, the whole block's memory is handed back — the live
// footprint tracks the in-flight window, not the full trace.
//
// An Instance keeps its data in a store too: it appends its release-sorted
// jobs through the same row writer (append_trusted) into one block, then
// calls build_p_order for the (p, id) machine order prefix that batch
// dispatch walks: each job's kPOrderPrefix cheapest eligible machines.
// Copies of a store share its blocks and order table and own their row
// tiles: a batch run copies its Instance's store, and an append to a block
// another copy still holds clones the block first.
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

#include "instance/job.hpp"
#include "instance/job_rules.hpp"
#include "instance/row_tile.hpp"
#include "instance/storage.hpp"
#include "instance/stream_job.hpp"
#include "util/check.hpp"

namespace osched::service {

class StreamingJobStore {
 public:
  /// Entries of each job's (p, id) machine order that build_p_order keeps,
  /// at most 64 bytes of uint16 ids per job. Batch dispatch walks the order
  /// only while few machines are busy (RejectionFlowPolicy static_asserts
  /// this against its cutover), so it reads near the head.
  static constexpr std::size_t kPOrderPrefix = 32;

  /// `backend` selects the block representation above. kGenerator requires
  /// a non-null `generator` (the closed form shared with the feeder); the
  /// matrix-backed backends require it null. `jobs_per_block` must be a
  /// power of two.
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
  /// wanting recoverable rejection run job_ok/validate_job first — and
  /// after build_p_order.
  JobId append(const StreamJob& job);

  /// One validation pass over a whole batch (each job checked against its
  /// in-batch predecessor for release order, the first against the store's
  /// high-water mark). Aborts on the first invalid job, naming its batch
  /// position; the store is not mutated. The amortization behind
  /// SchedulerSession's batch submit: validate once, then append_trusted
  /// per job with no per-job gate.
  void validate_batch(std::span<const StreamJob> jobs) const;

  /// Appends WITHOUT the validity gate — legal only for jobs a
  /// validate_batch pass (or an explicit job_ok) already accepted, and for
  /// an Instance's jobs, whose verdict validate() reports instead (it
  /// passes a sparse row only its well-formed machine ids, so nothing is
  /// written out of bounds). The one writer of job rows: every append,
  /// batch or streamed, lands here.
  JobId append_trusted(const StreamJob& job);

  /// Room for `num_entries` more listed machine ids (and, for kSparseCsr,
  /// their values) in the block the next append writes, so a builder that
  /// knows its total (Instance::from_sparse_rows) grows them once.
  void reserve_entries(std::size_t num_entries);

  /// Builds the (p, id) order prefix over every stored job, once, after
  /// the last append (an Instance's builders call it; streamed stores never
  /// do, since selecting on every append would sit on the ingest clock).
  /// Each job keeps the first min(|eligible|, kPOrderPrefix) entries of its
  /// eligible machines sorted by (p, id) over packed keys, as uint16 ids,
  /// chosen in one O(|eligible|) selection pass. Builds nothing for
  /// kGenerator (selecting would materialize the row work the backend
  /// avoids), at m >= 65536 (ids no longer fit uint16), or when no job has
  /// an eligible machine.
  void build_p_order();

  /// Frees every block that lies entirely below `frontier`.
  void retire_below(JobId frontier);

  /// Exact bytes of the stored representation: job records, dense rows,
  /// CSR values, adjacency and its offsets, the identity row and the order
  /// prefix with its lengths. The row tiles are scratch and are not counted.
  std::size_t store_bytes() const;

  /// Bytes currently held in p_ij payload across live blocks: dense rows
  /// and CSR value arrays. Job records, the eligibility adjacency and the
  /// fixed 4-row tile scratch are excluded — this is the
  /// number that collapses for compact backends (a kGenerator store reports
  /// 0 forever). matrix_peak_bytes() is its lifetime high-water mark, the
  /// deterministic per-tenant memory metric the multi-tenant soak tracks.
  std::size_t matrix_bytes() const { return matrix_bytes_; }
  std::size_t matrix_peak_bytes() const { return matrix_peak_bytes_; }

  // ---- Instance-compatible accessor surface (policies are templates over
  // it; semantics match Instance exactly) ----

  const Job& job(JobId j) const { return block_of(j).jobs[offset_of(j)]; }

  /// The job records of j's block in id order: every record, for a store
  /// whose jobs share one block (an Instance's).
  const std::vector<Job>& block_jobs(JobId j) const {
    return block_of(j).jobs;
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
    return job_rules::csr_lookup(b.eligible.data() + begin,
                                 b.csr_p.data() + begin,
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
      return block_of(j).processing.data() + offset_of(j) * num_machines_;
    }
    return tile(j).p.data();
  }

  /// Job j's (p, id) order prefix (build_p_order): its min(|eligible|,
  /// kPOrderPrefix) cheapest eligible machines in (p, id) order, same
  /// contract as Instance::p_order_row. Streamed stores have none, and a
  /// just-appended row is cache-hot anyway, so the dispatch's ordered path
  /// derives the idle argmin from the double row instead (a span with a
  /// null data() selects that sub-path). Reads no block: the table's fixed
  /// stride and the stored length locate the row.
  std::span<const std::uint16_t> p_order_row(JobId j) const {
    if (p_order_ == nullptr) return {};
    const auto row = static_cast<std::size_t>(j);
    return {p_order_->ids.data() + row * p_order_->stride,
            p_order_->lengths[row]};
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
      const MachineId* ids = b.eligible.data();
      const std::size_t begin = b.eligible_offsets[offset];
      const std::size_t end = b.eligible_offsets[offset + 1];
      // A dense row lists no ids when every entry is finite (append_trusted
      // stores none for it) or, in an invalid Instance only, when none is;
      // then its first entry tells the two apart. Sparse rows are all
      // explicit.
      if (begin != end || backend_ == StorageBackend::kSparseCsr ||
          (has_ineligible_rows_ &&
           !job_rules::eligible(b.processing[offset * num_machines_]))) {
        return EligibleMachines{ids + begin, ids + end};
      }
    }
    // Fully eligible: generator rows by contract, full dense rows by value.
    const MachineId* identity = identity_machines_.data();
    return EligibleMachines{identity, identity + num_machines_};
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

  /// One block's storage: jobs [b*B, (b+1)*B) of a streamed store, or all
  /// of an Instance's.
  struct Block {
    std::vector<Job> jobs;
    std::vector<Work> processing;  ///< kDense: m per job, job-major
    /// Eligibility adjacency (kDense and kSparseCsr). A dense row whose m
    /// entries are all finite stores an empty span and reads as the shared
    /// identity row, like every kGenerator row (which stores nothing).
    std::vector<MachineId> eligible;
    std::vector<std::size_t> eligible_offsets;  ///< one per job, + 1
    /// kSparseCsr: stored p values, aligned with `eligible`.
    std::vector<Work> csr_p;
  };

  /// build_p_order's table: ids[j * stride, + lengths[j]) is job j's
  /// order prefix; stride is the longest prefix, at most kPOrderPrefix.
  struct POrderTable {
    std::vector<std::uint16_t> ids;
    std::vector<std::uint8_t> lengths;
    std::size_t stride = 0;
  };

  /// The block the next append writes: opened on a block boundary, cloned
  /// first while a copy of this store still holds it. Aborts once the
  /// order table is built (the table would not cover the new job).
  Block& tail_block();

  /// Serves row j from its tile slot, filling it from the block (CSR) or
  /// the closed form (generator) on a miss.
  const RowTileCache::Row& tile(JobId j) const;

  /// p-payload bytes a block currently holds (the matrix_bytes unit).
  std::size_t block_matrix_bytes(const Block& block) const {
    return (block.processing.size() + block.csr_p.size()) * sizeof(Work);
  }
  void bump_matrix_bytes(std::size_t bytes) {
    matrix_bytes_ += bytes;
    matrix_peak_bytes_ = std::max(matrix_peak_bytes_, matrix_bytes_);
  }
  void release_block(std::size_t b) {
    matrix_bytes_ -= block_matrix_bytes(*blocks_[b]);
    blocks_[b].reset();
  }

  const Block& block_of(JobId j) const {
    OSCHED_CHECK(j >= begin_id_ && static_cast<std::size_t>(j) < num_jobs_)
        << "job " << j << " outside the live store window [" << begin_id_
        << ", " << num_jobs_ << ")";
    return *blocks_[static_cast<std::size_t>(j) >> block_shift_];
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
  /// A kDense or kGenerator store's 0..m-1 adjacency, which every generator
  /// row and every full dense row shares (kSparseCsr rows are all
  /// explicit).
  std::vector<MachineId> identity_machines_;
  /// Set once a dense row with no finite entry is stored (only an invalid
  /// Instance stores one): then an empty adjacency span can mean "no
  /// machine" as well as "every machine".
  bool has_ineligible_rows_ = false;
  /// Null until build_p_order builds one; shared by copies.
  std::shared_ptr<const POrderTable> p_order_;
  std::size_t num_jobs_ = 0;
  JobId begin_id_ = 0;
  /// Release of the last appended job; -infinity before the first.
  Time last_release_ = -kTimeInfinity;
  /// blocks_[b] holds ids [b*B, (b+1)*B), shared with the store's copies;
  /// retirement drops this store's hold on it.
  std::vector<std::shared_ptr<Block>> blocks_;
  /// Compact-backend row cache. Mutable: serving a row is logically const.
  mutable RowTileCache tiles_;
  std::size_t matrix_bytes_ = 0;
  std::size_t matrix_peak_bytes_ = 0;
};

}  // namespace osched::service

// Unrelated-machines problem instance — a façade over one job store.
//
// The paper states the model over an n×m matrix of per-machine processing
// requirements p_ij (+infinity marks "job j cannot run on machine i",
// restricted assignment). How that matrix is *stored* is a backend choice
// (instance/storage.hpp):
//
//  * kDense     — one flat job-major buffer (a job's p_ij across machines is
//                 contiguous, the access pattern of the dispatch scans); a
//                 row with every entry finite shares one identity adjacency.
//  * kSparseCsr — eligible entries only, CSR over the eligibility
//                 adjacency, so a restricted-assignment family at
//                 eligibility q costs ~q of the dense bytes.
//  * kGenerator — no matrix at all: p_ij is synthesized on demand from a
//                 workload family's closed form (RowGenerator). Fully
//                 eligible by contract; huge-m sweeps never materialize n×m.
//
// An Instance keeps no buffers of its own: each builder sorts the jobs by
// (release, id), computes validate()'s verdict, and appends every job
// through service::StreamingJobStore's row writer — the one a streaming
// session uses — into a single block, then has the store build the (p, id)
// machine order prefix (dense and sparse, below 65536 machines). The store
// is held by shared_ptr<const>, so copies of an Instance share it and
// outlive nothing. Every backend answers the same façade accessors with
// identical values, and the schedulers make bit-identical decisions over
// all three — tests/storage_backend_test.cpp pins that down
// differentially. Policies run on a copy of store(): the copy shares the
// blocks read-only and has its own row tiles, so a const Instance can be
// run from several threads.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "instance/job.hpp"
#include "instance/job_rules.hpp"
#include "instance/storage.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace osched {

namespace service {
class StreamingJobStore;
}

class Instance {
 public:
  /// No jobs, no machines and no store: cheap to build and to assign over.
  Instance() = default;

  /// Dense backend. `processing[i][j]` is p_ij; every row must have
  /// `jobs.size()` entries. Jobs are re-sorted by (release, id) and
  /// re-numbered 0..n-1; the matrix columns are permuted accordingly, so
  /// callers can build in any order.
  Instance(std::vector<Job> jobs, std::vector<std::vector<Work>> processing);

  /// Sparse-CSR backend. `rows[k]` lists job k's eligible machines with
  /// their finite p entries, strictly ascending by machine index; an entry
  /// whose machine is out of range, duplicated or out of order is reported
  /// by validate() and not stored. Jobs are re-sorted/re-numbered exactly
  /// like the dense constructor (rows are permuted along). The n×m matrix
  /// is never materialized: memory is O(total eligible entries).
  static Instance from_sparse_rows(std::vector<Job> jobs,
                                   std::size_t num_machines,
                                   std::vector<std::vector<SparseEntry>> rows);

  /// Generator backend. `jobs` must already be sorted by (release, id) —
  /// the generator is indexed by final job id, so there is no permutation
  /// to hide behind (validate() reports a release out of order); ids are
  /// renumbered 0..n-1 in place. Entry validity (finite, positive, fully
  /// eligible) is the generator's contract and is NOT scanned here:
  /// scanning would materialize exactly the n×m work this backend exists
  /// to avoid. validate() covers the job fields and their
  /// release order only.
  static Instance from_generator(std::vector<Job> jobs,
                                 std::size_t num_machines,
                                 std::shared_ptr<const RowGenerator> generator);

  /// Rebuilds this instance under another backend, preserving every p_ij
  /// bit for bit (the conversion behind the differential wall). Conversions
  /// TO kGenerator are only legal when this instance already is one (there
  /// is no closed form to recover from a matrix).
  Instance with_backend(StorageBackend target) const;

  StorageBackend backend() const;

  /// The job store holding this instance's data. Batch runs copy it: the
  /// copy shares every block and the order table read-only and owns its
  /// row tiles, so concurrent runs over one const Instance never share
  /// mutable state. Aborts on a default-constructed Instance.
  const service::StreamingJobStore& store() const;

  /// Exact byte footprint of the stored representation (matrix payload,
  /// order table, adjacency, job records): store().store_bytes().
  /// Deterministic for a given instance — bench reports treat it as an
  /// exact-match metric.
  std::size_t store_bytes() const;

  std::size_t num_jobs() const;
  std::size_t num_machines() const;

  const Job& job(JobId j) const;
  const std::vector<Job>& jobs() const;

  /// p_ij with both indices CHECKed.
  Work processing(MachineId i, JobId j) const;

  /// p_ij without the machine-index CHECK, for validated loops (the duality
  /// checkers' constraint sweeps, metrics evaluation). Callers must have
  /// established 0 <= i < num_machines() and 0 <= j < num_jobs(). Dense:
  /// one load. Sparse: binary search of the job's adjacency slice
  /// (kTimeInfinity on a miss). Generator: one closed-form evaluation.
  /// Scheduling hot paths do NOT come through here — they run on a copy of
  /// store().
  Work processing_unchecked(MachineId i, JobId j) const;

  /// Job j's contiguous p_{., j} row. DENSE BACKEND ONLY (the other
  /// backends have no materialized row to point into — hot-path row access
  /// goes through a copy of store(), whose row tiles serve them).
  const Work* processing_row(JobId j) const;

  /// The first min(|eligible|, StreamingJobStore::kPOrderPrefix) of job
  /// j's eligible machines sorted by (p_ij, machine id) ascending, as
  /// uint16 ids — built once at construction for the dense and sparse
  /// backends. An empty span with a null data() when there is no table:
  /// generator backend (selecting would materialize the row work the
  /// backend avoids), empty instances, and m >= 65536 (ids no longer fit
  /// uint16). Aborts on an id outside [0, num_jobs()) of a non-empty
  /// instance.
  std::span<const std::uint16_t> p_order_row(JobId j) const;

  /// Machine-id width of the order table in bits: 16 when it exists, 0 when
  /// it does not (see p_order_row) — then dispatch derives the idle argmin
  /// from the row instead of the indexed idle-machine walk. Surfaced
  /// through api::RunSummary::dispatch_order_width for Theorem 1 runs so
  /// perf baselines are attributable to the code path that produced them.
  int dispatch_order_width() const;

  bool eligible(MachineId i, JobId j) const {
    return job_rules::eligible(processing(i, j));
  }

  /// The machines that can run j (finite p_ij), ascending machine index.
  /// Rows with every machine eligible (all generator rows) share one
  /// 0..m-1 identity row.
  EligibleMachines eligible_machines(JobId j) const;

  /// min_i p_ij — the fastest any machine can serve j. Used by lower bounds.
  Work min_processing(JobId j) const;

  /// max p_ij / min p_ij over all finite entries (the paper's Delta).
  /// Generator backend: evaluates the closed form over the full n×m grid —
  /// an analysis-only accessor, not a scheduling path.
  double processing_spread() const;

  Weight total_weight() const;

  /// The closed-form source of a generator-backed instance.
  const RowGenerator& generator() const { return *shared_generator(); }

  /// The same closed form as a shareable handle — the value to hand to
  /// SessionOptions::generator / SchedulerSession::restore when streaming
  /// this instance's jobs into a generator-backed session.
  const std::shared_ptr<const RowGenerator>& shared_generator() const;

  /// Structural sanity under the job rules of instance/job_rules.hpp (the
  /// ones the streaming store applies too): job fields, plus the dense-row
  /// or sparse-row rules for the matrix backends and the release-order rule
  /// for generator instances, whose entries are not scanned (see
  /// from_generator). Returns an empty string when valid, else every
  /// problem, grouped per job behind "job j: ". O(1): the verdict is
  /// computed once, during construction.
  std::string validate() const;

  /// Aborts with validate()'s problems unless the instance is valid: the
  /// gate every batch entry point runs first.
  void check_valid() const;

 private:
  /// Has `store` build its order table after a builder's last append, then
  /// takes it and validate()'s verdict.
  void adopt(std::shared_ptr<service::StreamingJobStore> store,
             std::string problems);

  /// Every job record, the matrix in its backend's layout and the order
  /// table, in one block; null for a default-constructed Instance.
  std::shared_ptr<const service::StreamingJobStore> store_;
  /// validate()'s cached verdict, filled at construction.
  std::string validation_problems_;
};

}  // namespace osched

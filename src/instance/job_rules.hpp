// What makes a submitted job valid: the one rule set behind Instance (every
// backend) and service::StreamingJobStore. The paper's model (Section 1):
// each p_ij is finite and positive, or +infinity where job j cannot run on
// machine i; each job has an eligible machine, a finite release >= 0 and a
// finite weight > 0; a deadline lies after the release. Four rule sets —
// job fields, dense rows, sparse rows, release order — each in an inline
// boolean fast form (no sink) and a diagnostic form that writes every
// problem to a stream as "<problem>; ". Owners run the diagnostic form only
// after the fast form failed, so valid input builds no message. Comparisons
// are written so that NaN fails every rule (p > 0.0 is false for NaN, true
// for +infinity).
#pragma once

#include <algorithm>
#include <cstddef>
#include <iosfwd>
#include <span>

#include "instance/job.hpp"
#include "util/types.hpp"

namespace osched::job_rules {

/// +infinity marks an ineligible machine.
inline bool eligible(Work p) { return p < kTimeInfinity; }

/// Job fields, for Job and StreamJob alike.
template <class JobT>
bool fields_ok(const JobT& job) {
  return job.release >= 0.0 && job.release < kTimeInfinity &&
         job.weight > 0.0 && job.weight < kTimeInfinity &&
         job.deadline > job.release;
}
void diagnose_fields(Time release, Weight weight, Time deadline,
                     std::ostream& out);

/// Dense row, one pass with one predictable branch per entry: m entries,
/// all > 0, any finite. (An all-flags form measured slower: the compiler
/// keeps NaN-trapping compares scalar, so it only adds a dependency chain.)
inline bool dense_row_ok(std::span<const Work> row, std::size_t num_machines) {
  if (row.size() != num_machines) return false;
  bool any_eligible = false;
  for (const Work p : row) {
    if (!(p > 0.0)) return false;
    any_eligible |= eligible(p);
  }
  return any_eligible;
}
void diagnose_dense_row(std::span<const Work> row, std::size_t num_machines,
                        std::ostream& out);

/// Sparse entry id: in range and above `previous`, the last id kept
/// (kInvalidMachine before the first). Instance stores exactly these.
inline bool sparse_id_ok(MachineId machine, MachineId previous,
                         std::size_t num_machines) {
  return machine > previous &&
         static_cast<std::size_t>(machine) < num_machines;
}

/// Sparse row: non-empty, ids strictly ascending in range, every p finite
/// and > 0 (a listed entry is eligible, so +infinity is malformed).
inline bool sparse_row_ok(std::span<const SparseEntry> entries,
                          std::size_t num_machines) {
  MachineId previous = kInvalidMachine;
  for (const SparseEntry& entry : entries) {
    if (!sparse_id_ok(entry.machine, previous, num_machines) ||
        !(entry.p > 0.0 && eligible(entry.p))) {
      return false;
    }
    previous = entry.machine;
  }
  return !entries.empty();
}
void diagnose_sparse_row(std::span<const SparseEntry> entries,
                         std::size_t num_machines, std::ostream& out);

/// Release order: `previous` is the release the job must not precede
/// (-infinity for the first job).
inline bool release_order_ok(Time release, Time previous) {
  return !(release < previous);
}
void diagnose_release_order(Time release, Time previous, std::ostream& out);

/// p of machine i in one CSR row (`ids` ascending, `values` aligned with
/// them); +infinity when i is not listed.
inline Work csr_lookup(const MachineId* ids, const Work* values,
                       std::size_t count, MachineId i) {
  const MachineId* hit = std::lower_bound(ids, ids + count, i);
  return hit != ids + count && *hit == i ? values[hit - ids] : kTimeInfinity;
}

}  // namespace osched::job_rules

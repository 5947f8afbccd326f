// The vocabulary of p_ij storage, shared by Instance (instance/instance.hpp)
// and the job store that holds its data (service/job_store.hpp): which
// representation a matrix is kept in, how a job's eligible machines are
// handed out, and the closed-form row source of the generator backend.
#pragma once

#include <cstddef>

#include "util/types.hpp"

namespace osched {

/// Lightweight view over one job's eligible machines (ascending machine
/// index, the same order the dispatch loops used to scan). Iterable:
///   for (MachineId i : instance.eligible_machines(j)) ...
struct EligibleMachines {
  const MachineId* first = nullptr;
  const MachineId* last = nullptr;

  const MachineId* begin() const { return first; }
  const MachineId* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// Which representation an Instance keeps its p_ij matrix in. The choice
/// never changes any scheduling outcome — only memory footprint and the
/// constant factors of the accessors.
enum class StorageBackend {
  kDense,      ///< flat job-major n×m buffer (+ order table)
  kSparseCsr,  ///< eligible entries only, CSR over the adjacency
  kGenerator,  ///< p_ij synthesized on demand from a closed form
};

const char* to_string(StorageBackend backend);

/// Closed-form p_ij source for generator-backed instances.
///
/// Contract: entry(j, i) is a PURE function of (j, i) — no internal state —
/// returning a finite positive processing time for every machine (generator
/// instances are fully eligible; restricted families belong to the sparse
/// backend, whose adjacency is explicit). `j` is the final, release-sorted
/// job id. Purity is what makes the backend exchangeable: materializing the
/// same generator into a dense or sparse instance reproduces every double
/// bit for bit, which the storage differential wall asserts.
class RowGenerator {
 public:
  virtual ~RowGenerator() = default;

  virtual Work entry(JobId j, MachineId i) const = 0;

  /// Fills one whole row (m entries). Override when the family can batch
  /// per-row work (e.g. hoisting the job-dependent factors out of the
  /// machine loop); the default just loops entry().
  virtual void fill_row(JobId j, std::size_t num_machines, Work* out) const {
    for (std::size_t i = 0; i < num_machines; ++i) {
      out[i] = entry(j, static_cast<MachineId>(i));
    }
  }
};

}  // namespace osched

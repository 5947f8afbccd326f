// Job model shared by all three problems in the paper.
//
// A job carries a release time, a weight (1.0 in the unweighted flow-time
// problem of Theorem 1), an optional deadline (only the energy-minimization
// problem of Theorem 3 uses deadlines), and a per-machine processing
// requirement stored in the owning Instance:
//   * Theorem 1: p_ij is a processing *time* (machine runs at unit speed);
//   * Theorems 2/3: p_ij is a processing *volume* (time = volume / speed).
#pragma once

#include "util/types.hpp"

namespace osched {

struct Job {
  JobId id = kInvalidJob;
  Time release = 0.0;
  Weight weight = 1.0;
  /// +infinity when the problem has no deadlines.
  Time deadline = kTimeInfinity;

  bool has_deadline() const { return deadline < kTimeInfinity; }
};

/// One eligible entry of a sparse job row: machine index + finite p_ij.
struct SparseEntry {
  MachineId machine = kInvalidMachine;
  Work p = 0.0;
};

}  // namespace osched

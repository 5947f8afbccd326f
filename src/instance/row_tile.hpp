// The m-wide row-tile cache of service::StreamingJobStore's compact
// backends.
//
// The policies read machine-indexed rows (processing_row). A sparse-CSR or
// generator store has no such row in memory, so it builds one on demand: the
// exact doubles, filled into one of four direct-mapped slots (slot = j % 4).
// A dispatch touches rows j and j+1, which land in different slots, so the
// row-j pointers it holds survive the lookahead fill; rows j..j+3 can be
// held at once.
//
// Ineligible machines read as +infinity — exactly the value a dense buffer
// holds for them — so a policy sweeping a tile sees the same bits it would
// see over a dense row.
//
// The cache only fills and finds rows. Its owner decides when a hit may be
// served (the store refuses rows whose block was retired) and keeps point
// lookups off the tiles (see service/job_store.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "instance/storage.hpp"

namespace osched {

class RowTileCache {
 public:
  struct Row {
    JobId id = kInvalidJob;
    std::vector<Work> p;
  };

  explicit RowTileCache(std::size_t num_machines) : m_(num_machines) {}

  /// Row j if its slot holds it, else nullptr.
  const Row* find(JobId j) const {
    const Row& slot = slots_[slot_of(j)];
    return slot.id == j ? &slot : nullptr;
  }

  /// Synthesizes row j from the closed form into its slot.
  const Row& fill_generated(JobId j, const RowGenerator& generator) {
    Row& slot = claim(j);
    generator.fill_row(j, m_, slot.p.data());
    return slot;
  }

  /// Decompresses a CSR row into its slot: `count` eligible entries, with
  /// machine ids in `machines` and their p values in `p`.
  const Row& fill_sparse(JobId j, const MachineId* machines, const Work* p,
                         std::size_t count) {
    Row& slot = claim(j);
    std::fill(slot.p.begin(), slot.p.end(), kTimeInfinity);
    for (std::size_t k = 0; k < count; ++k) {
      slot.p[static_cast<std::size_t>(machines[k])] = p[k];
    }
    return slot;
  }

 private:
  static constexpr std::size_t kSlots = 4;

  static std::size_t slot_of(JobId j) {
    return static_cast<std::size_t>(j) % kSlots;
  }

  /// Row j's slot, sized to m (allocated on first use, so an owner that
  /// never reads a tile never pays for one) and tagged with j.
  Row& claim(JobId j) {
    Row& slot = slots_[slot_of(j)];
    if (slot.p.size() != m_) slot.p.resize(m_);
    slot.id = j;
    return slot;
  }

  std::size_t m_;
  std::array<Row, kSlots> slots_;
};

}  // namespace osched

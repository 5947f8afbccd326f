// InstanceView: the hot accessor surface the batch policies run on.
//
// The scheduling policies (rejection_flow / energy_flow / weighted_flow and
// the baselines) are templates over a Store type providing
//   job(j), num_jobs(), num_machines(), processing(i, j),
//   processing_unchecked(i, j), processing_row(j), p_order_row(j),
//   eligible_machines(j), min_processing(j)
// with Instance's semantics. Instance's own façade accessors CHECK their
// arguments and refuse m-wide rows for the compact backends — fine for
// checkers and metrics, wrong for the dispatch inner loops. InstanceView is
// the batch Store: one class for all three backends, branching on the
// backend per accessor the way service::StreamingJobStore does, so each
// policy is instantiated once for batch runs.
//
//  * kDense     — rows are raw pointers into the Instance's own buffers
//    (processing_row returns the Instance's row pointer).
//  * kSparseCsr — CSR entries decompressed on demand into the shared
//    row-tile cache (instance/row_tile.hpp; the policies read
//    machine-indexed rows). The tiles are the view's working set: two rows
//    per dispatch (current job + lookahead), reused across arrivals, so the
//    DRAM footprint stays O(eligible entries) while the row reads stay
//    O(1).
//  * kGenerator — rows synthesized from the closed form into the same tile
//    cache; the n×m matrix never exists.
// For the compact backends point lookups read through the tiles too.
//
// p_order_row is the Instance's uint16 (p, id) table, or nullptr where
// there is none (generator backend, m >= 65536); dispatch then derives the
// idle argmin from the row itself.
//
// A view borrows its Instance: keep the Instance alive for the view's
// lifetime, and use one view per run (the tiles are deliberately not
// thread-safe — a view is as private to its policy as the policy's own
// scratch).
#pragma once

#include <algorithm>
#include <cstdint>

#include "instance/instance.hpp"
#include "instance/row_tile.hpp"

namespace osched {

class InstanceView {
 public:
  explicit InstanceView(const Instance& instance)
      : instance_(&instance),
        backend_(instance.backend()),
        p_(instance.processing_.data()),
        csr_p_(instance.csr_p_.data()),
        generator_(instance.generator_.get()),
        eligible_(backend_ == StorageBackend::kGenerator
                      ? instance.identity_machines_.data()
                      : instance.eligible_flat_.data()),
        offsets_(instance.eligible_offsets_.data()),
        m_(instance.num_machines()),
        tiles_(m_) {}

  std::size_t num_jobs() const { return instance_->num_jobs(); }
  std::size_t num_machines() const { return m_; }
  const Job& job(JobId j) const { return instance_->job(j); }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < m_);
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
    return processing_unchecked(i, j);
  }
  Work processing_unchecked(MachineId i, JobId j) const {
    if (backend_ == StorageBackend::kDense) {
      return p_[static_cast<std::size_t>(j) * m_ + static_cast<std::size_t>(i)];
    }
    return tile(j).p[static_cast<std::size_t>(i)];
  }
  const Work* processing_row(JobId j) const {
    if (backend_ == StorageBackend::kDense) {
      return p_ + static_cast<std::size_t>(j) * m_;
    }
    return tile(j).p.data();
  }
  const std::uint16_t* p_order_row(JobId j) const {
    return instance_->p_order_row(j);
  }
  EligibleMachines eligible_machines(JobId j) const {
    if (backend_ == StorageBackend::kGenerator) {
      // Fully eligible by the RowGenerator contract: the shared 0..m-1 row.
      return EligibleMachines{eligible_, eligible_ + m_};
    }
    const auto idx = static_cast<std::size_t>(j);
    return EligibleMachines{eligible_ + offsets_[idx],
                            eligible_ + offsets_[idx + 1]};
  }
  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }
  Work min_processing(JobId j) const {
    if (backend_ != StorageBackend::kGenerator) {
      return instance_->min_processing(j);
    }
    const RowTileCache::Row& t = tile(j);
    Work best = kTimeInfinity;
    for (std::size_t i = 0; i < m_; ++i) best = std::min(best, t.p[i]);
    return best;
  }

 private:
  /// Out of line so each dense accessor stays a compare and a load: inlined
  /// into every accessor, the two fills bloated the policies' hot paths.
  [[gnu::noinline]] const RowTileCache::Row& tile(JobId j) const {
    if (const RowTileCache::Row* hit = tiles_.find(j)) return *hit;
    if (backend_ == StorageBackend::kGenerator) {
      return tiles_.fill_generated(j, *generator_);
    }
    const auto idx = static_cast<std::size_t>(j);
    const std::size_t begin = offsets_[idx];
    return tiles_.fill_sparse(j, eligible_ + begin, csr_p_ + begin,
                              offsets_[idx + 1] - begin);
  }

  const Instance* instance_;
  StorageBackend backend_;
  const Work* p_;
  const Work* csr_p_;
  const RowGenerator* generator_;
  /// The adjacency (dense, sparse) or the identity row (generator).
  const MachineId* eligible_;
  const std::size_t* offsets_;
  std::size_t m_;
  mutable RowTileCache tiles_;
};

}  // namespace osched

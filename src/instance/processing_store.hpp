// Per-backend store views: the hot accessor surface the policies are
// templated over.
//
// The scheduling policies (rejection_flow / energy_flow / weighted_flow and
// the baselines) are templates over a Store type providing
//   job(j), num_jobs(), num_machines(), processing(i, j),
//   processing_unchecked(i, j), processing_row(j), bounds_row(j),
//   p_order_row(j), eligible_machines(j), min_processing(j)
// with Instance's semantics. Instance itself now multiplexes three backends
// behind façade accessors that branch per call — fine for checkers and
// metrics, wrong for the dispatch inner loops. These views give each
// backend a branch-free surface:
//
//  * DenseStoreView     — raw pointers into the dense buffers; every
//    accessor compiles to the exact loads Instance used to serve when it
//    WAS the dense store, so RejectionFlowPolicy<DenseStoreView, ...> is
//    the same hot path as the pre-refactor
//    RejectionFlowPolicy<Instance, ...> instantiation.
//  * SparseStoreView    — CSR entries decompressed on demand into the
//    shared row-tile cache (instance/row_tile.hpp; the policies read
//    machine-indexed rows). The tiles are the view's working set: two rows
//    per dispatch (current job + lookahead), reused across arrivals, so the
//    DRAM footprint stays O(eligible entries) while the row reads stay
//    O(1). Point lookups read through the tiles too.
//  * GeneratorStoreView — rows synthesized from the closed form into the
//    same tile cache; the n×m matrix never exists.
//
// p_order_row is the Instance's uint16 (p, id) table, or nullptr where
// there is none (generator backend, m >= 65536); dispatch then derives the
// idle argmin from the row itself.
//
// A view borrows its Instance: keep the Instance alive for the view's
// lifetime, and use one view per run (the tiles are deliberately not
// thread-safe — a view is as private to its policy as the policy's own
// scratch). with_store_view() is the batch entry points' dispatcher.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "instance/instance.hpp"
#include "instance/row_tile.hpp"

namespace osched {

class DenseStoreView {
 public:
  explicit DenseStoreView(const Instance& instance)
      : instance_(&instance),
        p_(instance.processing_.data()),
        bounds_(instance.bounds_.data()),
        order_(instance.p_order_.empty() ? nullptr : instance.p_order_.data()),
        eligible_(instance.eligible_flat_.data()),
        offsets_(instance.eligible_offsets_.data()),
        m_(instance.num_machines()) {
    OSCHED_CHECK(instance.backend() == StorageBackend::kDense);
  }

  std::size_t num_jobs() const { return instance_->num_jobs(); }
  std::size_t num_machines() const { return m_; }
  const Job& job(JobId j) const { return instance_->job(j); }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < m_);
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
    return processing_unchecked(i, j);
  }
  Work processing_unchecked(MachineId i, JobId j) const {
    return p_[static_cast<std::size_t>(j) * m_ + static_cast<std::size_t>(i)];
  }
  const Work* processing_row(JobId j) const {
    return p_ + static_cast<std::size_t>(j) * m_;
  }
  const float* bounds_row(JobId j) const {
    return bounds_ + static_cast<std::size_t>(j) * m_;
  }
  const std::uint16_t* p_order_row(JobId j) const {
    if (order_ == nullptr) return nullptr;
    return order_ + offsets_[static_cast<std::size_t>(j)];
  }
  EligibleMachines eligible_machines(JobId j) const {
    const auto idx = static_cast<std::size_t>(j);
    return EligibleMachines{eligible_ + offsets_[idx],
                            eligible_ + offsets_[idx + 1]};
  }
  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }
  Work min_processing(JobId j) const { return instance_->min_processing(j); }

 private:
  const Instance* instance_;
  const Work* p_;
  const float* bounds_;
  const std::uint16_t* order_;
  const MachineId* eligible_;
  const std::size_t* offsets_;
  std::size_t m_;
};

class SparseStoreView {
 public:
  explicit SparseStoreView(const Instance& instance)
      : instance_(&instance),
        csr_p_(instance.csr_p_.data()),
        order_(instance.p_order_.empty() ? nullptr : instance.p_order_.data()),
        eligible_(instance.eligible_flat_.data()),
        offsets_(instance.eligible_offsets_.data()),
        m_(instance.num_machines()),
        tiles_(m_) {
    OSCHED_CHECK(instance.backend() == StorageBackend::kSparseCsr);
  }

  std::size_t num_jobs() const { return instance_->num_jobs(); }
  std::size_t num_machines() const { return m_; }
  const Job& job(JobId j) const { return instance_->job(j); }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < m_);
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
    return processing_unchecked(i, j);
  }
  Work processing_unchecked(MachineId i, JobId j) const {
    return tile(j).p[static_cast<std::size_t>(i)];
  }
  const Work* processing_row(JobId j) const { return tile(j).p.data(); }
  const float* bounds_row(JobId j) const { return tile(j).bounds.data(); }
  const std::uint16_t* p_order_row(JobId j) const {
    if (order_ == nullptr) return nullptr;
    return order_ + offsets_[static_cast<std::size_t>(j)];
  }
  EligibleMachines eligible_machines(JobId j) const {
    const auto idx = static_cast<std::size_t>(j);
    return EligibleMachines{eligible_ + offsets_[idx],
                            eligible_ + offsets_[idx + 1]};
  }
  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }
  Work min_processing(JobId j) const { return instance_->min_processing(j); }

 private:
  const RowTileCache::Row& tile(JobId j) const {
    if (const RowTileCache::Row* hit = tiles_.find(j)) return *hit;
    const auto idx = static_cast<std::size_t>(j);
    const std::size_t begin = offsets_[idx];
    return tiles_.fill_sparse(j, eligible_ + begin, csr_p_ + begin,
                              offsets_[idx + 1] - begin);
  }

  const Instance* instance_;
  const Work* csr_p_;
  const std::uint16_t* order_;
  const MachineId* eligible_;
  const std::size_t* offsets_;
  std::size_t m_;
  mutable RowTileCache tiles_;
};

class GeneratorStoreView {
 public:
  explicit GeneratorStoreView(const Instance& instance)
      : instance_(&instance),
        generator_(&instance.generator()),
        identity_(instance.identity_machines_.data()),
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
    return tile(j).p[static_cast<std::size_t>(i)];
  }
  const Work* processing_row(JobId j) const { return tile(j).p.data(); }
  const float* bounds_row(JobId j) const { return tile(j).bounds.data(); }
  /// No precomputed (p, id) order — sorting per row would sit exactly where
  /// the synthesis does; dispatch derives the idle argmin from the shadow
  /// row (the streaming store takes the same sub-path).
  const std::uint16_t* p_order_row(JobId /*j*/) const { return nullptr; }
  EligibleMachines eligible_machines(JobId /*j*/) const {
    // Fully eligible by the RowGenerator contract: the shared 0..m-1 row.
    return EligibleMachines{identity_, identity_ + m_};
  }
  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }
  Work min_processing(JobId j) const {
    const RowTileCache::Row& t = tile(j);
    Work best = kTimeInfinity;
    for (std::size_t i = 0; i < m_; ++i) best = std::min(best, t.p[i]);
    return best;
  }

 private:
  const RowTileCache::Row& tile(JobId j) const {
    if (const RowTileCache::Row* hit = tiles_.find(j)) return *hit;
    return tiles_.fill_generated(j, *generator_);
  }

  const Instance* instance_;
  const RowGenerator* generator_;
  const MachineId* identity_;
  std::size_t m_;
  mutable RowTileCache tiles_;
};

/// Runs `fn` with the view matching `instance.backend()`. The batch entry
/// points route through this so each backend gets its own full template
/// instantiation of the policy + engine — the dense one being the
/// pre-refactor hot path, unchanged.
template <class Fn>
decltype(auto) with_store_view(const Instance& instance, Fn&& fn) {
  switch (instance.backend()) {
    case StorageBackend::kDense: {
      const DenseStoreView view(instance);
      return fn(view);
    }
    case StorageBackend::kSparseCsr: {
      const SparseStoreView view(instance);
      return fn(view);
    }
    case StorageBackend::kGenerator: {
      const GeneratorStoreView view(instance);
      return fn(view);
    }
  }
  OSCHED_CHECK(false) << "unreachable storage backend";
  std::abort();
}

}  // namespace osched

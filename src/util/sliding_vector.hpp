// Vector over a monotonically growing id space whose prefix can be retired.
//
// The streaming scheduler sessions keep per-job state (schedule records,
// dual-accounting entries, processing rows) keyed by JobId. Ids only grow,
// and once every job below some frontier has reached a terminal fate its
// state is never read again — so the container can hand that prefix's
// memory back instead of growing without bound. SlidingVector is exactly
// that: extend_to() appends value-initialized slots at the high end,
// retire_below() declares a prefix dead, and compaction erases the dead
// prefix once it outweighs the live window (amortized O(1) per element;
// each element is moved at most twice over its lifetime, and capacity
// stays bounded by ~2x the live window).
//
// Batch callers that never retire get plain-vector behavior and layout.
// References are invalidated by extend_to() and retire_below(), like
// vector::push_back — callers must not hold references across growth or
// retirement.
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace osched::util {

template <typename T>
class SlidingVector {
 public:
  /// Compaction threshold: small windows are not worth the memmove.
  static constexpr std::size_t kCompactMin = 1024;

  /// First id still stored (everything below has been retired).
  std::size_t begin_index() const { return begin_; }
  /// One past the largest id ever created.
  std::size_t end_index() const { return base_ + data_.size(); }
  /// Live slots currently held (retired-but-not-yet-compacted excluded).
  std::size_t live_size() const { return end_index() - begin_; }
  bool empty() const { return live_size() == 0; }

  void reserve(std::size_t n) { data_.reserve(n); }

  /// Grows the id space to [begin_index, n), value-initializing new slots.
  /// No-op when n <= end_index(). Growth by one slot, the per-admission
  /// case, skips resize's out-of-line path.
  void extend_to(std::size_t n) {
    if (n == end_index() + 1) {
      data_.emplace_back();
    } else if (n > end_index()) {
      data_.resize(n - base_);
    }
  }

  /// Unchecked access for validated hot loops: `id` must be live.
  T& operator[](std::size_t id) { return data_[id - base_]; }
  const T& operator[](std::size_t id) const { return data_[id - base_]; }

  /// Checked access: aborts on a retired or never-created id.
  T& at(std::size_t id) {
    OSCHED_CHECK(id >= begin_ && id < end_index())
        << "SlidingVector id " << id << " outside live window [" << begin_
        << ", " << end_index() << ")";
    return data_[id - base_];
  }
  const T& at(std::size_t id) const {
    return const_cast<SlidingVector*>(this)->at(id);
  }

  bool is_live(std::size_t id) const {
    return id >= begin_ && id < end_index();
  }

  /// Retires every id below `frontier` (clamped to the created range) and
  /// compacts when the dead prefix dominates the storage.
  void retire_below(std::size_t frontier) {
    if (frontier <= begin_) return;
    begin_ = frontier < end_index() ? frontier : end_index();
    const std::size_t dead = begin_ - base_;
    if (dead >= kCompactMin && dead >= data_.size() - dead) {
      data_.erase(data_.begin(),
                  data_.begin() + static_cast<std::ptrdiff_t>(dead));
      // No shrink_to_fit: the next extend_to would immediately reallocate
      // and copy the live window a third time. Capacity stays bounded by
      // the pre-compaction size (~2x the live window) regardless.
      base_ = begin_;
    }
  }

 private:
  std::vector<T> data_;    ///< ids [base_, base_ + size)
  std::size_t base_ = 0;   ///< id of data_[0]
  std::size_t begin_ = 0;  ///< first non-retired id (>= base_)
};

}  // namespace osched::util

// Tournament-tree event queue: the completion queue of the simulation
// drivers, shaped like the dispatch index instead of a binary heap.
//
// The schedulers keep at most a handful of outstanding events per machine
// (the policies: exactly one scheduled completion), so the natural index is
// per-machine, not per-event: each machine owns a tiny bucket of its queued
// events, a leaf array holds every machine's best (time, seq) key, and a
// winner tree over the leaves yields the global minimum. peek is O(1) with
// no lazy-cancel skipping, schedule/cancel/pop replay one root path —
// O(log m) in the MACHINE count, which the dispatch index already bounds,
// instead of O(log live events) heap sifts plus deferred tombstone pops.
// Cancellation is eager: Rule 1's interrupt removes the entry outright, so
// a churn-heavy run never carries a tombstone backlog.
//
// Ordering is (time, insertion sequence) — identical to the binary-heap
// implementation it replaced, which tests/event_queue_diff_test.cpp keeps
// as its reference and pins down with a lockstep fuzz differential. Handles are generation-stamped slots with the
// same encoding and the same double-cancel/stale-handle CHECKs as the heap
// version.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace osched {

struct SimEvent {
  Time time = 0.0;
  std::uint64_t id = 0;  ///< insertion sequence (unique, monotone)
  MachineId machine = kInvalidMachine;
  JobId job = kInvalidJob;
};

}  // namespace osched

namespace osched::util {

class TournamentEventQueue {
 public:
  /// Schedules an event and returns its cancellation handle.
  std::uint64_t schedule(Time time, MachineId machine, JobId job) {
    OSCHED_CHECK_GE(machine, 0);
    ensure_capacity(static_cast<std::size_t>(machine) + 1);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{1, machine});
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot].machine = machine;
    }
    const std::uint64_t seq = next_seq_++;
    const auto i = static_cast<std::size_t>(machine);
    buckets_[i].push_back(Entry{time, seq, job, slot});
    if (key_less(time, seq, best_time_[i], best_seq_[i])) {
      best_time_[i] = time;
      best_seq_[i] = seq;
      replay(i);
    }
    ++live_;
    return handle_of(slot, slots_[slot].generation);
  }

  /// Cancels a previously scheduled event. Cancelling a handle twice or
  /// after it fired is a programming error.
  void cancel(std::uint64_t handle) {
    const auto slot = static_cast<std::uint32_t>(handle >> 32);
    const auto generation = static_cast<std::uint32_t>(handle);
    OSCHED_CHECK(slot < slots_.size() &&
                 slots_[slot].generation == generation && generation != 0)
        << "event handle " << handle << " is not live (double cancel?)";
    const auto i = static_cast<std::size_t>(slots_[slot].machine);
    std::vector<Entry>& bucket = buckets_[i];
    std::size_t at = 0;
    while (at < bucket.size() && bucket[at].slot != slot) ++at;
    OSCHED_CHECK_LT(at, bucket.size());
    bucket[at] = bucket.back();
    bucket.pop_back();
    rescan(i);
    retire(slot);
    OSCHED_CHECK_GT(live_, 0u);
    --live_;
  }

  bool empty() const { return live_ == 0; }

  /// Time of the next live event, if any. O(1): the root winner is always
  /// current (no tombstones to skip).
  std::optional<Time> peek_time() const {
    if (live_ == 0) return std::nullopt;
    return best_time_[winner()];
  }

  /// Pops the next live event. Requires !empty().
  SimEvent pop() {
    OSCHED_CHECK_GT(live_, 0u);
    const std::size_t i = winner();
    std::vector<Entry>& bucket = buckets_[i];
    std::size_t at = 0;
    while (bucket[at].seq != best_seq_[i]) ++at;
    const Entry entry = bucket[at];
    bucket[at] = bucket.back();
    bucket.pop_back();
    rescan(i);
    retire(entry.slot);
    --live_;
    return SimEvent{entry.time, entry.seq, static_cast<MachineId>(i),
                    entry.job};
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    JobId job;
    std::uint32_t slot;
  };

  struct Slot {
    std::uint32_t generation;
    MachineId machine;
  };

  static constexpr Time kNoTime = std::numeric_limits<Time>::infinity();
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  static bool key_less(Time ta, std::uint64_t sa, Time tb, std::uint64_t sb) {
    if (ta != tb) return ta < tb;
    return sa < sb;
  }

  static std::uint64_t handle_of(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(slot) << 32) | generation;
  }

  std::size_t winner() const { return cap_ > 1 ? tree_[1] : 0; }

  /// Invalidates the slot's outstanding handle and recycles it; generation
  /// 0 is never live, so a zero handle can't match.
  void retire(std::uint32_t slot) {
    if (++slots_[slot].generation == 0) ++slots_[slot].generation;
    free_slots_.push_back(slot);
  }

  /// Recomputes machine i's best key from its bucket and replays its path.
  void rescan(std::size_t i) {
    Time time = kNoTime;
    std::uint64_t seq = kNoSeq;
    for (const Entry& entry : buckets_[i]) {
      if (key_less(entry.time, entry.seq, time, seq)) {
        time = entry.time;
        seq = entry.seq;
      }
    }
    best_time_[i] = time;
    best_seq_[i] = seq;
    replay(i);
  }

  /// Replays the winner path from leaf i to the root.
  void replay(std::size_t i) {
    if (cap_ <= 1) return;
    for (std::size_t node = (cap_ + i) >> 1; node >= 1; node >>= 1) {
      tree_[node] = fight(node << 1, (node << 1) | 1);
    }
  }

  /// Winner (machine index) between two tree positions; positions >= cap_
  /// are leaves (machine = position - cap_).
  std::size_t fight(std::size_t a, std::size_t b) const {
    const std::size_t ma = a >= cap_ ? a - cap_ : tree_[a];
    const std::size_t mb = b >= cap_ ? b - cap_ : tree_[b];
    return key_less(best_time_[mb], best_seq_[mb], best_time_[ma],
                    best_seq_[ma])
               ? mb
               : ma;
  }

  void ensure_capacity(std::size_t machines) {
    if (machines <= buckets_.size()) return;
    std::size_t cap = cap_ > 0 ? cap_ : 1;
    while (cap < machines) cap <<= 1;
    buckets_.resize(cap);
    best_time_.resize(cap, kNoTime);
    best_seq_.resize(cap, kNoSeq);
    if (cap != cap_) {
      cap_ = cap;
      tree_.assign(cap_, 0);
      if (cap_ > 1) {
        for (std::size_t node = cap_ - 1; node >= 1; --node) {
          tree_[node] = fight(node << 1, (node << 1) | 1);
        }
      }
    }
  }

  std::vector<std::vector<Entry>> buckets_;  ///< queued events per machine
  std::vector<Time> best_time_;  ///< leaf keys: machine's min (time, seq)
  std::vector<std::uint64_t> best_seq_;
  std::vector<std::uint32_t> tree_;  ///< winner tree over the leaves
  std::size_t cap_ = 0;              ///< leaf count (power of two)

  std::vector<Slot> slots_;  ///< generation stamp + machine per handle slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace osched::util

namespace osched {

/// The simulation drivers' event queue (see sim/engine.hpp).
using EventQueue = util::TournamentEventQueue;

}  // namespace osched

// Differential wall for the tournament-tree event queue.
//
// EventQueue is util::TournamentEventQueue; HeapEventQueue below is the
// lazy-cancel binary heap it replaced, kept here as the reference. The
// contract: both implementations deliver IDENTICAL event sequences — same
// (time, seq, machine, job), same peek_time at every step — under any
// interleaving of schedule/cancel/pop, because both order by (time,
// insertion sequence). The fuzz driver below runs randomized op tapes over
// both queues in lockstep (with the rotating OSCHED_FUZZ_SEED); the
// structured tests pin the tournament-specific shapes (bucket churn on one
// machine, growth across the power-of-two capacity, interleaved cancels
// racing the winner path).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "fuzz_seed.hpp"
#include "util/check.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace osched {
namespace {

/// Reference implementation: lazy-cancel binary heap over all live events.
/// Every handle names a generation-stamped slot, a cancel bumps the slot's
/// generation, and a heap entry whose stamp no longer matches its slot is
/// skipped at pop time. Slots are recycled through a free list.
class HeapEventQueue {
 public:
  /// Schedules an event and returns its cancellation handle.
  std::uint64_t schedule(Time time, MachineId machine, JobId job) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(generations_.size());
      generations_.push_back(1);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    heap_.push(Entry{time, next_seq_++, slot, generations_[slot], machine, job});
    ++live_;
    return handle_of(slot, generations_[slot]);
  }

  /// Cancels a previously scheduled event. Cancelling a handle twice or
  /// after it fired is a programming error.
  void cancel(std::uint64_t handle) {
    const auto slot = static_cast<std::uint32_t>(handle >> 32);
    const auto generation = static_cast<std::uint32_t>(handle);
    OSCHED_CHECK(slot < generations_.size() &&
                 generations_[slot] == generation && generation != 0)
        << "event handle " << handle << " is not live (double cancel?)";
    retire(slot);
    OSCHED_CHECK_GT(live_, 0u);
    --live_;
  }

  bool empty() const { return live_ == 0; }

  /// Time of the next live event, if any.
  std::optional<Time> peek_time() {
    skip_cancelled();
    if (heap_.empty()) return std::nullopt;
    return heap_.top().time;
  }

  /// Pops the next live event. Requires !empty().
  SimEvent pop() {
    skip_cancelled();
    OSCHED_CHECK(!heap_.empty());
    const Entry entry = heap_.top();
    heap_.pop();
    retire(entry.slot);
    OSCHED_CHECK_GT(live_, 0u);
    --live_;
    return SimEvent{entry.time, entry.seq, entry.machine, entry.job};
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    MachineId machine;
    JobId job;
  };

  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static std::uint64_t handle_of(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(slot) << 32) | generation;
  }

  /// Invalidates the slot's outstanding handle and recycles it. The bumped
  /// generation orphans the heap entry (if still queued) and any stale
  /// handle. Generation 0 is never live, so a zero handle can't match.
  void retire(std::uint32_t slot) {
    if (++generations_[slot] == 0) ++generations_[slot];
    free_slots_.push_back(slot);
  }

  void skip_cancelled() {
    while (!heap_.empty() &&
           generations_[heap_.top().slot] != heap_.top().generation) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<std::uint32_t> generations_;  ///< current stamp per slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};


std::uint64_t base_seed() {
  return testing::fuzz_base_seed("event_queue_diff_test", 4242);
}

TEST(EventQueueDiff, LockstepFuzzAgainstHeap) {
  struct LiveEvent {
    std::uint64_t tournament_handle;
    std::uint64_t heap_handle;
    JobId job;  ///< unique per event: identifies the pair a pop fired
  };
  for (std::uint64_t round = 0; round < 8; ++round) {
    util::Rng rng(base_seed() + round);
    util::TournamentEventQueue tournament;
    HeapEventQueue heap;
    std::vector<LiveEvent> live;
    const std::size_t machines = 1 + rng.index(40);

    for (std::size_t op = 0; op < 3000; ++op) {
      ASSERT_EQ(tournament.empty(), heap.empty());
      ASSERT_EQ(tournament.peek_time().has_value(),
                heap.peek_time().has_value());
      if (!heap.empty()) {
        ASSERT_EQ(*tournament.peek_time(), *heap.peek_time());
      }
      const std::size_t what = rng.index(10);
      if (what < 5 || live.empty()) {
        // Schedule: same (time, machine, job) into both. Coarse times force
        // plenty of exact ties, exercising the seq tie-break.
        const Time time = 0.25 * static_cast<double>(rng.index(64));
        const auto machine = static_cast<MachineId>(rng.index(machines));
        const auto job = static_cast<JobId>(op);
        live.push_back(LiveEvent{tournament.schedule(time, machine, job),
                                 heap.schedule(time, machine, job), job});
      } else if (what < 7) {
        // Cancel a random live event in both.
        const std::size_t pick = rng.index(live.size());
        tournament.cancel(live[pick].tournament_handle);
        heap.cancel(live[pick].heap_handle);
        live[pick] = live.back();
        live.pop_back();
      } else if (!heap.empty()) {
        // Pop: the delivered events must match field for field.
        const SimEvent a = tournament.pop();
        const SimEvent b = heap.pop();
        ASSERT_EQ(a.time, b.time);
        ASSERT_EQ(a.id, b.id);
        ASSERT_EQ(a.machine, b.machine);
        ASSERT_EQ(a.job, b.job);
        for (std::size_t k = 0; k < live.size(); ++k) {
          if (live[k].job == a.job) {
            live[k] = live.back();
            live.pop_back();
            break;
          }
        }
      }
    }
    // Drain both to the end.
    while (!heap.empty()) {
      ASSERT_FALSE(tournament.empty());
      const SimEvent a = tournament.pop();
      const SimEvent b = heap.pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.id, b.id);
      ASSERT_EQ(a.machine, b.machine);
      ASSERT_EQ(a.job, b.job);
    }
    EXPECT_TRUE(tournament.empty());
  }
}

TEST(EventQueueDiff, SingleMachineBucketChurn) {
  util::TournamentEventQueue queue;
  // Many events on ONE machine: the bucket path (linear rescans) must still
  // deliver global (time, seq) order.
  std::vector<std::uint64_t> handles;
  for (int k = 0; k < 100; ++k) {
    handles.push_back(queue.schedule(100.0 - k, 3, k));
  }
  // Cancel every third.
  for (int k = 0; k < 100; k += 3) queue.cancel(handles[k]);
  Time last = -1.0;
  int popped = 0;
  while (!queue.empty()) {
    const SimEvent event = queue.pop();
    EXPECT_GT(event.time, last);
    last = event.time;
    EXPECT_NE(event.job % 3, 0) << "cancelled event fired";
    ++popped;
  }
  EXPECT_EQ(popped, 66);
}

TEST(EventQueueDiff, CapacityGrowthKeepsOrder) {
  util::TournamentEventQueue queue;
  queue.schedule(5.0, 0, 0);
  // Growing past successive power-of-two capacities must preserve the
  // already-queued winners.
  queue.schedule(1.0, 9, 1);
  queue.schedule(3.0, 70, 2);
  queue.schedule(0.5, 1000, 3);
  EXPECT_EQ(queue.pop().job, 3);
  EXPECT_EQ(queue.pop().job, 1);
  EXPECT_EQ(queue.pop().job, 2);
  EXPECT_EQ(queue.pop().job, 0);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace osched

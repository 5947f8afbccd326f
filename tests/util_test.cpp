// Unit tests for the util substrate: rng, stats, csv, thread pool, cli,
// table rendering, the dispatch-index structures (bound heap, MPSC queue)
// and the treap order-statistic/index-cache interaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "float_lower_reference.hpp"
#include "instance/instance.hpp"
#include "instance/row_tile.hpp"
#include "service/job_store.hpp"
#include "util/augmented_treap.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/dispatch_argmin.hpp"
#include "util/dispatch_heap.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/sliding_vector.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace osched::util {
namespace {

// ------------------------------------------------------- SlidingVector

TEST(SlidingVector, GrowsLikeAVectorWhenNeverRetired) {
  SlidingVector<int> v;
  EXPECT_TRUE(v.empty());
  v.extend_to(5);
  EXPECT_EQ(v.end_index(), 5u);
  EXPECT_EQ(v.begin_index(), 0u);
  EXPECT_EQ(v[3], 0);  // value-initialized
  v[3] = 42;
  v.extend_to(3);  // shrink request is a no-op
  EXPECT_EQ(v.end_index(), 5u);
  EXPECT_EQ(v.at(3), 42);
}

TEST(SlidingVector, RetirementMovesTheLiveWindow) {
  SlidingVector<std::size_t> v;
  v.extend_to(10);
  for (std::size_t i = 0; i < 10; ++i) v[i] = i * i;
  v.retire_below(4);
  EXPECT_EQ(v.begin_index(), 4u);
  EXPECT_EQ(v.live_size(), 6u);
  EXPECT_FALSE(v.is_live(3));
  EXPECT_TRUE(v.is_live(4));
  for (std::size_t i = 4; i < 10; ++i) EXPECT_EQ(v.at(i), i * i);
  v.retire_below(2);  // going backwards is a no-op
  EXPECT_EQ(v.begin_index(), 4u);
  v.retire_below(100);  // beyond the end clamps
  EXPECT_EQ(v.begin_index(), 10u);
  EXPECT_TRUE(v.empty());
}

TEST(SlidingVector, CompactionPreservesLiveContentsOverLongStreams) {
  // Simulates the session pattern: ids stream through a bounded window.
  // After many retire/extend cycles the storage must have been compacted
  // (ids live far beyond the initial allocation) with contents intact.
  SlidingVector<std::size_t> v;
  const std::size_t window = 500;
  for (std::size_t id = 0; id < 100000; ++id) {
    v.extend_to(id + 1);
    v[id] = id * 7;
    if (id >= window) v.retire_below(id - window);
    if (id % 997 == 0) {
      for (std::size_t k = v.begin_index(); k < v.end_index(); ++k) {
        ASSERT_EQ(v.at(k), k * 7) << "id " << id;
      }
    }
  }
  EXPECT_LE(v.live_size(), window + 1);
}

TEST(SlidingVector, ExtendByOneAndByManyAgreeAcrossCompaction) {
  // extend_to has a one-slot fast path (the per-admission case) beside the
  // general resize. Both must value-initialize, keep the same window
  // bounds and leave the live slots intact through a compaction.
  using V = SlidingVector<std::uint64_t>;
  constexpr std::size_t kEnd = 3 * V::kCompactMin;
  constexpr std::size_t kFrontier = 2 * V::kCompactMin + 5;
  const auto value_of = [](std::size_t id) { return 3 * id + 1; };
  V by_one;
  V by_many;
  for (std::size_t id = 0; id < kEnd; ++id) {
    by_one.extend_to(id + 1);
    ASSERT_EQ(by_one[id], 0u) << id;
    by_one[id] = value_of(id);
  }
  for (std::size_t end = 0, step = 1; end < kEnd; step = step * 5 % 997) {
    const std::size_t next = std::min(kEnd, end + step);
    by_many.extend_to(next);
    by_many.extend_to(end);  // a shrink request stays a no-op
    for (std::size_t id = end; id < next; ++id) {
      ASSERT_EQ(by_many[id], 0u) << id;
      by_many[id] = value_of(id);
    }
    end = next;
  }

  for (V* v : {&by_one, &by_many}) {
    v->retire_below(kFrontier);
    EXPECT_EQ(v->begin_index(), kFrontier);
    EXPECT_EQ(v->end_index(), kEnd);
    for (std::size_t id = kFrontier; id < kEnd; ++id) {
      ASSERT_EQ(v->at(id), value_of(id)) << id;
    }
    // Growth after the compaction rebased the storage.
    v->extend_to(kEnd + 1);
    v->extend_to(kEnd + 40);
    EXPECT_EQ(v->begin_index(), kFrontier);
    EXPECT_EQ(v->end_index(), kEnd + 40);
    EXPECT_EQ(v->at(kEnd - 1), value_of(kEnd - 1));
    for (std::size_t id = kEnd; id < kEnd + 40; ++id) {
      ASSERT_EQ(v->at(id), 0u) << id;
    }
  }
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() != b.next_u64()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    counts[static_cast<std::size_t>(v)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 6, draws / 60);  // within 10% of uniform
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, ParetoRespectsScaleMinimum) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.pareto(3.0, 1.5), 3.0);
  }
}

TEST(Rng, ParetoTailHeavierThanExponential) {
  Rng rng(19);
  // With shape 1.1 the 99.9th percentile should dwarf the median.
  Summary sample;
  for (int i = 0; i < 100000; ++i) sample.add(rng.pareto(1.0, 1.1));
  EXPECT_GT(sample.quantile(0.999) / sample.median(), 50.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, DeriveSeedDistinctStreams) {
  const auto a = derive_seed(100, 0);
  const auto b = derive_seed(100, 1);
  const auto c = derive_seed(101, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(100, 0));  // reproducible
}

// ---------------------------------------------------------------- Stats

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(0, 1);
    all.add(v);
    (i < 500 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Summary, QuantilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 5; ++i) s.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.125), 1.5);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(GeometricMean, MatchesClosedForm) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(LogLogSlope, RecoversPowerLaw) {
  // y = 3 x^0.5.
  std::vector<double> x, y;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::sqrt(v));
  }
  EXPECT_NEAR(loglog_slope(x, y), 0.5, 1e-12);
}

// ---------------------------------------------------------------- CSV

TEST(Csv, RoundTripWithQuoting) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"plain", "with,comma", "with\"quote", "multi\nline"});
  writer.row("x", 1.5, 2);

  const auto parsed = parse_csv(out.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0][1], "with,comma");
  EXPECT_EQ((*parsed)[0][2], "with\"quote");
  EXPECT_EQ((*parsed)[0][3], "multi\nline");
  EXPECT_EQ((*parsed)[1][0], "x");
  EXPECT_EQ((*parsed)[1][1], "1.5");
}

TEST(Csv, ParseRejectsUnbalancedQuote) {
  EXPECT_FALSE(parse_csv("a,\"unterminated").has_value());
}

TEST(Csv, ParseEmptyFields) {
  const auto parsed = parse_csv("a,,c\n,,\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].size(), 3u);
  EXPECT_EQ((*parsed)[0][1], "");
  EXPECT_EQ((*parsed)[1].size(), 3u);
}

TEST(Csv, ToleratesCrLf) {
  const auto parsed = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1][1], "d");
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SubmitTaskReturnsFutureWithResult) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit_task([i] { return i * 3; }));
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(futures[static_cast<std::size_t>(i)].get(), i * 3);
  }
}

TEST(ThreadPool, SubmitTaskVoidAndMoveOnlyResult) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto done = pool.submit_task([&counter] { counter.fetch_add(1); });
  done.get();
  EXPECT_EQ(counter.load(), 1);

  auto boxed = pool.submit_task([] { return std::make_unique<int>(7); });
  EXPECT_EQ(*boxed.get(), 7);
}

TEST(ThreadPool, ParallelMapOrdersResults) {
  ThreadPool pool(4);
  auto out = parallel_map<int>(pool, 64, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i * i));
  }
}

// ---------------------------------------------------------------- Cli

TEST(Cli, ParsesEqualsAndSpaceForms) {
  Cli cli;
  cli.flag("eps", "0.2", "epsilon").flag("n", "100", "jobs").flag("verbose", "false", "verbosity");
  const char* argv[] = {"prog", "--eps=0.5", "--n", "250", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_DOUBLE_EQ(cli.num("eps"), 0.5);
  EXPECT_EQ(cli.integer("n"), 250);
  EXPECT_TRUE(cli.boolean("verbose"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  Cli cli;
  cli.flag("eps", "0.2", "epsilon");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.num("eps"), 0.2);
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli;
  cli.flag("eps", "0.2", "epsilon");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, NumListParsesCommaSeparated) {
  Cli cli;
  cli.flag("sweep", "0.1,0.2,0.5", "eps sweep");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  const auto list = cli.num_list("sweep");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[2], 0.5);
}

// ---------------------------------------------------------------- Table

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.row("alpha", 1.0);
  table.row("beta-long-name", 22.5);
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("beta-long-name"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, NumFormatsSignificantDigits) {
  EXPECT_EQ(Table::num(1234.5678, 4), "1235");
  EXPECT_EQ(Table::num(0.000123456, 3), "0.000123");
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(0.5e-4), "50.0 us");
  EXPECT_EQ(format_duration(0.012), "12.0 ms");
  EXPECT_EQ(format_duration(2.0), "2.00 s");
}

TEST(ThreadPool, SubmitBulkRunsEveryTaskOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.submit_bulk(std::move(tasks));
  pool.wait_idle();
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  pool.submit_bulk({});  // empty bulk is a no-op
  pool.wait_idle();
}

// ---------------------------------------------------------------- DispatchHeap

TEST(DispatchHeap, PopsInKeyThenIdOrder) {
  DispatchHeap heap;
  heap.push(3.0, 7);
  heap.push(1.0, 9);
  heap.push(1.0, 2);  // key tie: smaller id first
  heap.push(2.0, 1);
  ASSERT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.min().id, 2u);
  EXPECT_EQ(heap.pop_min().id, 2u);
  EXPECT_EQ(heap.pop_min().id, 9u);
  EXPECT_EQ(heap.pop_min().id, 1u);
  EXPECT_EQ(heap.pop_min().id, 7u);
  EXPECT_TRUE(heap.empty());
}

TEST(DispatchHeap, MatchesSortReferenceUnderChurn) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    DispatchHeap heap;
    heap.reset();
    std::vector<DispatchHeap::Entry> reference;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < n; ++i) {
      // Coarse keys force plenty of ties; ids are unique.
      const double key = static_cast<double>(rng.uniform_int(0, 5));
      heap.push(key, static_cast<std::uint32_t>(i));
      reference.push_back({key, static_cast<std::uint32_t>(i)});
    }
    std::sort(reference.begin(), reference.end());
    for (const auto& expected : reference) {
      const auto got = heap.pop_min();
      ASSERT_EQ(got.key, expected.key) << "round " << round;
      ASSERT_EQ(got.id, expected.id) << "round " << round;
    }
    ASSERT_TRUE(heap.empty());
  }
}

// ---------------------------------------------------------------- MpscQueue

TEST(MpscQueue, DrainsInPushOrderSingleProducer) {
  MpscQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  for (int i = 0; i < 100; ++i) queue.push(i);
  EXPECT_FALSE(queue.empty());
  std::vector<int> out;
  EXPECT_EQ(queue.drain(out), 100u);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.drain(out), 0u);
}

TEST(MpscQueue, MultipleProducersLoseNothing) {
  MpscQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.push(p * kPerProducer + i);
      }
    });
  }
  std::vector<int> out;
  while (out.size() < kProducers * kPerProducer) {
    queue.drain(out);
  }
  for (auto& producer : producers) producer.join();
  queue.drain(out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  // Every value exactly once, and each producer's values in its push order.
  std::vector<int> last(kProducers, -1);
  std::set<int> seen;
  for (const int v : out) {
    ASSERT_TRUE(seen.insert(v).second) << "duplicate " << v;
    const int p = v / kPerProducer;
    ASSERT_GT(v, last[static_cast<std::size_t>(p)])
        << "producer " << p << " order violated";
    last[static_cast<std::size_t>(p)] = v;
  }
}

TEST(MpscQueue, DestructorReleasesUndrained) {
  // Covered by ASan in CI: push without drain must not leak.
  MpscQueue<std::vector<int>> queue;
  queue.push(std::vector<int>(100, 7));
  queue.push(std::vector<int>(50, 9));
}

// ------------------------------------------------- Treap kth + index caches

/// The policy-side index cache next to each pending treap: count and
/// minimum key component, updated incrementally exactly the way
/// RejectionFlowPolicy maintains pend_n_/pend_min_p_. The churn test keeps
/// treap, cache and a std::set reference in lockstep through the same
/// insert/pop/erase/kth mix the scheduler performs, and checks that the
/// cache never drifts from the ground truth the bounds depend on.
struct DoubleKey {
  double value = 0.0;
  int id = 0;
  bool operator<(const DoubleKey& other) const {
    if (value != other.value) return value < other.value;
    return id < other.id;
  }
};
struct DoubleKeyWeight {
  double operator()(const DoubleKey& key) const { return key.value; }
};

TEST(AugmentedTreap, KthAndIndexCacheSurviveChurn) {
  util::AugmentedTreap<DoubleKey, DoubleKeyWeight> treap;
  std::set<DoubleKey> reference;
  std::uint32_t cached_count = 0;
  float cached_min = std::numeric_limits<float>::max();
  Rng rng(424242);
  int next_id = 0;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5 || reference.empty()) {
      const DoubleKey key{rng.uniform(0.0, 100.0), next_id++};
      treap.insert(key);
      reference.insert(key);
      ++cached_count;
      const float low = float_lower(key.value);
      if (low < cached_min) cached_min = low;
    } else if (roll < 0.75) {
      // pop_min with successor peek, as start_next uses it.
      const DoubleKey* next = nullptr;
      const DoubleKey popped = treap.pop_min_peek_next(&next);
      ASSERT_EQ(popped.value, reference.begin()->value) << "step " << step;
      ASSERT_EQ(popped.id, reference.begin()->id) << "step " << step;
      reference.erase(reference.begin());
      --cached_count;
      if (next == nullptr) {
        ASSERT_TRUE(reference.empty()) << "step " << step;
        cached_min = std::numeric_limits<float>::max();
      } else {
        ASSERT_FALSE(reference.empty()) << "step " << step;
        ASSERT_EQ(next->value, reference.begin()->value) << "step " << step;
        ASSERT_EQ(next->id, reference.begin()->id) << "step " << step;
        cached_min = float_lower(next->value);
      }
    } else {
      // Rule-2 style erase of the kth order statistic.
      const std::size_t index = rng.index(reference.size());
      const DoubleKey victim = treap.kth(index);
      auto it = reference.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(index));
      ASSERT_EQ(victim.value, it->value) << "step " << step;
      ASSERT_EQ(victim.id, it->id) << "step " << step;
      ASSERT_TRUE(treap.erase(victim));
      reference.erase(it);
      --cached_count;
      if (float_lower(victim.value) <= cached_min) {
        cached_min = reference.empty()
                         ? std::numeric_limits<float>::max()
                         : float_lower(reference.begin()->value);
      }
    }

    // Cache invariants the dispatch bounds rely on.
    ASSERT_EQ(cached_count, reference.size()) << "step " << step;
    ASSERT_EQ(treap.size(), reference.size()) << "step " << step;
    if (!reference.empty()) {
      ASSERT_EQ(static_cast<double>(cached_min),
                static_cast<double>(float_lower(reference.begin()->value)))
          << "step " << step;
      ASSERT_LE(static_cast<double>(cached_min), reference.begin()->value)
          << "step " << step;  // the bound direction: never above the min
      // And kth stays consistent with the in-order rank at a random probe.
      const std::size_t probe = rng.index(reference.size());
      auto it = reference.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(probe));
      ASSERT_EQ(treap.kth(probe).id, it->id) << "step " << step;
    } else {
      ASSERT_EQ(cached_min, std::numeric_limits<float>::max()) << "step " << step;
    }
  }
}

// ---------------------------------------------------------- float bounds

TEST(FloatBounds, LowerNeverExceedsAndUpperNeverUndercuts) {
  Rng rng(99);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.next_double() < 0.5 ? rng.uniform(0.0, 1e12)
                                             : rng.pareto(1e-6, 1.1);
    const float lo = float_lower(x);
    ASSERT_LE(static_cast<double>(lo), x);
    ASSERT_GT(static_cast<double>(float_next_up(lo)), x);
  }
  EXPECT_EQ(float_lower(std::numeric_limits<double>::infinity()),
            std::numeric_limits<float>::max());
  EXPECT_EQ(float_next_up(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(float_lower(0.0), 0.0f);
}

using osched::testing::lower_reference;

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }

/// Inputs from every edge class of the conversion: exact floats at every
/// exponent (float subnormals included), both double neighbours of each,
/// the float midpoints and their double neighbours, double subnormals,
/// (FLT_MAX, DBL_MAX], +inf, 0 and random finite bit patterns.
std::vector<double> float_lower_edge_inputs() {
  Rng rng(2026);
  std::vector<double> xs = {0.0, std::numeric_limits<double>::infinity(),
                            DBL_MAX, std::nextafter(DBL_MAX, 0.0)};
  const auto with_neighbours = [&xs](double x) {
    xs.push_back(x);
    xs.push_back(std::nextafter(x, 0.0));
    xs.push_back(std::nextafter(x, std::numeric_limits<double>::infinity()));
  };
  for (std::uint32_t exponent = 0; exponent < 255; ++exponent) {
    const std::uint32_t mantissas[] = {
        0u, 1u, 2u, 0x400000u, 0x7FFFFEu, 0x7FFFFFu,
        static_cast<std::uint32_t>(rng.next_u64()) & 0x7FFFFFu};
    for (const std::uint32_t mantissa : mantissas) {
      const float f = std::bit_cast<float>(exponent << 23 | mantissa);
      with_neighbours(static_cast<double>(f));
      if (f < FLT_MAX) {
        // Exactly halfway to the next float: a nearest-rounding tie.
        with_neighbours(0.5 * (static_cast<double>(f) +
                               static_cast<double>(float_next_up(f))));
      }
    }
  }
  // Double subnormals, which all round to float 0.
  with_neighbours(std::numeric_limits<double>::denorm_min());
  with_neighbours(DBL_MIN);
  for (int i = 0; i < 64; ++i) {
    xs.push_back(std::bit_cast<double>(rng.next_u64() >> 12));
  }
  // Above FLT_MAX (its own neighbours came from the loop above): the
  // halfway point to the next would-be float (rounds to +inf) and the
  // rest up to DBL_MAX.
  const double flt_max = FLT_MAX;
  const double below = std::nextafter(FLT_MAX, 0.0f);
  with_neighbours(flt_max + 0.5 * (flt_max - below));
  for (int i = 0; i < 256; ++i) {
    xs.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                            128 + static_cast<int>(rng.index(895))));
  }
  for (int i = 0; i < 20000; ++i) {
    const double x = std::bit_cast<double>(rng.next_u64() >> 1);
    if (std::isfinite(x)) xs.push_back(x);
  }
  return xs;
}

/// A generator that serves fixed rows, so the tile fill converts whatever
/// values the test picks.
class TableRows : public RowGenerator {
 public:
  explicit TableRows(std::vector<std::vector<Work>> rows)
      : rows_(std::move(rows)) {}
  Work entry(JobId j, MachineId i) const override {
    return rows_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  }

 private:
  std::vector<std::vector<Work>> rows_;
};

TEST(FloatBounds, LowerIsTheLargestFloatNotAbove) {
  const std::vector<double> xs = float_lower_edge_inputs();
  for (const double x : xs) {
    ASSERT_EQ(bits_of(float_lower(x)), bits_of(lower_reference(x)))
        << std::hexfloat << x;
  }

  // Whole rows from every row source, rounded the way the dispatch sweep
  // rounds them, at every width from 1 to 67 so each vector body and tail
  // length of lb_fill's in-register conversion runs. Store rows must be
  // positive with one eligible machine, so 0 is left out and machine 0 is
  // finite.
  Rng rng(7);
  std::vector<double> pool;
  for (const double x : xs) {
    if (x > 0.0) pool.push_back(x);
  }
  constexpr std::size_t kRows = 3;
  for (std::size_t m = 1; m <= 67; ++m) {
    std::vector<std::vector<Work>> rows(kRows, std::vector<Work>(m));
    for (auto& row : rows) {
      for (Work& p : row) p = pool[rng.index(pool.size())];
      if (!(row[0] < kTimeInfinity)) row[0] = 1.0;
    }

    RowTileCache tiles(m);
    const TableRows generator(rows);
    service::StreamingJobStore store(m);
    std::vector<Job> jobs(kRows);
    std::vector<std::vector<Work>> by_machine(m, std::vector<Work>(kRows));
    for (std::size_t j = 0; j < kRows; ++j) {
      jobs[j].id = static_cast<JobId>(j);
      jobs[j].release = static_cast<Time>(j);
      StreamJob job;
      job.release = jobs[j].release;
      job.processing = rows[j];
      store.append(job);
      for (std::size_t i = 0; i < m; ++i) by_machine[i][j] = rows[j][i];
    }
    const Instance instance(jobs, by_machine);

    // With coeff 1, pcm 0 and pmp FLT_MAX, lb_fill's mul, min, mul, add
    // return its rounded p unchanged, exposing the bulk conversion.
    const std::vector<float> pcm(m, 0.0f);
    const std::vector<float> pmp(m, std::numeric_limits<float>::max());
    std::vector<float> lb(m);
    for (std::size_t j = 0; j < kRows; ++j) {
      const auto id = static_cast<JobId>(j);
      const Work* tile = tiles.fill_generated(id, generator).p.data();
      const Work* dense = store.processing_row(id);
      const Work* batch = instance.processing_row(id);
      lb_fill(batch, pcm.data(), pmp.data(), 1.0f, lb.data(), m);
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t want = bits_of(lower_reference(rows[j][i]));
        ASSERT_EQ(bits_of(float_lower(tile[i])), want)
            << "tile m=" << m << " j=" << j;
        ASSERT_EQ(bits_of(float_lower(dense[i])), want)
            << "store m=" << m << " j=" << j;
        ASSERT_EQ(bits_of(float_lower(batch[i])), want)
            << "instance m=" << m << " j=" << j;
        ASSERT_EQ(bits_of(lb[i]), want) << "lb_fill m=" << m << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace osched::util

// Sharded multi-tenant driver: S independent SchedulerSessions served by
// per-shard persistent workers.
//
// Each shard is one tenant's session — its own job store, clock, event
// queue and policy state. The caller stages operations per shard
// (submit/advance, in arrival order); flush() hands each shard's staged
// batch to its owning worker through a lock-free MPSC queue (one heap node
// per BATCH, never per operation), and sync() blocks until every handed-off
// batch has been applied. pump() = flush() + sync(), the original blocking
// contract. Because a shard's operations are applied sequentially, in
// staging order, by exactly one owner, every session's outcome is
// bit-identical for any worker count — the same per-unit determinism
// contract the experiment harness keeps, now for serving.
// tests/streaming_test.cpp pins worker-count invariance down.
//
// Worker model: `threads` persistent workers (capped at the shard count)
// each own a fixed subset of shards (shard s belongs to worker s % W) and
// sleep on their own condition variable when their inboxes are empty — no
// shared task queue, no per-chunk std::function allocation, no global
// mutex on the submission path. Shard state is cache-line-aligned so two
// workers never false-share a shard.
//
// When one worker (or fewer) would remain — notably on single-core hosts —
// the driver runs INLINE: operations apply directly on the calling thread
// at submit()/advance() time, flush()/sync() are no-ops, and the only
// overhead over a bare SchedulerSession is the shard lookup. Outcomes are
// identical either way.
//
// The caller-facing thread model is single-producer: submit()/advance()/
// flush()/sync()/pump()/drain_all() are called from one thread (a
// frontend's ingest loop); parallelism happens inside the workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/scheduler_session.hpp"
#include "util/mpsc_queue.hpp"

namespace osched::service {

/// Worker placement across NUMA nodes. PLACEMENT ONLY: every policy yields
/// bit-identical session outcomes (the worker-count invariance contract);
/// what changes is which node's memory a shard's lazily grown state lands
/// on, via pinned first-touch.
enum class NumaPolicy : std::uint8_t {
  /// No pinning — the OS scheduler places workers (PR 11 and earlier
  /// behavior; byte-identical setup on single-node hosts either way).
  kNone,
  /// Pin worker w to NUMA node (w mod nodes), so the shards a worker owns
  /// are first-touched — and stay — on that worker's node. A no-op in
  /// inline mode and on single-node hosts (including masked-sysfs
  /// containers, where topology degrades to one node).
  kInterleave,
};

struct ShardDriverOptions {
  /// Persistent workers; 0 = hardware concurrency. Capped at the shard
  /// count; a resolved count of <= 1 selects the inline (worker-less) mode.
  std::size_t threads = 0;
  /// NUMA worker placement (see NumaPolicy). A runtime concern like
  /// `threads`: not checkpointed; restore() chooses it fresh.
  NumaPolicy numa_policy = NumaPolicy::kNone;
  /// Applied to every shard's session.
  SessionOptions session;
  /// Bound on a shard's handed-off-but-unapplied batches (flush() units) —
  /// the MPSC queue depth. 0 = unbounded. At the bound, try_submit()/
  /// try_advance() refuse further staging for that shard; the caller backs
  /// off (sync(), or serve other shards) and retries. Plain submit()/
  /// advance() ignore the bound (their callers opted into unbounded
  /// buffering). A runtime concern like `threads`: not checkpointed.
  std::size_t max_inflight_batches = 0;
  /// Fair multi-tenant backpressure: deficit-round-robin admission over
  /// staged operations. 0 = disabled (PR 7 behavior). When set, every
  /// shard holds a credit of ops it may stage this round; try_submit()/
  /// try_advance() return kDeferred for a shard whose credit is exhausted,
  /// and flush() starts the next round by replenishing every shard's
  /// credit by the quantum (unused credit carries over, capped at one
  /// extra quantum — the "deficit" part, so a bursty tenant is not
  /// punished for an idle round). A hot tenant is thus bounded to at most
  /// 2×quantum ops per flush round while its siblings always have at
  /// least a full quantum available — it can saturate neither the
  /// inflight-batch slots nor its worker's time. Plain submit()/advance()
  /// bypass fairness, like they bypass the inflight bound. A runtime
  /// concern like `threads`: not checkpointed (see set_fair_quantum for
  /// restored drivers).
  std::size_t fair_quantum = 0;
};

/// Outcome of a bounded staging attempt (try_submit / try_advance) —
/// the driver-level unification of the session's SubmitOutcome with the
/// worker-mode staging refusals, so callers can tell WHY an op did not go
/// through (and thus whether to retry, back off, or drop) in both modes.
enum class StageOutcome : std::uint8_t {
  kAccepted,      ///< inline mode: applied, the session accepted it
  kStaged,        ///< worker mode: buffered for the owning worker
  kBackpressure,  ///< inline mode: the session's live window refused the
                  ///< job (SubmitOutcome::kBackpressure) — retry after
                  ///< decisions free slots
  kInflightFull,  ///< worker mode: shard at max_inflight_batches — back
                  ///< off (sync() or serve other shards) and retry
  kDeferred,      ///< fairness: the shard exhausted its DRR credit this
                  ///< round — flush() (a new round) re-admits it
};

/// True when the operation reached the session or its staging buffer.
inline bool stage_ok(StageOutcome outcome) {
  return outcome == StageOutcome::kAccepted ||
         outcome == StageOutcome::kStaged;
}

/// Per-shard overload/fairness counters surfaced by the driver (see
/// ShardDriver::shard_counters).
struct ShardCounters {
  std::size_t sheds = 0;            ///< session->num_shed()
  std::size_t backpressured = 0;    ///< session->num_backpressured()
  std::size_t deferred = 0;         ///< kDeferred staging refusals
  std::size_t inflight_refused = 0; ///< kInflightFull staging refusals
  std::uint64_t staged_ops = 0;     ///< ops admitted into the shard (lifetime)
  std::size_t max_batch_ops = 0;    ///< largest single handed-off batch
};

class ShardDriver {
 public:
  ShardDriver(api::Algorithm algorithm, std::size_t num_shards,
              std::size_t num_machines, ShardDriverOptions options = {});
  ~ShardDriver();

  ShardDriver(const ShardDriver&) = delete;
  ShardDriver& operator=(const ShardDriver&) = delete;

  std::size_t num_shards() const { return shards_.size(); }

  /// Persistent workers serving the shards; 0 means inline mode (operations
  /// run on the calling thread).
  std::size_t worker_count() const { return workers_.size(); }

  /// Stable tenant-key -> shard routing (SplitMix64 of the key, mod S).
  std::size_t shard_for(std::uint64_t tenant_key) const;

  /// Direct access for inspection (clock, live-job counts). Call sync()
  /// first; the session must not be mutated between pumps except through
  /// the driver.
  SchedulerSession& session(std::size_t shard);

  /// Stages one arrival for `shard` (inline mode: applies it immediately).
  void submit(std::size_t shard, const StreamJob& job);
  /// Stages a clock advance for `shard`, ordered after the submissions
  /// staged so far (inline mode: applies it immediately).
  void advance(std::size_t shard, Time to);

  /// Bounded staging: refuses (staging nothing) when fairness credit is
  /// exhausted (kDeferred) or the shard is at max_inflight_batches
  /// (kInflightFull) — the retry/backoff contract for overloaded ingest
  /// loops. Inline mode forwards the session's SubmitOutcome (kAccepted /
  /// kBackpressure), so callers distinguish a session-window refusal from
  /// a staging refusal in both modes through one return type. Worker mode
  /// cannot deliver per-job backpressure (ops apply asynchronously);
  /// sessions driven through workers should use shed_budget (absorbing)
  /// rather than a bare window cap, which would abort inside the worker.
  StageOutcome try_submit(std::size_t shard, const StreamJob& job);
  /// Bounded counterpart of advance(), same refusal rules (in inline mode
  /// an advance with credit always applies and returns kAccepted).
  StageOutcome try_advance(std::size_t shard, Time to);

  /// Handed-off-but-unapplied batches for `shard` right now (worker mode;
  /// 0 in inline mode).
  std::size_t inflight_batches(std::size_t shard) const;

  /// Overload/fairness counters for one shard. The session-side fields
  /// read the shard's session, so in worker mode call sync() first (same
  /// rule as session()); the staging-side fields are producer-owned and
  /// always current.
  ShardCounters shard_counters(std::size_t shard) const;

  /// Adjusts the DRR quantum at runtime (same meaning as
  /// ShardDriverOptions::fair_quantum; 0 disables fairness). The knob for
  /// restored drivers, whose checkpoints deliberately carry no runtime
  /// concerns. Takes effect from the next staging attempt; per-shard
  /// credits are reset to one fresh quantum. Producer-thread only.
  void set_fair_quantum(std::size_t quantum);
  std::size_t fair_quantum() const { return fair_quantum_; }

  /// Hands every staged batch to the owning workers. Non-blocking: the
  /// caller can keep staging the next wave while workers chew this one.
  void flush();

  /// Blocks until every flushed batch has been applied.
  void sync();

  /// flush() + sync(): applies every buffered operation and blocks until
  /// all are done — the original blocking contract.
  void pump();

  /// pump()s the remaining backlog, then drains every session (on the
  /// workers, in parallel). Results are in shard order. The driver is
  /// finished afterwards.
  std::vector<api::RunSummary> drain_all();

  /// pump()s the backlog, then serializes every shard's session into one
  /// versioned, checksummed blob (format: service/checkpoint.hpp; spec:
  /// docs/ARCHITECTURE.md). Requires undrained, retain_records sessions.
  /// The driver is untouched and remains usable.
  std::string checkpoint();

  /// Rebuilds a driver (and every tenant session, bit-identically — see
  /// SchedulerSession::restore) from a checkpoint() blob. `threads` is a
  /// runtime concern, not session state, so it is chosen fresh (same
  /// meaning as ShardDriverOptions::threads). When any shard is
  /// generator-backed, `generator` supplies the shared closed
  /// form, exactly as for SchedulerSession::restore — one form for the
  /// whole fleet, matching how SessionOptions applies to every shard.
  /// Damaged input returns nullptr with a diagnostic in *error.
  static std::unique_ptr<ShardDriver> restore(
      std::string_view blob, std::size_t threads, std::string* error,
      std::shared_ptr<const RowGenerator> generator = nullptr,
      NumaPolicy numa_policy = NumaPolicy::kNone);

  /// Workers actually pinned to a NUMA node (0 under NumaPolicy::kNone, in
  /// inline mode, on single-node hosts, and for workers whose pin attempt
  /// failed — pinning is best-effort, never a correctness requirement).
  /// Readable after construction; stable for the driver's lifetime.
  std::size_t pinned_workers() const {
    return pinned_workers_.load(std::memory_order_acquire);
  }

 private:
  struct Op {
    enum class Kind : std::uint8_t { kSubmit, kAdvance, kDrain };
    Kind kind = Kind::kSubmit;
    Time to = 0.0;
    StreamJob job;
  };

  /// Cache-line-aligned so two workers (and the producer) never false-share
  /// neighbouring shards' state.
  struct alignas(64) Shard {
    std::unique_ptr<SchedulerSession> session;
    std::vector<Op> staging;              ///< producer-side wave buffer
    util::MpscQueue<std::vector<Op>> inbox;
    std::atomic<std::uint64_t> batches_submitted{0};
    std::atomic<std::uint64_t> batches_done{0};
    api::RunSummary drain_result;         ///< written by the drain op
    bool drained = false;
    // Producer-owned fairness/telemetry state (single-producer contract:
    // only the staging thread reads or writes these).
    std::size_t credit = 0;               ///< DRR ops left this round
    std::size_t deferred = 0;             ///< kDeferred refusals (lifetime)
    std::size_t inflight_refused = 0;     ///< kInflightFull refusals
    std::uint64_t staged_ops = 0;         ///< admitted ops (lifetime)
    std::size_t max_batch_ops = 0;        ///< largest handed-off batch
  };

  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    bool signal = false;
    bool stop = false;
    std::vector<std::size_t> shards;  ///< owned shard indices
    int numa_node = -1;  ///< target node under kInterleave; -1 = unpinned
  };

  /// Restore path: shards_ is filled from the checkpoint before
  /// start_workers runs.
  ShardDriver() = default;
  /// Spins up the worker pool (or selects inline mode) over the already
  /// populated shards_ — the shared tail of both construction paths.
  void start_workers(std::size_t threads, NumaPolicy numa_policy);

  bool inline_mode() const { return workers_.empty(); }
  bool at_inflight_cap(const Shard& s) const;
  void apply(Shard& shard, Op& op) const;
  void worker_loop(Worker& worker);
  void wake(Worker& worker);

  /// Fairness gate shared by try_submit/try_advance: refuses (kDeferred,
  /// counting it) when DRR is on and the shard's round credit is spent.
  bool fairness_refuses(Shard& s);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t max_inflight_ = 0;  ///< ShardDriverOptions::max_inflight_batches
  std::size_t fair_quantum_ = 0;  ///< ShardDriverOptions::fair_quantum
  /// Written by each worker once at startup (success of its own pin call);
  /// monotonic, so a relaxed-ish acquire read after construction is stable.
  std::atomic<std::size_t> pinned_workers_{0};
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
};

}  // namespace osched::service

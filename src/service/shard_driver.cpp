#include "service/shard_driver.hpp"

#include <algorithm>
#include <utility>

#include "service/checkpoint.hpp"
#include "util/rng.hpp"

namespace osched::service {

ShardDriver::ShardDriver(api::Algorithm algorithm, std::size_t num_shards,
                         std::size_t num_machines, ShardDriverOptions options) {
  OSCHED_CHECK_GT(num_shards, 0u);
  max_inflight_ = options.max_inflight_batches;
  fair_quantum_ = options.fair_quantum;
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->session = std::make_unique<SchedulerSession>(algorithm, num_machines,
                                                        options.session);
    shard->credit = fair_quantum_;
    shards_.push_back(std::move(shard));
  }
  start_workers(options.threads);
}

void ShardDriver::set_fair_quantum(std::size_t quantum) {
  fair_quantum_ = quantum;
  for (auto& shard : shards_) shard->credit = quantum;
}

ShardCounters ShardDriver::shard_counters(std::size_t shard) const {
  OSCHED_CHECK_LT(shard, shards_.size());
  const Shard& s = *shards_[shard];
  ShardCounters counters;
  counters.sheds = s.session->num_shed();
  counters.backpressured = s.session->num_backpressured();
  counters.deferred = s.deferred;
  counters.inflight_refused = s.inflight_refused;
  counters.staged_ops = s.staged_ops;
  counters.max_batch_ops = s.max_batch_ops;
  return counters;
}

bool ShardDriver::fairness_refuses(Shard& s) {
  if (fair_quantum_ == 0) return false;
  if (s.credit == 0) {
    ++s.deferred;
    return true;
  }
  return false;
}

void ShardDriver::start_workers(std::size_t threads) {
  const std::size_t num_shards = shards_.size();
  std::size_t workers = threads != 0
                            ? threads
                            : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, num_shards);
  // One worker buys no parallelism — inline application on the caller's
  // thread drops the staging copies, the hand-off and the context
  // switches, which on a single-core host is the whole cost.
  if (workers <= 1) return;

  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    workers_[s % workers]->shards.push_back(s);
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, worker = worker.get()] {
      worker_loop(*worker);
    });
  }
}

ShardDriver::~ShardDriver() {
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      worker->stop = true;
    }
    worker->cv.notify_one();
  }
  for (auto& worker : workers_) worker->thread.join();
}

std::size_t ShardDriver::shard_for(std::uint64_t tenant_key) const {
  return util::derive_seed(0x5AA5D000D15EA5EULL, tenant_key) % shards_.size();
}

SchedulerSession& ShardDriver::session(std::size_t shard) {
  OSCHED_CHECK_LT(shard, shards_.size());
  return *shards_[shard]->session;
}

void ShardDriver::submit(std::size_t shard, const StreamJob& job) {
  OSCHED_CHECK_LT(shard, shards_.size());
  Shard& s = *shards_[shard];
  if (inline_mode()) {
    s.session->submit(job);
    return;
  }
  Op op;
  op.kind = Op::Kind::kSubmit;
  op.job = job;
  s.staging.push_back(std::move(op));
}

void ShardDriver::advance(std::size_t shard, Time to) {
  OSCHED_CHECK_LT(shard, shards_.size());
  Shard& s = *shards_[shard];
  if (inline_mode()) {
    s.session->advance(to);
    return;
  }
  Op op;
  op.kind = Op::Kind::kAdvance;
  op.to = to;
  s.staging.push_back(std::move(op));
}

StageOutcome ShardDriver::try_submit(std::size_t shard, const StreamJob& job) {
  OSCHED_CHECK_LT(shard, shards_.size());
  Shard& s = *shards_[shard];
  // Fairness gates before the inflight bound: a deferred shard must not
  // burn its siblings' chance at a refusal diagnosis that will still hold
  // next round, and the counters stay disjoint (one refusal, one reason).
  if (fairness_refuses(s)) return StageOutcome::kDeferred;
  if (inline_mode()) {
    if (s.session->try_submit(job) != SubmitOutcome::kAccepted) {
      return StageOutcome::kBackpressure;
    }
    if (fair_quantum_ != 0) --s.credit;
    ++s.staged_ops;
    return StageOutcome::kAccepted;
  }
  if (at_inflight_cap(s)) {
    ++s.inflight_refused;
    return StageOutcome::kInflightFull;
  }
  Op op;
  op.kind = Op::Kind::kSubmit;
  op.job = job;
  s.staging.push_back(std::move(op));
  if (fair_quantum_ != 0) --s.credit;
  ++s.staged_ops;
  return StageOutcome::kStaged;
}

StageOutcome ShardDriver::try_advance(std::size_t shard, Time to) {
  OSCHED_CHECK_LT(shard, shards_.size());
  Shard& s = *shards_[shard];
  if (fairness_refuses(s)) return StageOutcome::kDeferred;
  if (inline_mode()) {
    s.session->advance(to);
    if (fair_quantum_ != 0) --s.credit;
    ++s.staged_ops;
    return StageOutcome::kAccepted;
  }
  if (at_inflight_cap(s)) {
    ++s.inflight_refused;
    return StageOutcome::kInflightFull;
  }
  Op op;
  op.kind = Op::Kind::kAdvance;
  op.to = to;
  s.staging.push_back(std::move(op));
  if (fair_quantum_ != 0) --s.credit;
  ++s.staged_ops;
  return StageOutcome::kStaged;
}

std::size_t ShardDriver::inflight_batches(std::size_t shard) const {
  OSCHED_CHECK_LT(shard, shards_.size());
  const Shard& s = *shards_[shard];
  // done <= submitted always (submitted is written by this thread only —
  // the single-producer contract), so the difference cannot wrap.
  return static_cast<std::size_t>(
      s.batches_submitted.load(std::memory_order_acquire) -
      s.batches_done.load(std::memory_order_acquire));
}

bool ShardDriver::at_inflight_cap(const Shard& s) const {
  if (max_inflight_ == 0) return false;
  return s.batches_submitted.load(std::memory_order_acquire) -
             s.batches_done.load(std::memory_order_acquire) >=
         max_inflight_;
}

void ShardDriver::flush() {
  // A flush is a DRR round boundary in both modes: every shard's credit is
  // replenished by the quantum, with unused credit carrying over up to one
  // extra quantum (the deficit). This runs before the inline early-return
  // so inline-mode callers pace rounds with the same flush()/pump() calls.
  if (fair_quantum_ != 0) {
    for (auto& shard : shards_) {
      shard->credit = std::min(shard->credit + fair_quantum_,
                               2 * fair_quantum_);
    }
  }
  if (inline_mode()) return;
  const std::size_t workers = workers_.size();
  // Hand off every non-empty staged batch, then wake each involved worker
  // once (not once per shard).
  std::vector<bool> wake_worker(workers, false);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (shard.staging.empty()) continue;
    shard.max_batch_ops = std::max(shard.max_batch_ops, shard.staging.size());
    shard.inbox.push(std::move(shard.staging));
    shard.staging.clear();
    shard.batches_submitted.fetch_add(1, std::memory_order_release);
    wake_worker[s % workers] = true;
  }
  for (std::size_t w = 0; w < workers; ++w) {
    if (wake_worker[w]) wake(*workers_[w]);
  }
}

void ShardDriver::sync() {
  if (inline_mode()) return;
  const auto all_done = [this] {
    for (const auto& shard : shards_) {
      if (shard->batches_done.load(std::memory_order_acquire) !=
          shard->batches_submitted.load(std::memory_order_acquire)) {
        return false;
      }
    }
    return true;
  };
  std::unique_lock<std::mutex> lock(sync_mutex_);
  sync_cv_.wait(lock, all_done);
}

void ShardDriver::pump() {
  flush();
  sync();
}

std::vector<api::RunSummary> ShardDriver::drain_all() {
  pump();
  std::vector<api::RunSummary> results(shards_.size());
  if (inline_mode()) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      results[s] = shards_[s]->session->drain();
    }
    return results;
  }
  // Drain as one more per-shard op, so the heavy run-to-quiescence work
  // happens on the workers, in parallel.
  for (auto& shard : shards_) {
    Op op;
    op.kind = Op::Kind::kDrain;
    shard->staging.push_back(std::move(op));
  }
  pump();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    OSCHED_CHECK(shards_[s]->drained) << "shard " << s << " did not drain";
    results[s] = std::move(shards_[s]->drain_result);
  }
  return results;
}

std::string ShardDriver::checkpoint() {
  pump();  // every staged/handed-off op is applied; sessions are quiescent
  CheckpointWriter w;
  w.bytes(kDriverCheckpointMagic, sizeof(kDriverCheckpointMagic));
  w.u32(kCheckpointVersion);
  w.u64(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    OSCHED_CHECK(!shards_[s]->drained)
        << "checkpoint() after shard " << s << " drained";
    const std::string blob = shards_[s]->session->checkpoint();
    w.u64(blob.size());
    w.bytes(blob.data(), blob.size());
  }
  return w.finish();
}

std::unique_ptr<ShardDriver> ShardDriver::restore(
    std::string_view blob, std::size_t threads, std::string* error,
    std::shared_ptr<const RowGenerator> generator) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return nullptr;
  };

  CheckpointReader r(blob);
  r.open(kDriverCheckpointMagic, "shard-driver");
  const std::uint64_t num_shards = r.u64();
  if (!r.ok()) return fail(r.error());
  if (num_shards == 0) {
    return fail("checkpoint corrupted: zero shards");
  }
  // Each shard costs at least its 8-byte length prefix: a forged count
  // larger than the blob can carry is rejected before the reserve below.
  if (num_shards > r.remaining() / 8) {
    return fail("checkpoint corrupted: shard count exceeds blob size");
  }

  // Private default ctor: make_unique cannot reach it.
  std::unique_ptr<ShardDriver> driver(new ShardDriver());
  driver->shards_.reserve(static_cast<std::size_t>(num_shards));
  for (std::uint64_t s = 0; s < num_shards; ++s) {
    const std::uint64_t size = r.u64();
    if (!r.ok()) return fail(r.error());
    if (size > r.remaining()) {
      return fail("checkpoint truncated: shard " + std::to_string(s) +
                  " blob extends past the checkpoint");
    }
    const std::string_view session_blob =
        r.view(static_cast<std::size_t>(size));
    OSCHED_CHECK(r.ok()) << r.error();  // size was just checked
    std::string session_error;
    auto session =
        SchedulerSession::restore(session_blob, &session_error, generator);
    if (session == nullptr) {
      return fail("shard " + std::to_string(s) + ": " + session_error);
    }
    auto shard = std::make_unique<Shard>();
    shard->session = std::move(session);
    driver->shards_.push_back(std::move(shard));
  }
  if (r.remaining() != 0) {
    return fail("checkpoint corrupted: " + std::to_string(r.remaining()) +
                " trailing bytes after the last shard");
  }
  driver->start_workers(threads);
  if (error != nullptr) error->clear();
  return driver;
}

void ShardDriver::apply(Shard& shard, Op& op) const {
  switch (op.kind) {
    case Op::Kind::kSubmit:
      shard.session->submit(op.job);
      break;
    case Op::Kind::kAdvance:
      shard.session->advance(op.to);
      break;
    case Op::Kind::kDrain:
      shard.drain_result = shard.session->drain();
      shard.drained = true;
      break;
  }
}

void ShardDriver::wake(Worker& worker) {
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.signal = true;
  }
  worker.cv.notify_one();
}

void ShardDriver::worker_loop(Worker& worker) {
  std::vector<std::vector<Op>> batches;
  for (;;) {
    bool did_work = false;
    for (const std::size_t s : worker.shards) {
      Shard& shard = *shards_[s];
      batches.clear();
      if (shard.inbox.drain(batches) == 0) continue;
      did_work = true;
      for (auto& ops : batches) {
        for (Op& op : ops) apply(shard, op);
        shard.batches_done.fetch_add(1, std::memory_order_release);
        // Empty critical section: pairs with sync()'s predicate re-check,
        // so a syncer between its check and its wait cannot miss this.
        { std::lock_guard<std::mutex> lock(sync_mutex_); }
        sync_cv_.notify_all();
      }
    }
    if (did_work) continue;
    std::unique_lock<std::mutex> lock(worker.mutex);
    if (worker.stop) return;
    worker.cv.wait(lock, [&worker] { return worker.signal || worker.stop; });
    if (worker.stop) return;
    worker.signal = false;
  }
}

}  // namespace osched::service

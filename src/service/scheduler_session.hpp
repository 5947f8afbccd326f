// Streaming scheduler sessions: online policies as long-lived services.
//
// api::run() materializes a whole Instance and runs a policy to completion.
// A SchedulerSession runs the SAME policy state machine incrementally:
//
//   service::SchedulerSession session(api::Algorithm::kTheorem1, m);
//   for (const StreamJob& job : chunk) session.submit(job);   // arrivals
//   session.advance(t);          // let completions fire up to time t
//   api::RunSummary summary = session.drain();   // end of stream
//
// submit() delivers the arrival to the policy after firing every internal
// event (completion) due at or before the job's release — through the same
// EventLoop (sim/engine.hpp) SimEngine runs — so a streamed run makes
// bit-identical decisions to the batch run of the same jobs, regardless of
// how the stream is chunked. tests/streaming_test.cpp pins that down
// differentially.
//
// Memory modes:
//  * retain_records = true (default): every record and job row is kept; at
//    drain() the session validates the schedule and computes the objective
//    report with the same code as api::run, reading the job store in place
//    (no Instance is built) — the RunSummary is byte-identical to the batch
//    one. The store's blocks are freed with the session.
//  * retain_records = false: once a job's fate is sealed and the decided
//    frontier passes it, its record, job row and per-job policy state are
//    folded into running aggregates and released — the footprint tracks
//    the live window, not the trace (the ROADMAP's constant-memory n=1e6
//    target; bench_e17_streaming measures it). The drained RunSummary
//    carries an empty Schedule and an aggregate-only report; per-job folds
//    happen in id order, so the deterministic totals (flow, counts,
//    makespan) still match the batch run exactly. Requires
//    run.validate = false (there is no retained schedule to validate) and
//    is unavailable for kTheorem2, whose dual needs a full end pass.
//
// Sessions exist for every *online arrival-time* policy the facade names:
// kTheorem1, kTheorem2, kWeightedExt, kGreedySpt, kFifo, kImmediateReject.
// kTheorem3 (configuration primal-dual over a discretized horizon) is not
// an arrival-driven state machine and stays batch-only.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "api/scheduler_api.hpp"
#include "instance/stream_job.hpp"

namespace osched::service {

/// How a saturated live window picks and budgets its overload sheds.
enum class ShedPolicy : std::uint8_t {
  /// PR 7 rule, bit-identical (the oracle the adaptive mode is checked
  /// against): a fixed lifetime budget (SessionOptions::shed_budget) and
  /// the lowest-value victim order (smallest weight, ties to largest
  /// queued p, then largest id).
  kFixedBudget = 0,
  /// Paper-derived rule: the budget is the unspent part of Theorem 1's
  /// rejection allowance — sheds may fire while
  ///   charged_rejections() + sheds_spent < floor(2·ε·n)
  /// (n counts the triggering arrival; ε is run.epsilon;
  /// charged_rejections() is the policy's own Rule 1 + Rule 2 / ε-budget
  /// count) — and the victim rule is Rule 2's, generalized across
  /// machines: the globally largest queued effective processing time.
  /// Theorem 1 books each shed into its FlowDualAccounting exactly like a
  /// Rule 2 rejection (definitive-finish extension + finalize), so the
  /// degradation cost stays inside the paper's charging argument and the
  /// dual certificate remains valid. SessionOptions::shed_budget is
  /// ignored in this mode. Like the fixed rule, sheds stay a pure
  /// function of the accepted arrivals, so checkpoint replay reproduces
  /// them bit for bit.
  kEpsilonCharged = 1,
};

/// Deterministic live-window-cap auto-tuning from the observed arrival
/// rate. The estimator is windowed over SUBMITTED VIRTUAL TIME (accepted
/// arrivals' release timestamps), never over wall clock or chunk
/// boundaries — so a batch feed, any streamed chunking, and a checkpoint
/// replay of the accepted journal all reproduce every cap decision
/// bit for bit (the same invariant the shed sequence keeps).
struct AdaptiveCapOptions {
  /// Off by default: the cap stays pinned at live_window_cap (PR 7).
  bool enabled = false;
  /// Hysteresis bounds: the effective cap never leaves [min_cap, max_cap].
  /// min_cap must be >= 1 and max_cap >= min_cap when enabled.
  std::size_t min_cap = 0;
  std::size_t max_cap = 0;
  /// Trailing virtual-time width of the rate estimate (finite, > 0): an
  /// accepted arrival at release r counts while r > latest_release - window.
  double window = 0.0;
  /// Sizing target: desired cap = ceil(observed_rate * target_delay),
  /// clamped to the bounds — the window the session would need for a job
  /// admitted at the observed rate to wait ~target_delay before its slot
  /// frees (finite, > 0).
  double target_delay = 0.0;
  /// Dead-band: the cap moves only when |desired - current| exceeds this
  /// many slots, so a rate hovering at a sizing boundary cannot flap the
  /// cap (and with it the shed pattern) on every arrival.
  std::size_t hysteresis = 0;
};

struct SessionOptions {
  /// Per-algorithm knobs, same meaning as api::run.
  api::RunOptions run;
  /// See the header comment: full retention (batch-identical drain) vs
  /// sliding-window memory (aggregate-only drain).
  bool retain_records = true;
  /// Low-memory mode: fold-and-release runs every time this many newly
  /// sealed jobs accumulate below the decided frontier.
  std::size_t retire_batch = 8192;
  /// Overload control: cap on live_jobs() (submitted, fate not yet sealed).
  /// 0 = uncapped (the default; the hot path is untouched). At the cap,
  /// try_submit() refuses new arrivals with kBackpressure instead of
  /// growing the window; plain submit() aborts, since its callers opted
  /// into unbounded ingest.
  std::size_t live_window_cap = 0;
  /// Budgeted load-shed: total overload sheds the session may perform over
  /// its lifetime (0 = none). A saturated window first force-rejects the
  /// policy's lowest-value pending jobs (SimulationHooks::on_shed) to make
  /// room for the arrival; once the budget is spent, or when every live
  /// job is already running and nothing can be shed, saturation returns
  /// kBackpressure. Sheds fire only when they make the triggering arrival
  /// admissible — a refused submit never sheds — so the shed sequence is a
  /// deterministic function of the accepted arrivals alone, which is what
  /// lets checkpoint replay (which carries accepted jobs only) reproduce
  /// every shed decision bit for bit.
  std::size_t shed_budget = 0;
  /// Victim rule + budget source for those sheds (see ShedPolicy). The
  /// default keeps PR 7's fixed rule bit-identical; kEpsilonCharged
  /// derives both from the paper's ε instead and ignores shed_budget.
  ShedPolicy shed_policy = ShedPolicy::kFixedBudget;
  /// Live-window-cap auto-tuning (see AdaptiveCapOptions). When enabled,
  /// live_window_cap seeds the initial cap (clamped into
  /// [min_cap, max_cap]; 0 seeds at min_cap) and the effective cap then
  /// tracks the observed arrival rate between the bounds. Checkpointed
  /// (configuration only; replay re-derives the cap).
  AdaptiveCapOptions adaptive_cap;
  /// Processing-time storage for the session's job store (the streaming
  /// counterpart of Instance's backend trio). kDense keeps the m-wide row
  /// per job (the default; the hot path is untouched). kSparseCsr stores
  /// eligible (machine, p) entries only — a restricted-assignment tenant's
  /// matrix cost tracks its eligibility, not m. kGenerator stores NO matrix
  /// at all: every p_ij is synthesized from `generator`, and submissions are
  /// metadata-only (fill_stream_job_meta). Scheduling decisions are
  /// byte-identical across backends (tests/streaming_test.cpp pins the trio
  /// differentially); only memory and the accepted submission forms differ.
  StorageBackend storage = StorageBackend::kDense;
  /// The shared closed form for kGenerator sessions (required there,
  /// rejected elsewhere). Shared: a thousand tenants of one closed-form
  /// family hold a thousand copies of this pointer, not of any matrix.
  std::shared_ptr<const RowGenerator> generator;
};

/// Result of a bounded ingest attempt (try_submit).
enum class SubmitOutcome {
  kAccepted,      ///< delivered to the policy (possibly after sheds)
  kBackpressure,  ///< live window saturated beyond the shed budget; the job
                  ///< was NOT ingested — retry after decisions free slots
};

class SchedulerSession {
 public:
  SchedulerSession(api::Algorithm algorithm, std::size_t num_machines,
                   SessionOptions options = {});
  ~SchedulerSession();

  SchedulerSession(const SchedulerSession&) = delete;
  SchedulerSession& operator=(const SchedulerSession&) = delete;

  api::Algorithm algorithm() const;
  std::size_t num_machines() const;
  /// Session clock: the latest time submit()/advance()/internal events have
  /// reached. Submissions must not be released before now().
  Time now() const;

  std::size_t num_submitted() const;
  /// Jobs with a sealed fate (completed or rejected).
  std::size_t num_decided() const;
  /// Jobs submitted but not yet sealed.
  std::size_t live_jobs() const;
  /// High-water mark of live_jobs() — the working-set size the low-memory
  /// mode's footprint is proportional to.
  std::size_t max_live_jobs() const;

  /// Recoverable pre-check of a submission (empty string = acceptable):
  /// structural job validity plus release-order/clock monotonicity.
  std::string validate_job(const StreamJob& job) const;

  /// Ingests one arrival and runs the policy's reaction (which may start,
  /// complete or reject jobs at times up to the job's release). Aborts on
  /// invalid input — multi-tenant frontends run validate_job first — and
  /// on a saturated live window (see SessionOptions::live_window_cap);
  /// callers expecting saturation use try_submit.
  JobId submit(const StreamJob& job);

  /// Bounded ingest: like submit(), but a live window saturated beyond the
  /// shed budget returns kBackpressure instead of aborting. A refused job
  /// is NOT ingested and the session is unchanged except for internal
  /// events due at or before job.release, which fire either way (they can
  /// only seal fates, freeing window slots) — so retrying the same job
  /// after advance() or later decisions is always legal. On kAccepted,
  /// *id (when non-null) receives the assigned JobId.
  SubmitOutcome try_submit(const StreamJob& job, JobId* id = nullptr);

  /// Overload sheds performed (lifetime; bounded by shed_budget under
  /// ShedPolicy::kFixedBudget, by the derived floor(2εn) allowance under
  /// kEpsilonCharged).
  std::size_t num_shed() const;
  /// try_submit calls refused with kBackpressure (lifetime).
  std::size_t num_backpressured() const;
  /// The effective live-window cap right now: live_window_cap under a
  /// fixed configuration, the auto-tuned value (always within
  /// [AdaptiveCapOptions::min_cap, max_cap]) when adaptive tuning is on.
  std::size_t current_window_cap() const;
  /// Sheds still available before the active policy's budget refuses the
  /// next one (fixed: shed_budget - num_shed(); ε-charged: the unspent
  /// part of floor(2·ε·(num_submitted()+1)) after the policy's own charged
  /// rejections and the sheds so far).
  std::size_t shed_allowance() const;

  /// The session store's current / lifetime-peak p_ij payload bytes
  /// (StreamingJobStore::matrix_bytes): the per-tenant memory metric that
  /// collapses for sparse sessions and is zero forever for generator ones.
  /// bench_e21_multitenant tracks the peak across a whole fleet.
  std::size_t matrix_bytes() const;
  std::size_t matrix_peak_bytes() const;

  /// Batch ingest: appends the whole span to the store in one
  /// validation/block-bookkeeping pass, then delivers the arrivals in order
  /// (internal events still fire between them, exactly as the one-job
  /// overload interleaves) — decisions are bit-identical to submitting the
  /// jobs one at a time, which tests/streaming_test.cpp pins down. Returns
  /// the FIRST assigned id (kInvalidJob for an empty span). Fold-and-release
  /// bookkeeping runs once per batch instead of once per job.
  JobId submit(std::span<const StreamJob> jobs);

  /// Fires every internal event due at or before `to` and moves the clock
  /// there. `to` must be >= now().
  void advance(Time to);

  /// Ends the stream: runs the policy to quiescence and returns the summary
  /// (see the memory-mode notes above). The session is finished afterwards;
  /// further submit/advance/drain calls abort.
  api::RunSummary drain();
  bool drained() const;

  /// Serializes the session into a versioned, checksummed replay journal
  /// (format: service/checkpoint.hpp; field-by-field spec:
  /// docs/ARCHITECTURE.md). Requires retain_records (a low-memory session
  /// has released the journal) and an undrained session. The session is
  /// untouched and remains usable.
  std::string checkpoint() const;

  /// Rebuilds a session from a checkpoint() blob by replaying its journal —
  /// the result is bit-identical to the original at its checkpoint clock
  /// (same records, same queues, same future decisions). Damaged input
  /// (truncated, corrupted, wrong version/magic) returns nullptr with a
  /// diagnostic in *error; it never aborts and never reads out of bounds.
  /// A generator-backed blob journals job metadata only — the
  /// closed form itself is code, not data — so the caller must supply the
  /// same `generator` the original session ran with; omitting it is a
  /// diagnosed failure, and supplying a DIFFERENT closed form silently
  /// yields a different (internally consistent) session, exactly like
  /// feeding a different trace. Dense and sparse blobs ignore `generator`.
  static std::unique_ptr<SchedulerSession> restore(
      std::string_view blob, std::string* error,
      std::shared_ptr<const RowGenerator> generator = nullptr);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Drives `instance` through a streaming session in `chunk_size`-job chunks
/// (submitting in release order, advancing the clock to the last submitted
/// release between chunks) and drains. With default options the result is
/// byte-identical to api::run(algorithm, instance, options) — the
/// differential tests compare exactly these two calls.
api::RunSummary streamed_run(api::Algorithm algorithm, const Instance& instance,
                             const api::RunOptions& options = {},
                             std::size_t chunk_size = 65536);

/// Same drive loop with full SessionOptions — the handle for running the
/// feed against a sparse- or generator-backed session. The submission form
/// follows the session: a kGenerator session is fed metadata-only jobs
/// (its closed form must be the instance's own generator for the results
/// to be comparable); otherwise fill_stream_job emits the instance
/// backend's natural form, which any matrix-backed session accepts. The
/// differential wall compares these runs byte-for-byte across backends.
/// (Named distinctly — an overload would make `{}` ambiguous at call sites.)
api::RunSummary streamed_session_run(api::Algorithm algorithm,
                                     const Instance& instance,
                                     const SessionOptions& session_options,
                                     std::size_t chunk_size = 65536);

}  // namespace osched::service

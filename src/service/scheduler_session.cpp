#include "service/scheduler_session.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "api/online_policies.hpp"
#include "metrics/metrics.hpp"
#include "service/checkpoint.hpp"
#include "service/job_store.hpp"
#include "service/session_schedule.hpp"
#include "sim/engine.hpp"

namespace osched::service {

namespace {

/// Type-erased owner of one policy instance. The session drives the policy
/// through SimulationHooks; finalize() reports its counters (the policy
/// table's report_counters).
class PolicyHost {
 public:
  virtual ~PolicyHost() = default;
  virtual SimulationHooks& hooks() = 0;
  virtual void retire_below(JobId frontier) = 0;
  virtual void finalize(api::RunSummary& summary) = 0;
};

template <class Policy>
class Host final : public PolicyHost {
 public:
  template <class Options>
  Host(const StreamingJobStore& store, SessionSchedule& rec,
       EventQueue& events, const Options& options)
      : policy_(store, rec, events, options) {}
  SimulationHooks& hooks() override { return policy_; }
  void retire_below(JobId frontier) override { policy_.retire_below(frontier); }
  void finalize(api::RunSummary& summary) override {
    api::report_counters(policy_, summary);
  }

 private:
  Policy policy_;
};

bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }

/// Journal bytes per job: the three job fields, plus the m-wide row for
/// dense. Exact for the fixed-stride dense and generator journals; for a
/// sparse journal it is the per-job minimum (the fields plus the entry
/// count), since the entries that follow vary per job.
std::size_t journal_stride(StorageBackend backend, std::size_t m) {
  switch (backend) {
    case StorageBackend::kDense:
      return (3 + m) * sizeof(double);
    case StorageBackend::kSparseCsr:
      return 3 * sizeof(double) + sizeof(std::uint32_t);
    case StorageBackend::kGenerator:
      break;
  }
  return 3 * sizeof(double);
}

std::unique_ptr<PolicyHost> make_host(api::Algorithm algorithm,
                                      const StreamingJobStore& store,
                                      SessionSchedule& rec, EventQueue& events,
                                      const api::RunOptions& run) {
  return api::with_online_policy<SessionSchedule>(
      algorithm, run,
      [&]<class Policy>(std::type_identity<Policy>, const auto& options)
          -> std::unique_ptr<PolicyHost> {
        return std::make_unique<Host<Policy>>(store, rec, events, options);
      });
}

}  // namespace

class SchedulerSession::Impl {
 public:
  Impl(api::Algorithm algorithm, std::size_t num_machines,
       SessionOptions options)
      : algorithm_(algorithm),
        options_(options),
        store_(num_machines, /*jobs_per_block=*/4096, options.storage,
               options.generator),
        loop_(&options_.run.fleet),
        host_(make_host(algorithm, store_, records_, loop_.events(),
                        options.run)) {
    OSCHED_CHECK_GT(num_machines, 0u);
    OSCHED_CHECK(options.retain_records || !options.run.validate)
        << "low-memory sessions keep no schedule to validate; set "
           "run.validate = false (or retain records)";
    OSCHED_CHECK(options.retain_records ||
                 algorithm != api::Algorithm::kTheorem2)
        << "theorem2's dual finalization reads every record; low-memory "
           "sessions are unavailable for it";
    OSCHED_CHECK_GT(options.retire_batch, 0u);
    const AdaptiveCapOptions& tune = options_.adaptive_cap;
    if (tune.enabled) {
      OSCHED_CHECK_GE(tune.min_cap, 1u)
          << "adaptive cap: min_cap must be >= 1";
      OSCHED_CHECK_GE(tune.max_cap, tune.min_cap)
          << "adaptive cap: max_cap must be >= min_cap";
      OSCHED_CHECK(positive_finite(tune.window))
          << "adaptive cap: the rate-estimate window must be positive and "
             "finite (got " << tune.window << ")";
      OSCHED_CHECK(positive_finite(tune.target_delay))
          << "adaptive cap: target_delay must be positive and finite (got "
          << tune.target_delay << ")";
      cap_ = std::clamp(options_.live_window_cap, tune.min_cap, tune.max_cap);
    } else {
      cap_ = options_.live_window_cap;
    }
  }

  api::Algorithm algorithm() const { return algorithm_; }
  std::size_t num_machines() const { return store_.num_machines(); }
  Time now() const { return loop_.now(); }
  std::size_t num_submitted() const { return store_.num_jobs(); }
  std::size_t num_decided() const { return records_.num_decided(); }
  std::size_t live_jobs() const { return num_submitted() - num_decided(); }
  std::size_t max_live_jobs() const { return max_live_; }
  std::size_t num_shed() const { return sheds_spent_; }
  std::size_t num_backpressured() const { return backpressured_; }
  std::size_t matrix_bytes() const { return store_.matrix_bytes(); }
  std::size_t matrix_peak_bytes() const { return store_.matrix_peak_bytes(); }
  bool drained() const { return drained_; }

  /// Allocation-free form of validate_job: true iff it returns "".
  bool job_ok(const StreamJob& job) const {
    return !drained_ && store_.job_ok(job) && job.release >= now();
  }

  std::string validate_job(const StreamJob& job) const {
    if (drained_) return "session already drained; ";
    std::string problems = store_.validate_job(job);
    if (job.release < now()) {
      problems += "release precedes the session clock (advance() already "
                  "passed it); ";
    }
    return problems;
  }

  JobId submit(const StreamJob& job) {
    JobId id = kInvalidJob;
    const SubmitOutcome outcome = try_submit(job, &id);
    OSCHED_CHECK(outcome == SubmitOutcome::kAccepted)
        << "live window saturated (cap " << cap_ << ", live " << live_jobs()
        << "); bounded-ingest callers use try_submit()";
    return id;
  }

  SubmitOutcome try_submit(const StreamJob& job, JobId* id_out) {
    OSCHED_CHECK(job_ok(job))
        << "invalid streamed job " << num_submitted() << ": "
        << validate_job(job);
    return admit(job, id_out);
  }

  /// try_submit past its gate: the caller has run job_ok (restore() does
  /// for each replayed job), so the store appends without re-checking.
  SubmitOutcome admit(const StreamJob& job, JobId* id_out) {
    // Events first: completions due by the release seal fates and can free
    // window slots, so they fire whether or not the job is admitted (and
    // the admission decision must see the post-event window, or a full
    // window of already-finished jobs would refuse a perfectly good
    // arrival). fire_until never moves the clock past the release, so a
    // refused job can be resubmitted as-is.
    loop_.fire_until(job.release, host_->hooks());
    if (!make_room(job.release)) {
      ++backpressured_;
      return SubmitOutcome::kBackpressure;
    }
    const JobId j = store_.append_trusted(job);
    total_weight_ += job.weight;
    records_.ensure_size(static_cast<std::size_t>(j) + 1);
    loop_.advance_clock(job.release);
    host_->hooks().on_arrival(j, now());
    note_arrival(job.release);
    max_live_ = std::max(max_live_, live_jobs());
    maybe_fold();
    if (id_out != nullptr) *id_out = j;
    return SubmitOutcome::kAccepted;
  }

  JobId submit(std::span<const StreamJob> jobs) {
    OSCHED_CHECK(!drained_) << "submit() on a drained session";
    if (jobs.empty()) return kInvalidJob;
    // One clock check covers the batch: the validation pass guarantees the
    // remaining releases are non-decreasing, and delivering arrival k only
    // fires events due at or before r_k, so the clock can never overtake a
    // later release.
    OSCHED_CHECK_GE(jobs.front().release, now())
        << "job released at " << jobs.front().release
        << " submitted after the clock reached " << now();
    store_.validate_batch(jobs);
    const auto first = static_cast<JobId>(store_.num_jobs());
    records_.ensure_size(static_cast<std::size_t>(first) + jobs.size());
    // Append and deliver per job, exactly like the one-job submit minus its
    // per-job gate/bookkeeping: the just-appended row is dispatched while
    // cache-hot, the live window (and max_live_jobs) is identical to the
    // per-job feed, and the event interleaving never changes. Window
    // admission runs BEFORE the append (as try_submit does), so shed
    // decisions are identical however the feed is chunked; mid-batch
    // saturation aborts — backpressure-aware callers feed one at a time.
    SimulationHooks& hooks = host_->hooks();
    for (const StreamJob& job : jobs) {
      loop_.fire_until(job.release, hooks);
      OSCHED_CHECK(make_room(job.release))
          << "live window saturated mid-batch (cap " << cap_ << ", live "
          << live_jobs()
          << "); bounded-ingest callers use try_submit()";
      const JobId j = store_.append_trusted(job);
      total_weight_ += job.weight;
      loop_.advance_clock(job.release);
      hooks.on_arrival(j, now());
      note_arrival(job.release);
      max_live_ = std::max(max_live_, live_jobs());
    }
    maybe_fold();
    return first;
  }

  void advance(Time to) {
    OSCHED_CHECK(!drained_) << "advance() on a drained session";
    OSCHED_CHECK_GE(to, now()) << "advance() must not move the clock backwards";
    loop_.fire_until(to, host_->hooks());
    loop_.advance_clock(to);
    maybe_fold();
  }

  api::RunSummary drain() {
    OSCHED_CHECK(!drained_) << "drain() called twice";
    drained_ = true;
    loop_.fire_until(kTimeInfinity, host_->hooks());

    api::RunSummary summary;
    summary.algorithm = algorithm_;
    // Streamed stores keep no order table, so dispatch_order_width stays
    // at its default 0.
    host_->finalize(summary);

    if (options_.retain_records) {
      // The store holds every job (nothing retires in this mode), and the
      // validator and evaluate read it in place, as api::run does.
      summary.schedule = records_.to_schedule();
      api::finish_summary(summary, store_, options_.run);
    } else {
      fold_to(records_.decided_frontier());
      OSCHED_CHECK_EQ(static_cast<std::size_t>(records_.decided_frontier()),
                      store_.num_jobs())
          << "drained session left undecided jobs";
      summary.report = aggregate_report();
    }
    return summary;
  }

  std::string checkpoint() const {
    OSCHED_CHECK(!drained_) << "checkpoint() on a drained session";
    OSCHED_CHECK(options_.retain_records)
        << "checkpoint() requires retain_records: a low-memory session has "
           "already released the replay journal";
    CheckpointWriter w;
    w.bytes(kSessionCheckpointMagic, sizeof(kSessionCheckpointMagic));
    w.u32(kCheckpointVersion);
    w.u32(static_cast<std::uint32_t>(algorithm_));
    w.u64(store_.num_machines());
    const api::RunOptions& run = options_.run;
    w.f64(run.epsilon);
    w.f64(run.alpha);
    w.u64(run.speed_levels);
    w.f64(run.start_grid);
    w.u8(run.validate ? 1 : 0);
    const FleetPlan& plan = run.fleet;
    w.u64(plan.events.size());
    for (const FleetEvent& event : plan.events) {
      w.f64(event.time);
      w.u32(static_cast<std::uint32_t>(event.machine));
      w.u8(static_cast<std::uint8_t>(event.kind));
      w.f64(event.speed);  // multiplier (1.0 for membership kinds)
    }
    w.u64(plan.initially_down.size());
    for (const MachineId machine : plan.initially_down) {
      w.u32(static_cast<std::uint32_t>(machine));
    }
    w.u64(plan.rejection_budget);
    w.u8(plan.shed_killed_running ? 1 : 0);
    w.u64(options_.retire_batch);
    w.u64(options_.live_window_cap);  // overload control
    w.u64(options_.shed_budget);
    const StorageBackend backend = store_.backend();
    w.u8(static_cast<std::uint8_t>(backend));
    // Adaptive overload policy. Configuration only — the estimator
    // contents and the effective cap are pure functions of the accepted
    // journal below, so replay re-derives them (the same reason no shed or
    // rule state is serialized).
    w.u8(static_cast<std::uint8_t>(options_.shed_policy));
    const AdaptiveCapOptions& tune = options_.adaptive_cap;
    w.u8(tune.enabled ? 1 : 0);
    w.u64(tune.min_cap);
    w.u64(tune.max_cap);
    w.f64(tune.window);
    w.f64(tune.target_delay);
    w.u64(tune.hysteresis);
    w.f64(now());
    // The journal proper: every submitted job, in id order. Restore replays
    // these through submit() — policy state is never serialized. The payload
    // form per job follows the backend: dense writes the m-wide row; sparse
    // writes an entry count plus the eligible (machine, p) pairs; generator
    // writes the job fields only, since the closed form is code the
    // restoring caller must supply.
    w.u64(store_.num_jobs());
    const std::size_t m = store_.num_machines();
    if (backend != StorageBackend::kSparseCsr) {
      w.reserve(w.size() + store_.num_jobs() * journal_stride(backend, m) +
                sizeof(std::uint64_t));
    }
    for (std::size_t idx = 0; idx < store_.num_jobs(); ++idx) {
      const auto j = static_cast<JobId>(idx);
      const Job& job = store_.job(j);
      w.f64(job.release);
      w.f64(job.weight);
      w.f64(job.deadline);
      switch (backend) {
        case StorageBackend::kDense:
          w.f64s(store_.processing_row(j), m);
          break;
        case StorageBackend::kSparseCsr: {
          const EligibleMachines eligible = store_.eligible_machines(j);
          const Work* values = store_.csr_values(j);
          w.u32(static_cast<std::uint32_t>(eligible.size()));
          for (std::size_t k = 0; k < eligible.size(); ++k) {
            w.u32(static_cast<std::uint32_t>(eligible.begin()[k]));
            w.f64(values[k]);
          }
          break;
        }
        case StorageBackend::kGenerator:
          break;  // metadata only
      }
    }
    return w.finish();
  }

  /// Sheds still available under the active ShedPolicy. Fixed mode: the
  /// unspent part of the configured lifetime budget — guarded, not bare
  /// unsigned subtraction: sheds_spent_ <= shed_budget is an invariant
  /// (make_room only spends what this function reports), and the CHECK
  /// turns any future violation into a diagnostic instead of a wrapped
  /// near-2^64 allowance that would let every subsequent shed through.
  /// ε-charged mode: the unspent part of the paper's rejection allowance,
  /// floor(2·ε·n) with n counting the triggering arrival (every quantity
  /// is a pure function of the accepted prefix, so replay re-derives the
  /// same allowance at every step).
  std::size_t shed_allowance() const {
    if (options_.shed_policy == ShedPolicy::kFixedBudget) {
      OSCHED_CHECK_LE(sheds_spent_, options_.shed_budget)
          << "shed accounting corrupted: spent exceeds the fixed budget";
      return options_.shed_budget - sheds_spent_;
    }
    const double eps = options_.run.epsilon;
    const auto budget = static_cast<std::size_t>(
        2.0 * eps * static_cast<double>(num_submitted() + 1));
    const std::size_t charged =
        host_->hooks().charged_rejections() + sheds_spent_;
    return charged >= budget ? 0 : budget - charged;
  }

  std::size_t current_window_cap() const { return cap_; }

 private:
  /// Window admission for an arrival at time `at` (== its release; the
  /// clock has already caught up with every event due by then). Returns
  /// true when the arrival may be ingested, shedding first — the policy's
  /// lowest-value pending jobs (kFixedBudget) or the Rule-2-style largest
  /// pending jobs booked into the rejection accounting (kEpsilonCharged) —
  /// when the remaining allowance covers the FULL deficit (which exceeds 1
  /// only after an adaptive cap drop strands extra live jobs above the new
  /// cap). All-or-nothing on purpose: a refused submit must leave no
  /// trace, or replaying the accepted-jobs journal could not reproduce the
  /// shed sequence.
  bool make_room(Time at) {
    const std::size_t cap = cap_;
    if (cap == 0 || live_jobs() < cap) return true;
    const std::size_t deficit = live_jobs() - cap + 1;
    if (deficit > shed_allowance()) return false;
    const bool charged =
        options_.shed_policy == ShedPolicy::kEpsilonCharged;
    for (std::size_t k = 0; k < deficit; ++k) {
      // kInvalidJob: every live job is already RUNNING (no pending queue
      // anywhere holds a victim). Before any shed that is backpressure: a
      // failed lookup changes nothing, so the refusal leaves no trace.
      // After a partial shed (only an adaptive cap drop asks for more than
      // one), admit the overshoot — it is bounded by the machine count, and
      // a shed-then-refuse submit would break the determinism contract
      // above.
      const JobId victim = charged ? host_->hooks().on_shed_charged(at)
                                   : host_->hooks().on_shed(at);
      if (victim == kInvalidJob) return k > 0;
      ++sheds_spent_;
    }
    return true;
  }

  /// Feeds the arrival-rate estimator and re-tunes the cap (adaptive mode
  /// only). Called once per ACCEPTED arrival with its release — the
  /// estimator state is a pure function of the accepted release sequence,
  /// which is exactly what the checkpoint journal carries, so replay (and
  /// any chunking of the same feed) reproduces every cap move. advance()
  /// never touches it: an idle gap lowers the cap only when the next
  /// arrival's window looks back across the gap, keeping batch == streamed.
  void note_arrival(Time release) {
    const AdaptiveCapOptions& tune = options_.adaptive_cap;
    if (!tune.enabled) return;
    recent_.push_back(release);
    // The newest arrival always counts: with a window below the release's
    // ulp, release - window rounds to release itself.
    const Time floor_time = release - tune.window;
    while (recent_.size() > 1 && recent_.front() <= floor_time) {
      recent_.pop_front();
    }
    const double rate =
        static_cast<double>(recent_.size()) / tune.window;
    // Clamp in double before the cast: a huge target_delay or a tiny window
    // overflows the size_t conversion (the product may even be +inf).
    const double target = std::ceil(rate * tune.target_delay);
    const std::size_t desired =
        target >= static_cast<double>(tune.max_cap)
            ? tune.max_cap
            : std::clamp(static_cast<std::size_t>(target), tune.min_cap,
                         tune.max_cap);
    // Hysteresis dead-band: hold the cap until the sizing target has moved
    // decisively. Raises and lowers use the same threshold, so the cap
    // trajectory is a deterministic function of the release sequence.
    if (desired > cap_ && desired - cap_ > tune.hysteresis) {
      cap_ = desired;
    } else if (desired < cap_ && cap_ - desired > tune.hysteresis) {
      cap_ = desired;
    }
  }

  void maybe_fold() {
    if (options_.retain_records) return;
    const JobId frontier = records_.decided_frontier();
    if (static_cast<std::size_t>(frontier - folded_upto_) >=
        options_.retire_batch) {
      fold_to(frontier);
    }
  }

  /// Folds decided records [folded_upto_, frontier) into the running
  /// aggregates — in id order, the same order the batch report sums in, so
  /// the totals are bit-identical — then releases their memory everywhere.
  void fold_to(JobId frontier) {
    for (JobId j = folded_upto_; j < frontier; ++j) {
      const JobRecord& rec = records_.record(j);
      const Job& job = store_.job(j);
      const Time flow =
          (rec.completed() ? rec.end : rec.rejection_time) - job.release;
      if (rec.completed()) {
        ++agg_.completed;
        agg_.completed_flow += flow;
      } else {
        ++agg_.rejected;
        agg_.rejected_weight += job.weight;
      }
      agg_.total_flow += flow;
      agg_.weighted_flow += job.weight * flow;
      agg_.max_flow = std::max(agg_.max_flow, flow);
      if (rec.started) agg_.makespan = std::max(agg_.makespan, rec.end);
    }
    folded_upto_ = frontier;
    records_.retire_below(frontier);
    store_.retire_below(frontier);
    host_->retire_below(frontier);
  }

  ObjectiveReport aggregate_report() const {
    ObjectiveReport report;
    report.num_jobs = store_.num_jobs();
    report.num_completed = agg_.completed;
    report.num_rejected = agg_.rejected;
    if (report.num_jobs > 0) {
      report.rejected_fraction = static_cast<double>(report.num_rejected) /
                                 static_cast<double>(report.num_jobs);
    }
    if (total_weight_ > 0.0) {
      report.rejected_weight_fraction = agg_.rejected_weight / total_weight_;
    }
    report.total_flow = agg_.total_flow;
    report.completed_flow = agg_.completed_flow;
    report.total_weighted_flow = agg_.weighted_flow;
    report.max_flow = agg_.max_flow;
    report.makespan = agg_.makespan;
    return report;
  }

  struct Aggregates {
    std::size_t completed = 0;
    std::size_t rejected = 0;
    Weight rejected_weight = 0.0;
    Time total_flow = 0.0;
    Time completed_flow = 0.0;
    Time weighted_flow = 0.0;
    Time max_flow = 0.0;
    Time makespan = 0.0;
  };

  api::Algorithm algorithm_;
  SessionOptions options_;
  StreamingJobStore store_;
  SessionSchedule records_;
  EventLoop loop_;  ///< event queue, fleet cursor and clock
  bool drained_ = false;
  Weight total_weight_ = 0.0;
  std::size_t max_live_ = 0;
  std::size_t sheds_spent_ = 0;    ///< overload sheds (<= the allowance)
  std::size_t backpressured_ = 0;  ///< refused try_submit calls
  std::size_t cap_ = 0;            ///< effective live-window cap (tunable)
  /// Adaptive mode: releases of accepted arrivals inside the trailing
  /// estimator window (pruned as the newest release advances).
  std::deque<Time> recent_;
  JobId folded_upto_ = 0;
  Aggregates agg_;
  std::unique_ptr<PolicyHost> host_;
};

SchedulerSession::SchedulerSession(api::Algorithm algorithm,
                                   std::size_t num_machines,
                                   SessionOptions options)
    : impl_(std::make_unique<Impl>(algorithm, num_machines, options)) {}

SchedulerSession::~SchedulerSession() = default;

api::Algorithm SchedulerSession::algorithm() const { return impl_->algorithm(); }
std::size_t SchedulerSession::num_machines() const {
  return impl_->num_machines();
}
Time SchedulerSession::now() const { return impl_->now(); }
std::size_t SchedulerSession::num_submitted() const {
  return impl_->num_submitted();
}
std::size_t SchedulerSession::num_decided() const {
  return impl_->num_decided();
}
std::size_t SchedulerSession::live_jobs() const { return impl_->live_jobs(); }
std::size_t SchedulerSession::max_live_jobs() const {
  return impl_->max_live_jobs();
}
std::string SchedulerSession::validate_job(const StreamJob& job) const {
  return impl_->validate_job(job);
}
JobId SchedulerSession::submit(const StreamJob& job) {
  return impl_->submit(job);
}
SubmitOutcome SchedulerSession::try_submit(const StreamJob& job, JobId* id) {
  return impl_->try_submit(job, id);
}
std::size_t SchedulerSession::num_shed() const { return impl_->num_shed(); }
std::size_t SchedulerSession::num_backpressured() const {
  return impl_->num_backpressured();
}
std::size_t SchedulerSession::current_window_cap() const {
  return impl_->current_window_cap();
}
std::size_t SchedulerSession::shed_allowance() const {
  return impl_->shed_allowance();
}
std::size_t SchedulerSession::matrix_bytes() const {
  return impl_->matrix_bytes();
}
std::size_t SchedulerSession::matrix_peak_bytes() const {
  return impl_->matrix_peak_bytes();
}
JobId SchedulerSession::submit(std::span<const StreamJob> jobs) {
  return impl_->submit(jobs);
}
void SchedulerSession::advance(Time to) { impl_->advance(to); }
api::RunSummary SchedulerSession::drain() { return impl_->drain(); }
bool SchedulerSession::drained() const { return impl_->drained(); }
std::string SchedulerSession::checkpoint() const { return impl_->checkpoint(); }

std::unique_ptr<SchedulerSession> SchedulerSession::restore(
    std::string_view blob, std::string* error,
    std::shared_ptr<const RowGenerator> generator) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return nullptr;
  };

  CheckpointReader r(blob);
  r.open(kSessionCheckpointMagic, "session");
  if (!r.ok()) return fail(r.error());

  const std::uint32_t algorithm_raw = r.u32();
  const std::uint64_t num_machines = r.u64();
  SessionOptions options;
  options.run.epsilon = r.f64();
  options.run.alpha = r.f64();
  options.run.speed_levels = static_cast<std::size_t>(r.u64());
  options.run.start_grid = r.f64();
  options.run.validate = r.u8() != 0;
  FleetPlan& plan = options.run.fleet;
  const std::uint64_t num_fleet_events = r.u64();
  // Size sanity before any allocation: the count must fit in the bytes that
  // are actually present (21 per event: time, machine, kind, speed).
  if (r.ok() && num_fleet_events > r.remaining() / 21) {
    return fail("checkpoint corrupted: fleet event count exceeds blob size");
  }
  plan.events.reserve(static_cast<std::size_t>(num_fleet_events));
  for (std::uint64_t e = 0; r.ok() && e < num_fleet_events; ++e) {
    FleetEvent event;
    event.time = r.f64();
    event.machine = static_cast<MachineId>(r.u32());
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(FleetEventKind::kSpeedChange)) {
      return fail("checkpoint corrupted: unknown fleet event kind " +
                  std::to_string(kind));
    }
    event.kind = static_cast<FleetEventKind>(kind);
    event.speed = r.f64();
    plan.events.push_back(event);
  }
  const std::uint64_t num_down = r.u64();
  if (r.ok() && num_down > r.remaining() / 4) {
    return fail("checkpoint corrupted: initially-down count exceeds blob size");
  }
  plan.initially_down.reserve(static_cast<std::size_t>(num_down));
  for (std::uint64_t i = 0; r.ok() && i < num_down; ++i) {
    plan.initially_down.push_back(static_cast<MachineId>(r.u32()));
  }
  plan.rejection_budget = static_cast<std::size_t>(r.u64());
  plan.shed_killed_running = r.u8() != 0;
  options.retire_batch = static_cast<std::size_t>(r.u64());
  options.live_window_cap = static_cast<std::size_t>(r.u64());
  options.shed_budget = static_cast<std::size_t>(r.u64());
  const std::uint8_t backend_raw = r.u8();
  const std::uint8_t shed_policy_raw = r.u8();
  AdaptiveCapOptions& tune = options.adaptive_cap;
  tune.enabled = r.u8() != 0;
  tune.min_cap = static_cast<std::size_t>(r.u64());
  tune.max_cap = static_cast<std::size_t>(r.u64());
  tune.window = r.f64();
  tune.target_delay = r.f64();
  tune.hysteresis = static_cast<std::size_t>(r.u64());
  const Time clock = r.f64();
  const std::uint64_t num_jobs = r.u64();
  if (!r.ok()) return fail(r.error());

  // Recoverable validation of everything a replay would otherwise abort on.
  if (algorithm_raw > static_cast<std::uint32_t>(api::Algorithm::kImmediateReject)) {
    return fail("checkpoint corrupted: unknown algorithm id " +
                std::to_string(algorithm_raw));
  }
  const auto algorithm = static_cast<api::Algorithm>(algorithm_raw);
  if (algorithm == api::Algorithm::kTheorem3) {
    return fail("checkpoint names theorem3, which has no streaming session");
  }
  if (num_machines == 0 || num_machines > (1u << 20)) {
    return fail("checkpoint corrupted: implausible machine count " +
                std::to_string(num_machines));
  }
  const std::string plan_problems =
      plan.validate(static_cast<std::size_t>(num_machines));
  if (!plan_problems.empty()) {
    return fail("checkpoint corrupted: invalid fleet plan: " + plan_problems);
  }
  if (options.retire_batch == 0) {
    return fail("checkpoint corrupted: retire_batch is zero");
  }
  if (backend_raw > static_cast<std::uint8_t>(StorageBackend::kGenerator)) {
    return fail("checkpoint corrupted: unknown storage backend id " +
                std::to_string(backend_raw));
  }
  if (shed_policy_raw > static_cast<std::uint8_t>(ShedPolicy::kEpsilonCharged)) {
    return fail("checkpoint corrupted: unknown shed policy id " +
                std::to_string(shed_policy_raw));
  }
  options.shed_policy = static_cast<ShedPolicy>(shed_policy_raw);
  // Recoverable twins of the constructor's adaptive-cap CHECKs: a forged
  // or damaged blob must come back as a diagnostic, not an abort.
  if (tune.enabled) {
    if (tune.min_cap == 0 || tune.max_cap < tune.min_cap ||
        !positive_finite(tune.window) || !positive_finite(tune.target_delay)) {
      return fail("checkpoint corrupted: invalid adaptive-cap fields "
                  "(min_cap " + std::to_string(tune.min_cap) + ", max_cap " +
                  std::to_string(tune.max_cap) + ", window " +
                  std::to_string(tune.window) + ", target_delay " +
                  std::to_string(tune.target_delay) + ")");
    }
  }
  const auto backend = static_cast<StorageBackend>(backend_raw);
  options.storage = backend;
  if (backend == StorageBackend::kGenerator) {
    if (generator == nullptr) {
      return fail(
          "checkpoint names a generator-backed session, whose journal "
          "carries job metadata only; pass the session's closed form to "
          "restore() (the generator is code, not checkpoint data)");
    }
    options.generator = std::move(generator);
  }
  // Size check before any count-driven allocation. Dense and generator
  // journals are fixed-stride, so the remaining bytes must hold PRECISELY
  // the declared jobs; a sparse journal is variable-stride, so the check is
  // a per-job minimum (3 f64 + u32 count) here and exact at the end — every
  // per-entry read below is bounds-checked on top.
  const std::size_t job_bytes =
      journal_stride(backend, static_cast<std::size_t>(num_machines));
  const bool journal_size_bad =
      backend == StorageBackend::kSparseCsr
          ? num_jobs > r.remaining() / job_bytes
          : r.remaining() != num_jobs * job_bytes;
  if (journal_size_bad) {
    return fail("checkpoint corrupted: job journal size mismatch (" +
                std::to_string(r.remaining()) + " bytes for " +
                std::to_string(num_jobs) + " declared jobs)");
  }

  auto session = std::make_unique<SchedulerSession>(
      algorithm, static_cast<std::size_t>(num_machines), options);
  StreamJob job;
  if (backend == StorageBackend::kDense) {
    job.processing.resize(static_cast<std::size_t>(num_machines));
  }
  for (std::uint64_t idx = 0; idx < num_jobs; ++idx) {
    job.release = r.f64();
    job.weight = r.f64();
    job.deadline = r.f64();
    switch (backend) {
      case StorageBackend::kDense:
        r.f64s(job.processing.data(), job.processing.size());
        break;
      case StorageBackend::kSparseCsr: {
        const std::uint32_t count = r.u32();
        if (r.ok() && count > r.remaining() / (sizeof(std::uint32_t) +
                                               sizeof(double))) {
          return fail("checkpoint corrupted: job " + std::to_string(idx) +
                      " declares more sparse entries than the blob holds");
        }
        job.entries.clear();
        job.entries.reserve(count);
        for (std::uint32_t k = 0; r.ok() && k < count; ++k) {
          SparseEntry entry;
          entry.machine = static_cast<MachineId>(r.u32());
          entry.p = r.f64();
          job.entries.push_back(entry);
        }
        break;
      }
      case StorageBackend::kGenerator:
        break;  // metadata only; the store synthesizes the row
    }
    if (!r.ok()) return fail(r.error());
    // try_submit's allocation-free gate, with a diagnostic instead of an
    // abort; the replay below appends without re-validating.
    if (!session->impl_->job_ok(job)) {
      return fail("checkpoint job " + std::to_string(idx) +
                  " fails replay validation: " + session->validate_job(job));
    }
    // Every journaled job was accepted by the original session, and the
    // shed sequence is a deterministic function of the accepted arrivals —
    // so a faithful blob cannot backpressure here. A refusal means the
    // window fields are inconsistent with the journal (forged or damaged).
    if (session->impl_->admit(job, nullptr) == SubmitOutcome::kBackpressure) {
      return fail("checkpoint corrupted: replayed job " + std::to_string(idx) +
                  " hit backpressure (overload fields inconsistent with the "
                  "journal)");
    }
  }
  // The variable-stride sparse journal gets its exact-size check here: after
  // the declared jobs, the body must be fully consumed (fixed-stride
  // backends already guaranteed this above).
  if (r.remaining() != 0) {
    return fail("checkpoint corrupted: " + std::to_string(r.remaining()) +
                " trailing bytes after the declared job journal");
  }
  if (!(clock >= session->now())) {
    return fail("checkpoint corrupted: clock " + std::to_string(clock) +
                " precedes the replayed journal's clock");
  }
  session->advance(clock);
  if (error != nullptr) error->clear();
  return session;
}

api::RunSummary streamed_run(api::Algorithm algorithm, const Instance& instance,
                             const api::RunOptions& options,
                             std::size_t chunk_size) {
  SessionOptions session_options;
  session_options.run = options;
  return streamed_session_run(algorithm, instance, session_options, chunk_size);
}

api::RunSummary streamed_session_run(api::Algorithm algorithm,
                                     const Instance& instance,
                                     const SessionOptions& session_options,
                                     std::size_t chunk_size) {
  OSCHED_CHECK_GT(chunk_size, 0u);
  SchedulerSession session(algorithm, instance.num_machines(), session_options);

  const bool meta_only =
      session_options.storage == StorageBackend::kGenerator;
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    if (meta_only) {
      fill_stream_job_meta(instance.job(j), 0.0, &job);
    } else {
      fill_stream_job(instance, j, 0.0, &job);
    }
    session.submit(job);
    // Chunk boundary: catch up to a clock strictly between this arrival
    // and the next, firing any completions due in the gap — the driving
    // pattern of a live feeder between chunk deliveries. (Advancing only to
    // the last submitted release would be a no-op: submit already fired
    // everything due by then.) Different chunk sizes thus produce genuinely
    // different advance() interleavings, all required to be bit-identical.
    if ((idx + 1) % chunk_size == 0 && idx + 1 < instance.num_jobs()) {
      const Time here = instance.job(j).release;
      const Time next = instance.job(static_cast<JobId>(idx + 1)).release;
      session.advance(here + 0.5 * (next - here));
    }
  }
  return session.drain();
}

}  // namespace osched::service

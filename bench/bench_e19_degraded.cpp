// E19 — degraded-mode soak (registered scenario "e19_degraded").
//
// The wall behind degraded-mode operation: the paper's guarantee rests on
// a rejection allowance (Theorem 1 rejects at most 2εn jobs), and this
// scenario checks that the pipeline keeps its contracts when the fleet
// breaks, the arrivals outrun it, and the process restarts mid-stream.
// Every cell drives one seeded closed-form workload through a session fed
// with the bounded-ingest retry contract, and cuts the same run at the
// halfway job through a checkpoint/restore drill. Four legs:
//
//  * faults    — a fixed kill/drain/join plan with a throttle/recovery pair
//                on machine 3, across every streamable policy and storage
//                backend, uncapped. Its reference is the api::run batch, so
//                the drill also pins restored stream == batch.
//  * chaos     — the same plan shape with a seeded tail of fails, drains,
//                joins and speed changes, on a burst-warped arrival stream
//                (rate swings by about ±75%, so the window saturates at
//                every --scale) under load 1.6 against a live-window cap of
//                18 with a shed budget (the tight-budget cell runs it dry,
//                so saturation surfaces as backpressure).
//  * adaptive  — the same burst-warped stream against the fixed rule, the
//                rate-tuned cap and ε-charged sheds, alone and combined,
//                with ε = 0.45.
//  * fairness  — "multitenant drr": four shards, one hot tenant bursting
//                against deficit-round-robin admission, run under 1, 2 and
//                4 workers.
//
// The verdict asserts, in-process and for any seed:
//
//  1. Accounting: every job is completed or rejected in every cell.
//  2. Checkpoint fidelity: the restored session resumes with the cut's cap
//     and shed count, then finishes exactly like the reference run.
//  3. Overload contract (chaos, adaptive): the live window never exceeds
//     its cap, the cap never leaves its bounds, sheds stay inside their
//     budget (floor(2·ε·n) when ε-charged), and an adaptive cap moves.
//  4. Overload bites: the flagship chaos cell sheds, the tight-budget cell
//     backpressures, and the flagship adaptive cell does either.
//  5. Fleet schedule: the fixed plan fires every event exactly once; the
//     seeded plan's prefix fires every event kind at least once.
//  6. Storage invisibility: the dense / sparse-CSR / generator triplet of
//     the faults and chaos legs schedules byte-identically.
//  7. Fairness: the hot tenant never stages more than 2×quantum ops in a
//     round, the cold tenants are never deferred, and every shard's outcome
//     is identical under 1, 2 and 4 workers.
//
// Outputs that move with --seed are prefixed "seeded_": compare_bench.py
// diffs them exactly only between reports with the same root_seed and
// scale, and the event counts of the fixed plan stay exactly checked. That
// is what lets CI run the scenario under a rotating seed.
//
// Tags: "perf" + "fleet" + "chaos" + "overload" + "adaptive" + "slow";
// CI's stream-fuzz-smoke job runs it at --scale 0.05 under the rotating
// seed with --require-passed, and diffs a seed-1 full-scale run against
// BENCH_e19_degraded.json.
#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "harness/registry.hpp"
#include "instance/stream_job.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/generated_family.hpp"

namespace {

using namespace osched;
using harness::CaseSpec;
using harness::MetricRow;
using harness::Scenario;
using harness::ScenarioReport;
using harness::UnitContext;
using harness::Verdict;

enum Leg { kFaults = 0, kChaos = 1, kAdaptive = 2, kFairness = 3 };

// ------------------------------------------------------------- fleet plans

/// Monotone burst warp: t -> t + a·span·sin(2πt/span) with a = 0.12 keeps
/// the derivative in [1 - 0.24π, 1 + 0.24π] ⊂ (0.24, 1.76), so release
/// order is preserved while the arrival rate swings by ±75% around its
/// mean. span <= 0 is the identity.
Time burst_warp(Time t, Time span) {
  constexpr double kAmplitude = 0.12;
  if (span <= 0.0) return t;
  return t + kAmplitude * span * std::sin(2.0 * 3.141592653589793 * t / span);
}

/// One plan event pinned to a release-time quantile, so fleet events land
/// exactly on arrival instants (the tie-order case streaming has to get
/// right).
struct PlanStep {
  double at;
  MachineId machine;
  FleetEventKind kind;
  double speed = 1.0;
};

/// The faults leg's churn: machine 0 fails early, machine 1 drains, both
/// come back, machine 2 fails late, and machine 3 is throttled and
/// recovers.
constexpr PlanStep kChurnPlan[] = {
    {0.20, 0, FleetEventKind::kFail},
    {0.30, 3, FleetEventKind::kSpeedChange, 0.5},
    {0.35, 1, FleetEventKind::kDrain},
    {0.55, 0, FleetEventKind::kJoin},
    {0.70, 2, FleetEventKind::kFail},
    {0.80, 3, FleetEventKind::kSpeedChange, 1.0},
    {0.85, 1, FleetEventKind::kJoin}};

/// The chaos leg's legal prefix: at least one throttle, fail, join, drain
/// and recovery under any seed. It rejoins every machine it takes out, so
/// the seeded tail starts from a whole fleet.
constexpr PlanStep kChaosPrefix[] = {
    {0.05, 1, FleetEventKind::kSpeedChange, 0.5},
    {0.10, 0, FleetEventKind::kFail},
    {0.20, 0, FleetEventKind::kJoin},
    {0.25, 2, FleetEventKind::kDrain},
    {0.30, 2, FleetEventKind::kJoin},
    {0.35, 1, FleetEventKind::kSpeedChange, 2.0}};

/// `prefix`, then (with a tail seed) events drawn from the seed with a
/// membership replay keeping every pick legal and at least two machines
/// active. Quantiles are taken on the releases as fed, i.e. after the
/// feed's burst warp of `warp_span`. Same (instance, seed) -> same plan, so
/// a backend triplet runs one schedule and can be byte-compared.
FleetPlan make_plan(const Instance& instance, Time warp_span,
                    std::span<const PlanStep> prefix,
                    std::optional<std::uint64_t> tail_seed,
                    std::size_t budget) {
  const auto at = [&](double fraction) {
    const auto idx = static_cast<JobId>(
        fraction * static_cast<double>(instance.num_jobs() - 1));
    return burst_warp(instance.job(idx).release, warp_span);
  };
  FleetPlan plan;
  plan.rejection_budget = budget;
  for (const PlanStep& step : prefix) {
    plan.events.push_back({at(step.at), step.machine, step.kind, step.speed});
  }
  if (!tail_seed) return plan;

  // Membership: 0 active, 1 draining, 2 down.
  const std::size_t m = instance.num_machines();
  std::vector<int> state(m, 0);
  std::size_t active = m;
  util::Rng rng(util::derive_seed(*tail_seed, 0xC4A05C4A05ULL));
  const double multipliers[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  Time prev = plan.events.back().time;
  // The accumulated f overshoots 0.90 on its last step, so the tail draws
  // ten quantiles (0.40 .. 0.85). Recorded plans depend on this exact loop.
  for (double f = 0.40; f <= 0.90; f += 0.05) {
    const Time t = at(f);
    if (t <= prev) continue;  // quantile collision: skip, order stays strict
    prev = t;
    const auto machine =
        static_cast<MachineId>(rng.uniform_int(0, static_cast<int>(m) - 1));
    int& s = state[static_cast<std::size_t>(machine)];
    switch (rng.uniform_int(0, 3)) {
      case 0:  // fail — only while at least two other machines stay active
        if (s == 2 || (s == 0 && active <= 2)) continue;
        if (s == 0) --active;
        s = 2;
        plan.events.push_back({t, machine, FleetEventKind::kFail});
        break;
      case 1:  // drain — same floor on active capacity
        if (s != 0 || active <= 2) continue;
        --active;
        s = 1;
        plan.events.push_back({t, machine, FleetEventKind::kDrain});
        break;
      case 2:  // join
        if (s == 0) continue;
        ++active;
        s = 0;
        plan.events.push_back({t, machine, FleetEventKind::kJoin});
        break;
      default:  // speed — legal in any membership state
        plan.events.push_back({t, machine, FleetEventKind::kSpeedChange,
                               multipliers[rng.uniform_int(0, 5)]});
        break;
    }
  }
  return plan;
}

// -------------------------------------------------------------- the feed

struct Feed {
  const Instance* instance = nullptr;
  Time warp_span = 0.0;  ///< burst_warp span; 0 feeds releases unwarped
  Time backoff = 0.0;    ///< release push-back per refused offer
};

struct FeedOutcome {
  api::RunSummary summary;
  std::size_t sheds = 0;
  std::size_t backpressured = 0;
  std::size_t max_live = 0;
  std::size_t final_cap = 0;
  std::size_t min_cap_seen = 0;
  std::size_t max_cap_seen = 0;
  std::size_t submitted = 0;
};

/// Feeds jobs [from, to) with the bounded-ingest retry contract: a refused
/// arrival is re-offered with its release pushed back one backoff step
/// (events due by the new release fire inside try_submit and free slots),
/// and the release floor tracks the session clock so bumped arrivals keep
/// the stream monotone. The effective cap is sampled after every offer.
/// An uncapped session never refuses, so there this is plain submission.
/// Deterministic for a given configuration, which the drill depends on.
/// Leaves the session undrained.
FeedOutcome feed_with_backoff(service::SchedulerSession& session,
                              const Feed& feed, std::size_t from,
                              std::size_t to) {
  FeedOutcome out;
  out.min_cap_seen = out.max_cap_seen = session.current_window_cap();
  StreamJob job;
  for (std::size_t idx = from; idx < to; ++idx) {
    fill_stream_job(*feed.instance, static_cast<JobId>(idx), 0.0, &job);
    job.release =
        std::max(burst_warp(job.release, feed.warp_span), session.now());
    while (session.try_submit(job) ==
           service::SubmitOutcome::kBackpressure) {
      job.release += feed.backoff;
    }
    const std::size_t cap = session.current_window_cap();
    out.min_cap_seen = std::min(out.min_cap_seen, cap);
    out.max_cap_seen = std::max(out.max_cap_seen, cap);
  }
  out.sheds = session.num_shed();
  out.backpressured = session.num_backpressured();
  out.max_live = session.max_live_jobs();
  out.final_cap = session.current_window_cap();
  out.submitted = session.num_submitted();
  return out;
}

/// Checkpoint-cut drill: the identical feed severed at the halfway job and
/// round-tripped through the checkpoint wire format. True when the restored
/// session resumes with the cut's cap and shed count and then finishes the
/// stream (every remaining shed and cap move included) like `reference`.
bool cut_drill_matches(api::Algorithm algorithm,
                       const service::SessionOptions& options,
                       const Feed& feed, const FeedOutcome& reference) {
  const Instance& instance = *feed.instance;
  service::SchedulerSession first_half(algorithm, instance.num_machines(),
                                       options);
  const std::size_t cut = instance.num_jobs() / 2;
  feed_with_backoff(first_half, feed, 0, cut);
  std::string error;
  auto restored =
      service::SchedulerSession::restore(first_half.checkpoint(), &error);
  OSCHED_CHECK(restored != nullptr) << error;
  if (restored->current_window_cap() != first_half.current_window_cap() ||
      restored->num_shed() != first_half.num_shed()) {
    return false;
  }
  FeedOutcome resumed =
      feed_with_backoff(*restored, feed, cut, instance.num_jobs());
  resumed.summary = restored->drain();
  return resumed.summary.report.num_rejected ==
             reference.summary.report.num_rejected &&
         resumed.summary.report.num_completed ==
             reference.summary.report.num_completed &&
         resumed.summary.report.total_flow ==
             reference.summary.report.total_flow &&
         resumed.sheds == reference.sheds &&
         resumed.final_cap == reference.final_cap;
}

// ------------------------------------------------------------ session legs

service::SessionOptions session_options(const UnitContext& ctx, Leg leg,
                                        const Instance& instance, Time span) {
  service::SessionOptions options;
  options.run.epsilon = ctx.param_or("epsilon", options.run.epsilon);
  const auto fault_budget =
      static_cast<std::size_t>(ctx.param_or("fault_budget", 0));
  if (leg == kFaults) {
    options.run.fleet = make_plan(instance, 0.0, kChurnPlan, std::nullopt,
                                  fault_budget);
  } else if (leg == kChaos) {
    options.run.fleet = make_plan(instance, span, kChaosPrefix,
                                  ctx.scenario_seed, fault_budget);
  }
  options.live_window_cap = static_cast<std::size_t>(ctx.param_or("cap", 0));
  options.shed_budget =
      static_cast<std::size_t>(ctx.param_or("shed_budget", 0));
  if (ctx.param_or("charged", 0) != 0.0) {
    options.shed_policy = service::ShedPolicy::kEpsilonCharged;
  }
  if (ctx.param_or("adaptive", 0) != 0.0) {
    options.adaptive_cap.enabled = true;
    options.adaptive_cap.min_cap = 8;
    options.adaptive_cap.max_cap = 24;
    options.adaptive_cap.window = span / 12.0 + 1e-9;
    options.adaptive_cap.target_delay =
        16.0 * span / static_cast<double>(instance.num_jobs()) + 1e-9;
    options.adaptive_cap.hysteresis = 1;
  }
  return options;
}

/// The fleet counters. The fixed plan's event counts are seed-independent
/// and keep plain names; under the seeded plan every count moves with
/// --seed.
void set_fleet_columns(MetricRow& row, const FleetStats& fleet, bool seeded) {
  const std::string membership = seeded ? "seeded_" : "fleet_";
  const std::string speed = seeded ? "seeded_" : "";
  row.set(membership + "fails", static_cast<double>(fleet.fails));
  row.set(membership + "drains", static_cast<double>(fleet.drains));
  row.set(membership + "joins", static_cast<double>(fleet.joins));
  row.set(speed + "speed_changes", static_cast<double>(fleet.speed_changes));
  row.set(speed + "throttles", static_cast<double>(fleet.throttles));
  row.set(speed + "recoveries", static_cast<double>(fleet.recoveries));
  row.set(speed + "min_speed", fleet.min_speed_multiplier);
  row.set("seeded_redispatched", static_cast<double>(fleet.redispatched));
  row.set("seeded_fault_rejections",
          static_cast<double>(fleet.fault_rejections));
  row.set("seeded_budget_spent", static_cast<double>(fleet.budget_spent));
}

MetricRow run_session_cell(const UnitContext& ctx, Leg leg,
                           const Instance& instance, Time span) {
  const auto algorithm = static_cast<api::Algorithm>(
      static_cast<int>(ctx.param("algorithm")));
  const service::SessionOptions options =
      session_options(ctx, leg, instance, span);
  const std::size_t n = instance.num_jobs();
  const Feed feed{&instance, leg == kFaults ? 0.0 : span,
                  span / static_cast<double>(n) * 4.0};

  util::Timer timer;
  FeedOutcome reference;
  if (leg == kFaults) {
    // The batch run is the reference, so the drill pins restored == batch.
    reference.summary = api::run(algorithm, instance, options.run);
  } else {
    service::SchedulerSession uninterrupted(algorithm, instance.num_machines(),
                                            options);
    reference = feed_with_backoff(uninterrupted, feed, 0, n);
    reference.summary = uninterrupted.drain();
  }
  const double seconds = timer.elapsed_seconds();
  const bool ckpt_match =
      cut_drill_matches(algorithm, options, feed, reference);

  const api::RunSummary& summary = reference.summary;
  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  row.set("jobs_accounted",
          summary.report.num_completed + summary.report.num_rejected == n
              ? 1.0
              : 0.0);
  row.set("ckpt_match", ckpt_match ? 1.0 : 0.0);
  row.set("seeded_rejected", static_cast<double>(summary.report.num_rejected));
  row.set("seeded_completed",
          static_cast<double>(summary.report.num_completed));
  row.set("seeded_total_flow", summary.report.total_flow);
  if (!options.run.fleet.empty()) {
    set_fleet_columns(row, summary.fleet, leg == kChaos);
  }
  if (options.live_window_cap == 0) return row;

  const bool adaptive = options.adaptive_cap.enabled;
  const std::size_t cap_floor =
      adaptive ? options.adaptive_cap.min_cap : options.live_window_cap;
  const std::size_t cap_ceil =
      adaptive ? options.adaptive_cap.max_cap : options.live_window_cap;
  // ε-charged sheds alone must fit inside the paper's floor(2·ε·n); the
  // policy's own rule rejections only tighten it.
  const bool budget_ok =
      options.shed_policy == service::ShedPolicy::kEpsilonCharged
          ? static_cast<double>(reference.sheds) <=
                std::floor(2.0 * options.run.epsilon *
                           static_cast<double>(reference.submitted + 1))
          : reference.sheds <= options.shed_budget;
  row.set("window_respected", reference.max_live <= cap_ceil ? 1.0 : 0.0);
  row.set("cap_bounded", reference.min_cap_seen >= cap_floor &&
                                 reference.max_cap_seen <= cap_ceil
                             ? 1.0
                             : 0.0);
  row.set("budget_respected", budget_ok ? 1.0 : 0.0);
  row.set("cap_moved",
          !adaptive || reference.min_cap_seen != reference.max_cap_seen
              ? 1.0
              : 0.0);
  row.set("seeded_sheds", static_cast<double>(reference.sheds));
  row.set("seeded_backpressured",
          static_cast<double>(reference.backpressured));
  row.set("seeded_max_live", static_cast<double>(reference.max_live));
  row.set("seeded_final_cap", static_cast<double>(reference.final_cap));
  return row;
}

// ------------------------------------------------------------ fairness leg

/// One full multi-tenant DRR run: four shards, shard 0 hot (every second
/// job), three cold tenants splitting the rest. Each flush round offers the
/// hot backlog until the driver defers it and paces every cold tenant at
/// two ops, under the quantum, so a deferred cold tenant is a fairness
/// bug, not scheduling weather.
struct FairnessOutcome {
  std::vector<api::RunSummary> results;
  std::vector<service::ShardCounters> counters;
  bool hot_clipped = true;
  bool cold_deferred = false;
  std::size_t rounds = 0;
};

FairnessOutcome run_fairness(const Instance& instance, Time span,
                             std::size_t threads, std::size_t quantum,
                             std::size_t cap) {
  constexpr std::size_t kShards = 4;
  service::ShardDriverOptions options;
  options.threads = threads;
  options.fair_quantum = quantum;
  options.session.live_window_cap = cap;
  options.session.shed_budget = instance.num_jobs();  // absorbing
  service::ShardDriver driver(api::Algorithm::kGreedySpt, kShards,
                              instance.num_machines(), options);

  std::vector<std::vector<StreamJob>> queues(kShards);
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    job.release = burst_warp(job.release, span);
    const std::size_t shard =
        idx % 2 == 0 ? 0 : 1 + (idx / 2) % (kShards - 1);
    queues[shard].push_back(job);
  }

  FairnessOutcome out;
  std::vector<std::size_t> cursor(kShards, 0);
  for (;;) {
    bool any_left = false;
    for (std::size_t s = 0; s < kShards; ++s) {
      any_left = any_left || cursor[s] < queues[s].size();
    }
    if (!any_left) break;
    ++out.rounds;
    // Hot tenant: burst until the round's credit runs out.
    std::size_t staged = 0;
    while (cursor[0] < queues[0].size()) {
      const auto outcome = driver.try_submit(0, queues[0][cursor[0]]);
      if (!service::stage_ok(outcome)) break;
      ++cursor[0];
      ++staged;
    }
    if (staged > 2 * quantum) out.hot_clipped = false;
    // Cold tenants: a paced trickle that must never be deferred.
    for (std::size_t s = 1; s < kShards; ++s) {
      for (std::size_t k = 0; k < 2 && cursor[s] < queues[s].size(); ++k) {
        const auto outcome = driver.try_submit(s, queues[s][cursor[s]]);
        if (outcome == service::StageOutcome::kDeferred) {
          out.cold_deferred = true;
          break;
        }
        OSCHED_CHECK(service::stage_ok(outcome));
        ++cursor[s];
      }
    }
    driver.flush();
  }
  out.results = driver.drain_all();
  out.counters.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    out.counters.push_back(driver.shard_counters(s));
  }
  return out;
}

MetricRow run_fairness_cell(const UnitContext& ctx, const Instance& instance,
                            Time span) {
  const auto quantum = static_cast<std::size_t>(ctx.param("quantum"));
  const auto cap = static_cast<std::size_t>(ctx.param("cap"));

  util::Timer timer;
  const FairnessOutcome inline_run =
      run_fairness(instance, span, 1, quantum, cap);
  const double seconds = timer.elapsed_seconds();
  const FairnessOutcome two = run_fairness(instance, span, 2, quantum, cap);
  const FairnessOutcome four = run_fairness(instance, span, 4, quantum, cap);

  // Worker-count invariance: every shard's outcome (schedule-level totals
  // and overload counters) must be identical under 1, 2 and 4 workers.
  bool invariant = inline_run.results.size() == two.results.size() &&
                   inline_run.results.size() == four.results.size();
  std::size_t accounted = 0;
  std::size_t total_sheds = 0;
  std::size_t min_shard_sheds = instance.num_jobs();
  std::size_t max_shard_sheds = 0;
  for (std::size_t s = 0; invariant && s < inline_run.results.size(); ++s) {
    const auto& a = inline_run.results[s].report;
    for (const FairnessOutcome* other : {&two, &four}) {
      const auto& b = other->results[s].report;
      if (a.num_completed != b.num_completed ||
          a.num_rejected != b.num_rejected ||
          a.total_flow != b.total_flow ||
          inline_run.counters[s].sheds != other->counters[s].sheds) {
        invariant = false;
      }
    }
    accounted += a.num_completed + a.num_rejected;
    total_sheds += inline_run.counters[s].sheds;
    min_shard_sheds = std::min(min_shard_sheds, inline_run.counters[s].sheds);
    max_shard_sheds = std::max(max_shard_sheds, inline_run.counters[s].sheds);
  }

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(instance.num_jobs()) / seconds
                        : 0.0);
  row.set("jobs_accounted", accounted == instance.num_jobs() ? 1.0 : 0.0);
  row.set("fair_invariant", invariant ? 1.0 : 0.0);
  row.set("hot_clipped", inline_run.hot_clipped && two.hot_clipped &&
                                 four.hot_clipped
                             ? 1.0
                             : 0.0);
  row.set("cold_never_deferred", !inline_run.cold_deferred &&
                                         !two.cold_deferred &&
                                         !four.cold_deferred
                                     ? 1.0
                                     : 0.0);
  // Per-shard overload counters, diffable per seed.
  row.set("seeded_hot_deferred",
          static_cast<double>(inline_run.counters[0].deferred));
  row.set("seeded_hot_staged",
          static_cast<double>(inline_run.counters[0].staged_ops));
  // From the 2-worker run: inline mode never hands off a batch.
  row.set("seeded_hot_max_batch",
          static_cast<double>(two.counters[0].max_batch_ops));
  row.set("seeded_total_sheds", static_cast<double>(total_sheds));
  row.set("seeded_shard_shed_spread",
          static_cast<double>(max_shard_sheds - min_shard_sheds));
  row.set("seeded_rounds", static_cast<double>(inline_run.rounds));
  return row;
}

MetricRow run_unit(const UnitContext& ctx) {
  const auto leg = static_cast<Leg>(static_cast<int>(ctx.param("leg")));
  workload::ClosedFormConfig config;
  config.num_jobs = ctx.scaled(static_cast<std::size_t>(ctx.param("n")));
  config.num_machines = static_cast<std::size_t>(ctx.param("m"));
  // SCENARIO seed, not the per-case unit seed: a backend triplet must run
  // the same workload and the same plan, or its byte-equality means
  // nothing.
  config.seed = ctx.scenario_seed;
  config.load = ctx.param_or("load", config.load);
  const Instance instance = workload::make_closed_form_instance(
      config, static_cast<StorageBackend>(static_cast<int>(ctx.param_or(
                  "backend", static_cast<double>(StorageBackend::kDense)))));
  const Time span =
      instance.job(static_cast<JobId>(instance.num_jobs() - 1)).release;
  return leg == kFairness ? run_fairness_cell(ctx, instance, span)
                          : run_session_cell(ctx, leg, instance, span);
}

// ----------------------------------------------------------------- verdict

/// Every 0/1 contract column a cell of `leg` must hold at 1.
std::vector<const char*> contract_flags(Leg leg) {
  switch (leg) {
    case kFaults:
      return {"jobs_accounted", "ckpt_match"};
    case kFairness:
      return {"jobs_accounted", "fair_invariant", "hot_clipped",
              "cold_never_deferred"};
    default:
      return {"jobs_accounted",  "ckpt_match",       "window_respected",
              "cap_bounded",     "budget_respected", "cap_moved"};
  }
}

struct ScheduleBound {
  const char* metric;
  double value;
};

/// The fixed plan fires every event exactly once.
constexpr ScheduleBound kChurnExact[] = {
    {"fleet_fails", 2},   {"fleet_drains", 1}, {"fleet_joins", 2},
    {"speed_changes", 2}, {"throttles", 1},    {"recoveries", 1},
    {"min_speed", 0.5}};
/// The chaos prefix fires every event kind at least this often.
constexpr ScheduleBound kChaosAtLeast[] = {
    {"seeded_fails", 1},     {"seeded_drains", 1},    {"seeded_joins", 2},
    {"seeded_throttles", 1}, {"seeded_recoveries", 1}};

Verdict evaluate(const ScenarioReport& report) {
  for (const auto& result : report.cases) {
    const auto leg =
        static_cast<Leg>(static_cast<int>(result.spec.param("leg")));
    for (const char* metric : contract_flags(leg)) {
      if (result.metric(metric).mean() != 1.0) {
        return Verdict{false, result.spec.label + ": " + metric + " != 1"};
      }
    }
    if (leg == kFaults) {
      for (const auto& bound : kChurnExact) {
        if (result.metric(bound.metric).mean() != bound.value) {
          return Verdict{false, result.spec.label + ": fleet schedule not "
                                                    "fully observed (" +
                                    bound.metric + ")"};
        }
      }
    } else if (leg == kChaos) {
      for (const auto& bound : kChaosAtLeast) {
        if (result.metric(bound.metric).mean() < bound.value) {
          return Verdict{false, result.spec.label + ": chaos schedule not "
                                                    "fully observed (" +
                                    bound.metric + ")"};
        }
      }
    }
  }
  // Overload actually bit, in every regime.
  if (report.case_result("chaos theorem1 dense").metric("seeded_sheds").mean() <
      1.0) {
    return Verdict{false, "chaos theorem1 dense: window cap never triggered "
                          "a shed — overload not exercised"};
  }
  if (report.case_result("chaos theorem1 dense tightbudget")
          .metric("seeded_backpressured")
          .mean() < 1.0) {
    return Verdict{false, "chaos tightbudget cell: shed budget never ran dry "
                          "— backpressure not exercised"};
  }
  const auto& flagship =
      report.case_result("adaptive theorem1 adaptive epscharged");
  if (flagship.metric("seeded_sheds").mean() +
          flagship.metric("seeded_backpressured").mean() <
      1.0) {
    return Verdict{false, "adaptive epscharged cell: overload never engaged"};
  }
  // The backend triplets scheduled byte-identically.
  for (const std::string leg : {"faults", "chaos"}) {
    const auto& dense = report.case_result(leg + " theorem1 dense");
    for (const char* twin : {" theorem1 sparse", " theorem1 generator"}) {
      const auto& compact = report.case_result(leg + twin);
      for (const char* metric : {"seeded_rejected", "seeded_completed",
                                 "seeded_total_flow", "seeded_sheds"}) {
        if (!dense.has_metric(metric)) continue;  // uncapped: never sheds
        const double a = dense.metric(metric).mean();
        const double b = compact.metric(metric).mean();
        if (a != b) {
          return Verdict{false, "backend mismatch on " + leg + " " + metric +
                                    " (theorem1 dense vs" + twin +
                                    "): " + std::to_string(a) + " vs " +
                                    std::to_string(b)};
        }
      }
    }
  }
  return Verdict{true,
                 "every policy survived the churn and the chaos soak; window "
                 "caps held and adaptive caps moved within bounds; sheds, "
                 "backpressure and ε-charged sheds stayed in budget; backends "
                 "byte-identical; checkpoint cuts reproduced every run; DRR "
                 "held hot tenants to their quantum, never starved cold ones "
                 "and stayed worker-count invariant"};
}

// -------------------------------------------------------------------- grid

constexpr struct {
  const char* name;
  api::Algorithm algorithm;
} kPolicies[] = {{"theorem2", api::Algorithm::kTheorem2},
                 {"weighted", api::Algorithm::kWeightedExt},
                 {"greedy_spt", api::Algorithm::kGreedySpt},
                 {"fifo", api::Algorithm::kFifo},
                 {"immediate", api::Algorithm::kImmediateReject}};

/// The backend triplet (Theorem 1 on one plan, three stores), then every
/// other streamable policy on the dense store.
std::vector<CaseSpec> fleet_cells(const std::string& leg) {
  std::vector<CaseSpec> cells;
  const auto cell = [&](const std::string& label, api::Algorithm algorithm,
                        StorageBackend backend) {
    cells.push_back(CaseSpec(leg + " " + label)
                        .with("algorithm", static_cast<double>(algorithm))
                        .with("backend", static_cast<double>(backend)));
  };
  cell("theorem1 dense", api::Algorithm::kTheorem1, StorageBackend::kDense);
  cell("theorem1 sparse", api::Algorithm::kTheorem1,
       StorageBackend::kSparseCsr);
  cell("theorem1 generator", api::Algorithm::kTheorem1,
       StorageBackend::kGenerator);
  for (const auto& policy : kPolicies) {
    cell(std::string(policy.name) + " dense", policy.algorithm,
         StorageBackend::kDense);
  }
  return cells;
}

Scenario make_e19() {
  Scenario scenario;
  scenario.name = "e19_degraded";
  scenario.description =
      "degraded-mode soak: fixed and seeded fail/drain/join/speed plans, "
      "overload bursts against fixed and rate-tuned window caps with "
      "budgeted and ε-charged sheds, checkpoint cuts mid-run, and DRR "
      "multi-tenant fairness, asserted survivable, budget-bounded, "
      "byte-stable across backends and worker-count invariant";
  scenario.tags = {"perf", "fleet", "chaos", "overload", "adaptive", "slow"};
  scenario.repetitions = 1;

  std::vector<CaseSpec> faults = fleet_cells("faults");
  // Zero fault budget: every displaced job is re-dispatched or
  // force-rejected, never shed.
  faults.push_back(faults.front());
  faults.back().label += " nobudget";
  for (auto& cell : faults) {
    const bool nobudget = cell.label.ends_with("nobudget");
    scenario.grid.push_back(std::move(cell)
                                .with("leg", kFaults)
                                .with("n", 30000)
                                .with("m", 32)
                                .with("fault_budget", nobudget ? 0 : 64));
  }

  std::vector<CaseSpec> chaos = fleet_cells("chaos");
  // Tight shed budget: sheds run dry mid-burst, so saturation must surface
  // as backpressure and the retry loop carries the feed through.
  chaos.push_back(chaos.front());
  chaos.back().label += " tightbudget";
  for (auto& cell : chaos) {
    const bool tight = cell.label.ends_with("tightbudget");
    scenario.grid.push_back(std::move(cell)
                                .with("leg", kChaos)
                                .with("n", 20000)
                                .with("m", 16)
                                .with("load", 1.6)
                                .with("cap", 18)
                                .with("shed_budget", tight ? 2 : 100000)
                                .with("fault_budget", 64));
  }

  const struct {
    const char* label;
    api::Algorithm algorithm;
    bool adaptive;
    bool charged;
  } adaptive_cells[] = {
      // The oracle: the fixed rule on a fixed cap.
      {"adaptive theorem1 fixed oracle", api::Algorithm::kTheorem1, false,
       false},
      {"adaptive theorem1 epscharged", api::Algorithm::kTheorem1, false,
       true},
      {"adaptive theorem1 adaptive", api::Algorithm::kTheorem1, true, false},
      {"adaptive theorem1 adaptive epscharged", api::Algorithm::kTheorem1,
       true, true},
      // Policies without their own charged victim use the documented
      // fallback under the derived budget.
      {"adaptive greedy_spt adaptive epscharged", api::Algorithm::kGreedySpt,
       true, true},
      {"adaptive weighted adaptive epscharged", api::Algorithm::kWeightedExt,
       true, true},
  };
  for (const auto& cell : adaptive_cells) {
    // The fixed rule's budget is absorbing; ε-charged sheds derive theirs
    // from ε and ignore it.
    scenario.grid.push_back(
        CaseSpec(cell.label)
            .with("leg", kAdaptive)
            .with("algorithm", static_cast<double>(cell.algorithm))
            .with("adaptive", cell.adaptive ? 1.0 : 0.0)
            .with("charged", cell.charged ? 1.0 : 0.0)
            .with("n", 20000)
            .with("m", 16)
            .with("load", 1.6)
            .with("cap", 16)
            .with("epsilon", 0.45)
            .with("shed_budget", cell.charged ? 0 : 100000));
  }

  scenario.grid.push_back(CaseSpec("multitenant drr")
                              .with("leg", kFairness)
                              .with("n", 12000)
                              .with("m", 8)
                              .with("load", 1.6)
                              .with("cap", 12)
                              .with("quantum", 8));
  scenario.run_unit = run_unit;
  scenario.evaluate = evaluate;
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e19);

}  // namespace

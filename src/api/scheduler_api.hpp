// The library's front door: one call to run any scheduler by name.
//
// Downstream users (and the repository's own trace workbench / examples)
// should not need to know which header each algorithm lives in or which
// options struct it takes. This facade names every online policy in the
// repository, normalizes their options into one struct, runs the chosen
// policy, validates the schedule with the independent validator, and returns
// the schedule together with the recomputed objective report and whatever
// certificate the policy emits (the Theorem 1 dual lower bound, rejection
// rule counters).
//
// The facade is intentionally a thin, allocation-light veneer: everything it
// does is available directly from the per-algorithm headers for callers that
// need the full result types.
//
// run() is the batch entry point: the whole Instance up front, one call to
// quiescence. The same policies are available as incremental streaming
// sessions — submit(job)/advance(t)/drain() over chunks, bit-identical
// decisions — via service::SchedulerSession (service/scheduler_session.hpp),
// whose drain() returns this header's RunSummary.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "instance/instance.hpp"
#include "metrics/metrics.hpp"
#include "sim/fleet.hpp"
#include "sim/schedule.hpp"
#include "util/simd_argmin.hpp"

namespace osched::api {

enum class Algorithm {
  kTheorem1,          ///< flow time + rejections (the paper's main result)
  kTheorem2,          ///< weighted flow + energy, speed scaling
  kTheorem3,          ///< energy with deadlines, configuration primal-dual
  kWeightedExt,       ///< weighted flow extension (no theorem; see DESIGN.md)
  kGreedySpt,         ///< no-rejection list scheduler, SPT queues
  kFifo,              ///< no-rejection list scheduler, FIFO queues
  kImmediateReject,   ///< must accept/reject at arrival (Lemma 1's subject)
};

/// Parses "theorem1", "greedy-spt", ... (the names printed by list_names()).
std::optional<Algorithm> parse_algorithm(const std::string& name);
const char* to_string(Algorithm algorithm);
/// All recognized algorithm names, for CLI help text.
std::vector<std::string> algorithm_names();

/// Union of the per-algorithm options, with shared defaults. Fields that an
/// algorithm does not use are ignored (documented per field).
struct RunOptions {
  /// Rejection parameter for kTheorem1/kTheorem2/kWeightedExt/
  /// kImmediateReject.
  double epsilon = 0.2;
  /// Power exponent for kTheorem2/kTheorem3 (P(s) = s^alpha).
  double alpha = 2.0;
  /// Speed-grid resolution for kTheorem3.
  std::size_t speed_levels = 8;
  /// Start-grid step for kTheorem3.
  Time start_grid = 1.0;
  /// Validate the schedule with the independent validator (aborts on a
  /// violation — a scheduler bug, never an input property). Deadline
  /// enforcement and the parallel-execution model are chosen per algorithm.
  bool validate = true;
  /// Dynamic fleet membership (join/drain/fail events + fault rejection
  /// budget; see sim/fleet.hpp). Supported by every online policy except
  /// kTheorem3 (offline-configured deadline LP — run() aborts if a plan is
  /// given). With a non-empty plan certified_lower_bound is diagnostic only.
  FleetPlan fleet = {};
};

struct RunSummary {
  Algorithm algorithm = Algorithm::kTheorem1;
  Schedule schedule;
  /// Objectives recomputed from the schedule record (never the scheduler's
  /// own accounting). Energy is filled for the speed-scaling algorithms.
  ObjectiveReport report;
  /// Certified lower bound on OPT emitted by the policy's own dual fitting
  /// (kTheorem1 and kTheorem3 only; 0 otherwise). For kTheorem1 this bounds
  /// the optimal total flow time; for kTheorem3 the optimal energy within
  /// the discretized strategy space.
  double certified_lower_bound = 0.0;
  /// Rejection-rule counters where applicable.
  std::size_t rule1_rejections = 0;
  std::size_t rule2_rejections = 0;
  /// Fleet-membership counters (all zero for an empty RunOptions::fleet).
  FleetStats fleet;
  /// Machine-id width of the order table Theorem 1's dispatch walked: 16
  /// when the instance has one (dense or sparse, m < 65536), 0 when it has
  /// none (generator instances, m >= 65536, streamed sessions — dispatch
  /// then derived the idle argmin from the row) and for every other
  /// algorithm, none of which reads the table. Perf baselines record it so
  /// a number produced by one code path is never compared against another
  /// path unknowingly.
  int dispatch_order_width = 0;
  /// SIMD tier the dispatch kernels ran at (util::active_simd_tier():
  /// scalar / avx2 / avx512 — cpuid-dispatched, cappable via OSCHED_SIMD).
  /// All tiers are bit-identical by contract; the field is informational
  /// attribution, not a determinism input.
  util::SimdTier dispatch_simd_tier = util::SimdTier::kScalar;
};

/// Runs `algorithm` on `instance`. Aborts (OSCHED_CHECK) on structurally
/// invalid instances; deadline algorithms require every job to carry a
/// deadline, flow algorithms ignore deadlines.
RunSummary run(Algorithm algorithm, const Instance& instance,
               const RunOptions& options = {});

/// String-keyed convenience for CLIs and the scenario harness: runs the
/// algorithm named `name` (see algorithm_names()), or returns nullopt for
/// an unrecognized name.
std::optional<RunSummary> run_by_name(const std::string& name,
                                      const Instance& instance,
                                      const RunOptions& options = {});

}  // namespace osched::api

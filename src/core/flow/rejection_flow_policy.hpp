// Theorem 1 scheduling policy as a resumable state machine over the job
// store.
//
// The algorithm itself (dispatch by argmin lambda_ij, Rule 1/Rule 2
// rejections, SPT pending queues over the arena treap) lives here; the
// store/Rec contract and the fleet/shed/redispatch protocol every policy
// shares live in sim/policy_core.hpp. Identical call sequences produce
// bit-identical decisions regardless of the driver, which is what the
// streaming differential tests pin down.
//
// Machine state is laid out structure-of-arrays: the lambda inputs the
// dispatch needs per machine (pending count, pending minimum processing
// time) live in contiguous arrays next to the p_ij row, so the per-arrival
// lower-bound sweep is a straight-line vectorizable loop. On top of that
// sits the dispatch index: for each candidate machine a sound lower bound
//   lb_i = margin * (p/eps + p + n_i * min(p, pmin_i))        (p = p_ij)
// is computed from the cached aggregates (updated only when machine i's
// pending queue is touched), candidates are visited best-first through a
// min-heap, and the exact lambda — one O(log q) treap descent — is
// evaluated only until the next bound exceeds the incumbent. Because the
// bound never exceeds the rounded exact lambda (see kDispatchBoundMargin)
// and the incumbent update keeps the lexicographic (lambda, machine id)
// rule, the selected machine and its lambda are bit-identical to the
// reference linear scan (DispatchMode::kLinearScan, kept for the
// differential wall in tests/dispatch_index_test.cpp).
//
// See rejection_flow.hpp for the paper conventions and the batch entry
// point; this header is the shared implementation.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/flow/dual_accounting.hpp"
#include "core/flow/rejection_flow.hpp"
#include "sim/policy_core.hpp"
#include "util/augmented_treap.hpp"
#include "util/dispatch_argmin.hpp"
#include "util/rng.hpp"
#include "util/sliding_vector.hpp"

namespace osched {

namespace rejection_flow_detail {

/// Pending-queue key: shortest processing time first, ties by earliest
/// release then id (the paper's order, made total).
struct PendingKey {
  Work p = 0.0;
  Time r = 0.0;
  JobId id = kInvalidJob;

  bool operator<(const PendingKey& other) const {
    if (p != other.p) return p < other.p;
    if (r != other.r) return r < other.r;
    return id < other.id;
  }
};

struct KeyProcessing {
  double operator()(const PendingKey& key) const { return key.p; }
};

using PendingQueue = util::AugmentedTreap<PendingKey, KeyProcessing>;

}  // namespace rejection_flow_detail

template <class Rec>
class RejectionFlowPolicy final
    : public PolicyCore<RejectionFlowPolicy<Rec>, Rec> {
  using PendingKey = rejection_flow_detail::PendingKey;
  using PendingQueue = rejection_flow_detail::PendingQueue;
  using Core = PolicyCore<RejectionFlowPolicy, Rec>;
  friend Core;
  using Core::completion_event_;
  using Core::effective_of;
  using Core::effective_processing;
  using Core::events_;
  using Core::fleet_;
  using Core::fleet_speed_;
  using Core::heap_;
  using Core::rec_;
  using Core::running_;
  using Core::running_end_;
  using Core::speed_is_one_;
  using Core::store_;

 public:
  RejectionFlowPolicy(const service::StreamingJobStore& store, Rec& rec,
                      EventQueue& events, const RejectionFlowOptions& options)
      : Core(store, rec, events, options.fleet, options.speed),
        options_(options),
        dual_(store.num_jobs(), options.epsilon),
        victim_rng_(options.victim_seed) {
    OSCHED_CHECK_GT(options.epsilon, 0.0);
    OSCHED_CHECK_LT(options.epsilon, 1.0);
    OSCHED_CHECK_GT(options.speed, 0.0);
    // "the first time when v_j = 1/eps" / "c_i = 1 + 1/eps": counters are
    // integers. Rule 1 rounds UP (threshold >= 1/eps keeps the rejection
    // count within eps*n). Rule 2 rounds DOWN: Corollary 1 needs
    // c_i <= 1/eps between resets, so the trigger is floor(1 + 1/eps) —
    // which both stays >= 1/eps (budget) and equals the paper's 1 + 1/eps
    // whenever 1/eps is integral. The 1e-9 slack absorbs 1/eps float error
    // for eps = 1/k.
    rule1_threshold_ = static_cast<std::int64_t>(std::ceil(1.0 / options.epsilon - 1e-9));
    rule2_threshold_ =
        static_cast<std::int64_t>(std::floor(1.0 + 1.0 / options.epsilon + 1e-9));
    lambda_.extend_to(store.num_jobs());
    const std::size_t m = store.num_machines();
    pending_.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      pending_.emplace_back(rejection_flow_detail::KeyProcessing{},
                            util::derive_seed(0xF10BA5E5ULL, i));
    }
    v_counter_.assign(m, 0);
    c_counter_.assign(m, 0);
    pend_n_.assign(m, 0);
    pend_cnt_margin_.assign(m, 0.0f);
    pend_min_p_.assign(m, std::numeric_limits<float>::max());
    live_pos_.assign(m, 0);
    live_list_.reserve(m);
    idle_bias_.assign(m, 0.0);
    for (const std::uint32_t down : fleet_.inactive_list()) {
      idle_bias_[down] = kTimeInfinity;
    }
    lb_.assign(m, 0.0f);
    block_min_.assign(m / 8 + 1, std::numeric_limits<float>::max());
    heap_.reserve(m);
    // margin * (1/eps + 1): the division-free per-unit-p coefficient of the
    // lower bound (see lambda_lower_bound). The handful of float roundings
    // here and in the sweep are dwarfed by the 2^-16 margin.
    empty_coeff_margin_ = kDispatchBoundMarginF *
                          (1.0f / static_cast<float>(options.epsilon) + 1.0f);
    // UP-margined twin for the rival-screen threshold (an upper bound).
    empty_coeff_up_ =
        (1.0f / static_cast<float>(options.epsilon) + 1.0f) * 1.0001f;
    // Rounded UP so the float quotient p_f / speed_up_ never exceeds the
    // exact p / speed (speed != 1 only for the speed-augmented baseline).
    speed_up_ = std::nextafterf(static_cast<float>(options.speed),
                                std::numeric_limits<float>::infinity());
    // kSpeedChange plans: per-machine UP-rounded float divisors so the
    // bound sweeps stay sound under scaling. Exactly 1.0f while the
    // combined divisor is exactly 1 — float division by 1.0f is exact, so
    // the pre-first-event bounds match the speed-free path bit for bit.
    if (fleet_speed_) {
      speed_div_up_.assign(m, speed_is_one_ ? 1.0f : speed_up_);
    }
  }

  void on_arrival(JobId j, Time now) override {
    dual_.register_job(j);
    lambda_.extend_to(static_cast<std::size_t>(j) + 1);

    double best_lambda = 0.0;
    const MachineId best_machine = pick(j, now, &best_lambda);

    // No active eligible machine with a finite lambda (the fleet mask left
    // none, or every lambda overflowed): the job cannot run anywhere —
    // forced rejection at arrival, outside the rule counters and with a
    // zero dual contribution, which keeps the certificate <= OPT.
    if (best_machine == kInvalidMachine) {
      dual_.set_lambda(j, 0.0);
      lambda_[static_cast<std::size_t>(j)] = 0.0;
      this->force_reject(j, now, /*was_running=*/false);
      return;
    }

    dual_.set_lambda(j, best_lambda);
    lambda_[static_cast<std::size_t>(j)] =
        options_.epsilon / (1.0 + options_.epsilon) * best_lambda;

    const auto b = static_cast<std::size_t>(best_machine);
    rec_.mark_dispatched(j, best_machine);
    enqueue(best_machine, j);

    // Rule 1: the arrival was dispatched during the running job's execution.
    if (options_.enable_rule1 && running_[b] != kInvalidJob) {
      ++v_counter_[b];
      if (v_counter_[b] >= rule1_threshold_) {
        reject_running(best_machine, now);
      }
    }

    // Rule 2: every dispatch to the machine counts.
    if (options_.enable_rule2) {
      ++c_counter_[b];
      if (c_counter_[b] >= rule2_threshold_) {
        reject_largest_pending(best_machine, j, now);
        c_counter_[b] = 0;
      }
    }

    if (running_[b] == kInvalidJob) start_next(best_machine, now);
  }

  /// ε-charged shed (see SimulationHooks): PolicyCore::shed_largest's
  /// Rule-2-style victim, booked into the dual by book_charged_shed.
  JobId on_shed_charged(Time now) override { return this->shed_largest(now); }

  std::size_t charged_rejections() const override {
    return rule1_rejections_ + rule2_rejections_;
  }

  /// Releases per-job dual/lambda state below the decided frontier
  /// (streaming sessions only; batch runs keep everything for export).
  void retire_below(JobId frontier) {
    dual_.retire_below(frontier);
    lambda_.retire_below(static_cast<std::size_t>(frontier));
  }

  std::size_t rule1_rejections() const { return rule1_rejections_; }
  std::size_t rule2_rejections() const { return rule2_rejections_; }
  const FlowDualAccounting& dual() const { return dual_; }
  /// lambda_j = eps/(1+eps) * min_i lambda_ij; j must not be retired.
  double lambda(JobId j) const { return lambda_.at(static_cast<std::size_t>(j)); }
  /// Machine-id width of the (p, id) order table the dispatch walks: 16
  /// when the store has one (an Instance's dense or sparse store), 0 when
  /// it has none (generator, m >= 65536, streamed stores).
  int dispatch_order_width() const {
    return store_.p_order_row(0).data() != nullptr ? 16 : 0;
  }

 private:
  /// Above this many busy machines the per-contender exact evaluations of
  /// the ordered path stop paying for themselves and dispatch falls back
  /// to the vectorized bound sweep. Both paths return the identical
  /// lexicographic argmin; the cutover is performance-only.
  static constexpr std::size_t kOrderedPathMaxLive = 16;
  // With the whole fleet active the ordered path sees at most
  // kOrderedPathMaxLive busy machines, so the first idle machine sits
  // among the first kOrderedPathMaxLive + 1 order entries and the entry
  // that ends its walk, when no bit-equal tie extends it, among the first
  // kOrderedPathMaxLive + 2: the stored prefix settles the walk without
  // the idle-scan fallback (see dispatch_ordered).
  static_assert(service::StreamingJobStore::kPOrderPrefix >=
                kOrderedPathMaxLive + 2);

  PendingKey make_key(MachineId i, JobId j) const {
    return PendingKey{effective_processing(i, j), store_.job(j).release, j};
  }

  /// lambda_ij = p_ij/eps + sum_{l <= j} p_il + |{l > j}| * p_ij over the
  /// pending order with j virtually inserted (running job excluded).
  /// `p` must be effective_processing(i, j).
  double lambda_ij(MachineId i, JobId j, Work p, Time release) const {
    const PendingQueue& pending = pending_[static_cast<std::size_t>(i)];
    if (pending.empty()) {
      // Bit-identical shortcut of the general expression below with
      // prefix = {0, 0.0} and after = 0: for finite p > 0, 0.0 + p == p,
      // 0 * p == +0.0 and x + 0.0 == x, exactly.
      return p / options_.epsilon + p;
    }
    const PendingKey key{p, release, j};
    const auto prefix = pending.stats_less(key);
    const std::size_t after = pending.size() - prefix.count;
    return p / options_.epsilon + (prefix.weight + p) +
           static_cast<double>(after) * p;
  }

  /// Sound lower bound on lambda_ij from the cached per-machine aggregates:
  /// lambda_ij = p/eps + p + sum_l min(p_l, p) over machine i's pending
  /// jobs, and each of the n_i queue contributions is at least
  /// min(p, pmin_i). Evaluated division- and branch-free in FLOAT32 as
  ///   p_f * [margin*(1/eps + 1)]  +  [margin*n_i] * min(p_f, pmin_f_i)
  /// over inputs rounded DOWN (float_lower), with kDispatchBoundMarginF
  /// absorbing the float roundings — the bound never exceeds the rounded
  /// exact lambda, so a candidate whose bound exceeds the incumbent can
  /// never be the lexicographic argmin. A bound past the float range
  /// saturates at FLT_MAX, still below a lambda that large (an overflowed
  /// +inf would prune a machine whose double lambda is finite).
  float lambda_lower_bound(float p, std::size_t i) const {
    return std::min(p * empty_coeff_margin_ +
                        pend_cnt_margin_[i] * std::min(p, pend_min_p_[i]),
                    std::numeric_limits<float>::max());
  }

  /// Reference dispatch (PolicyCore::linear_argmin over the exact lambda).
  /// kInvalidMachine when no active eligible machine has a finite lambda:
  /// the fleet mask left none, or every p_ij is so large that lambda
  /// overflows (a valid job may carry p up to DBL_MAX).
  MachineId dispatch_linear_scan(JobId j, double* best_lambda_out) const {
    const Time release = store_.job(j).release;
    return this->linear_argmin(
        j,
        [&](MachineId i) {
          return lambda_ij(i, j, effective_processing(i, j), release);
        },
        best_lambda_out);
  }

  /// Ordered path of the dispatch index, used while few machines have
  /// pending work (the common state under SPT draining). Every contender
  /// with a non-empty queue sits in the live list, whose members are
  /// screened by their cached bound and evaluated exactly. The best machine
  /// with an EMPTY queue (lambda = p/eps + p, monotone in p) comes from one
  /// of two places:
  ///  * the order walk: the first idle entry of the job's precomputed
  ///    (p, id)-order prefix plus its id-tie walk, O(|live|) and
  ///    independent of m;
  ///  * the idle scan, wherever no sound order exists or the prefix cannot
  ///    settle the walk: one masked minimum
  ///    p_min = min(row[i] + idle_bias_[i]) over the eligible span — no
  ///    branch and no division per machine — then the exact lambda only
  ///    for the near-tie band p <= p_min * (1 + 2^-40) (+ an absolute
  ///    slack for subnormal p; the band argument sits at the scan), plus
  ///    an exact evaluation of each idle speed-scaled machine.
  /// A candidate whose lambda overflows to +inf never wins: when no lambda
  /// is finite the result is kInvalidMachine and the caller force-rejects,
  /// the linear scan's rule. Returns the same lexicographic (lambda, id)
  /// argmin as dispatch_linear_scan, bit for bit.
  MachineId dispatch_ordered(JobId j, Time release,
                             const EligibleMachines& eligible,
                             double* best_lambda_out) {
    const std::size_t count = eligible.size();
    // Empty when the store has no table: streaming and generator stores,
    // and batch instances at m >= 65536 (uint16 ids cannot name them).
    const std::span<const std::uint16_t> order = store_.p_order_row(j);
    const Work* rowd = store_.processing_row(j);
    const bool dense = count == store_.num_machines();

    // Overlap the cold double-row loads: the head of the order (the likely
    // idle hit) and every live contender's entry fetch in parallel. (The
    // order table exists only for batch stores below 65536 machines;
    // streaming rows were just appended and are cache-hot without help.)
    if (!order.empty()) __builtin_prefetch(rowd + order[0], 0, 0);
    for (const std::uint32_t i : live_list_) {
      __builtin_prefetch(rowd + i, 0, 0);
    }

    double best_lambda = kTimeInfinity;
    MachineId best_machine = kInvalidMachine;

    // While a kSpeedChange multiplier is in force somewhere, the raw-p
    // order table no longer sorts machines by EFFECTIVE p, so the
    // first-idle-in-order shortcut (and its id-tie walk) would pick the
    // wrong idle machine. Fall through to the exact idle scan below — its
    // lexicographic (lambda, id) argmin is the linear scan's by
    // construction. Restored multipliers (all back to 1) re-enable the
    // order-table walk automatically.
    bool idle_settled = false;
    if (order.data() != nullptr &&
        !(fleet_speed_ && fleet_.any_speed_scaled())) {
      // First ACTIVE idle machine in (p, id) order, then the id-tie walk:
      // later idle machines tie only while their rounded lambda is bit-equal
      // (p is non-decreasing along the order and fl is monotone, so the walk
      // stops at the first strictly larger lambda). Down/draining machines
      // have pend_n_ == 0 and would otherwise masquerade as idle.
      //
      // The walk reads only the stored prefix, the first `len` entries of
      // the full order. When len == count the prefix IS the order and the
      // walk is exact. Otherwise its answer still stands in two cases: an
      // idle machine found at w is the first of the full order too (every
      // earlier entry of the full order is in the prefix and busy or
      // down), and a strictly larger lambda met at w2 < len bounds every
      // later entry, inside the prefix or past it. The two remaining cases
      // need entries past the prefix — no active idle machine in it, or a
      // tie walk that runs off its end — and fall through to the exact idle
      // scan below, which never reads the order.
      const std::size_t len = order.size();
      std::size_t w = 0;
      while (w < len && (pend_n_[order[w]] != 0 || !fleet_.active(order[w])))
        ++w;
      std::size_t w2 = w + 1;
      if (w < len) {
        const auto i0 = static_cast<std::size_t>(order[w]);
        const Work p0 = effective_of(static_cast<MachineId>(i0), rowd[i0]);
        best_lambda = p0 / options_.epsilon + p0;  // empty-queue lambda
        best_machine = static_cast<MachineId>(i0);
        for (; w2 < len; ++w2) {
          const auto i2 = static_cast<std::size_t>(order[w2]);
          if (pend_n_[i2] != 0 || !fleet_.active(i2)) continue;
          const Work p2 = effective_of(static_cast<MachineId>(i2), rowd[i2]);
          const double lambda2 = p2 / options_.epsilon + p2;
          if (lambda2 != best_lambda) break;
          if (static_cast<MachineId>(i2) < best_machine) {
            best_machine = static_cast<MachineId>(i2);
          }
        }
      }
      idle_settled = len == count || w2 < len;
      if (!idle_settled) {
        best_lambda = kTimeInfinity;
        best_machine = kInvalidMachine;
      }
    }
    if (!idle_settled) {
      // No precomputed order (streaming or generator store, m >= 65536
      // batch instance), the table is unsound under active speed
      // multipliers, or the prefix could not settle the walk: derive the
      // idle argmin from the double row directly, scaling the entry the
      // scan already holds (never a per-machine store lookup).
      //
      // idle_bias_[i] is 0.0 for an idle, active, unscaled machine and +inf
      // otherwise, so row[i] + idle_bias_[i] is p exactly or +inf and one
      // masked minimum finds p_min over the unmasked machines. They share
      // one divisor s (the base speed), so each one's exact idle lambda is
      //   g(p) = fl(fl(q / eps) + q),   q = fl(p / s)   (q = p when s = 1),
      // non-decreasing in p: their lexicographic argmin is the smallest id
      // with g(p) == g(p_min). The band below holds every such machine.
      // With fl(x) = x(1 + d) + e, |d| <= u = 2^-53 and |e| <= 2^-1075 (e
      // is nonzero only for a subnormal result), and no step overflowing,
      //   g(p) = p(1 + 1/eps)/s * (1 + t) + E,
      //   (1 - u)^3 <= 1 + t <= (1 + u)^3,   |E| < 2^-1075 * (4 + 1/eps),
      // so a finite g(p) == g(p_min) forces p <= p_min(1 + 7u) + s*2^-1072.
      // For normal p_min the relative slack 2^-40 covers that with room to
      // spare, even after the band's own roundings; below the normal range
      // it vanishes (p_min * 2^-40 is under half an ulp) and the absolute
      // slack tie_abs = max(s, 1) * 2^-1000 covers the subnormal error
      // terms alone. (2^-1000 is a normal number on purpose: a subnormal
      // operand costs a microcode assist on every dispatch.) An overflowing step makes g(p) = +inf, which is never
      // equal to a finite g(p_min) and never wins; the band is clamped to
      // DBL_MAX so masked (+inf) entries never enter it. Exact lambdas are
      // taken in ascending id order, so the strict less keeps the smallest
      // id among ties.
      const double* __restrict bias = idle_bias_.data();
      const double tie_abs = std::max(options_.speed, 1.0) * 0x1p-1000;
      // One body for both index shapes: full rows index the row directly,
      // which measured faster than reading the identity adjacency.
      const auto idle_scan = [&](auto machine_of) {
        double m0 = kTimeInfinity, m1 = kTimeInfinity;
        double m2 = kTimeInfinity, m3 = kTimeInfinity;
        std::size_t k = 0;
        for (; k + 4 <= count; k += 4) {
          m0 = std::min(m0, rowd[machine_of(k)] + bias[machine_of(k)]);
          m1 = std::min(m1, rowd[machine_of(k + 1)] + bias[machine_of(k + 1)]);
          m2 = std::min(m2, rowd[machine_of(k + 2)] + bias[machine_of(k + 2)]);
          m3 = std::min(m3, rowd[machine_of(k + 3)] + bias[machine_of(k + 3)]);
        }
        for (; k < count; ++k) {
          m0 = std::min(m0, rowd[machine_of(k)] + bias[machine_of(k)]);
        }
        const double p_min = std::min(std::min(m0, m1), std::min(m2, m3));
        if (!(p_min < kTimeInfinity)) return;  // no unmasked candidate
        const double band = std::min(p_min * (1.0 + 0x1p-40) + tie_abs,
                                     std::numeric_limits<double>::max());
        for (k = 0; k < count; ++k) {
          const std::size_t i = machine_of(k);
          if (!(rowd[i] + bias[i] <= band)) continue;
          const Work p = effective_of(static_cast<MachineId>(i), rowd[i]);
          const double lambda = p / options_.epsilon + p;  // empty-queue
          if (lambda < best_lambda) {
            best_lambda = lambda;
            best_machine = static_cast<MachineId>(i);
          }
        }
      };
      if (dense) {
        idle_scan([](std::size_t k) { return k; });
      } else {
        const MachineId* ids = eligible.first;
        idle_scan(
            [ids](std::size_t k) { return static_cast<std::size_t>(ids[k]); });
      }
      // Idle speed-scaled machines are masked above; each has its own
      // divisor, so each is evaluated exactly (an ineligible one reads
      // p = +inf and never wins).
      for (const std::uint32_t i : fleet_.scaled_list()) {
        if (pend_n_[i] != 0 || !fleet_.active(i)) continue;
        const auto machine = static_cast<MachineId>(i);
        const Work p = effective_of(machine, rowd[i]);
        const double lambda = p / options_.epsilon + p;  // empty-queue
        if (lambda < best_lambda ||
            (lambda == best_lambda && machine < best_machine)) {
          best_lambda = lambda;
          best_machine = machine;
        }
      }
    }

    // Every non-idle contender: cheap cached bound first (same sound
    // margins as the sweep — a machine whose bound exceeds the incumbent
    // can never be the argmin), exact lambda only for the few that
    // survive. The update rule is the lexicographic (lambda, id) argmin
    // and skips are sound, so the live list's order never changes the
    // outcome. The bound's p is the double entry rounded down in-register.
    for (const std::uint32_t i : live_list_) {
      const auto machine = static_cast<MachineId>(i);
      if (!fleet_.active(i)) continue;  // draining machines stay live
      if (!dense && !(rowd[i] < kTimeInfinity)) continue;  // ineligible
      const float pf = float_lower(rowd[i]);
      const float plb = fleet_speed_
                            ? pf / speed_div_up_[i]
                            : (speed_is_one_ ? pf : pf / speed_up_);
      if (static_cast<double>(lambda_lower_bound(plb, i)) > best_lambda) {
        continue;
      }
      const Work p = effective_of(machine, rowd[i]);
      const double lambda = lambda_ij(machine, j, p, release);
      if (lambda < best_lambda ||
          (lambda == best_lambda && machine < best_machine)) {
        best_lambda = lambda;
        best_machine = machine;
      }
    }
    if (!(best_lambda < kTimeInfinity)) {
      *best_lambda_out = kTimeInfinity;  // no finite lambda: force-reject
      return kInvalidMachine;
    }

    // Lookahead for the NEXT arrival: its candidate entries in the double
    // row are cold, and a prefetch issued here has a whole job's worth of
    // work to complete — issued at dispatch time it would have none. Batch stores know the
    // next job already; streaming stores don't (next == num_jobs), which
    // just skips the hint. The prefetched lines are exactly the ones the
    // next dispatch reads, so this adds no net memory traffic.
    const auto next = static_cast<std::size_t>(j) + 1;
    if (next < store_.num_jobs()) {
      const auto nj = static_cast<JobId>(next);
      const Work* nrow = store_.processing_row(nj);
      const std::span<const std::uint16_t> norder = store_.p_order_row(nj);
      if (!norder.empty()) __builtin_prefetch(nrow + norder[0], 0, 0);
      if (norder.size() > 1) __builtin_prefetch(nrow + norder[1], 0, 0);
      for (const std::uint32_t i : live_list_) {
        __builtin_prefetch(nrow + i, 0, 0);
        __builtin_prefetch(pending_[i].root_address(), 0, 3);
      }
    }

    *best_lambda_out = best_lambda;
    return best_machine;
  }

  /// Indexed dispatch: the ordered path while few machines are busy;
  /// otherwise one vectorizable sweep computes every candidate's lower
  /// bound, the argmin-bound machine seeds the incumbent, and the remaining
  /// candidates are visited best-first until the next bound exceeds the
  /// incumbent lambda. Returns the same (lambda, machine) as
  /// dispatch_linear_scan, bit for bit.
  MachineId dispatch_indexed(JobId j, double* best_lambda_out) {
    const Time release = store_.job(j).release;
    const auto eligible = store_.eligible_machines(j);
    const std::size_t count = eligible.size();
    OSCHED_CHECK(count > 0) << "job " << j << " has no eligible machine";

    // Whole fleet down: nothing can take the job (also keeps the dense
    // argmin below safe — an all-infinity lb row has no locatable seed).
    if (fleet_.num_active() == 0) {
      *best_lambda_out = kTimeInfinity;
      return kInvalidMachine;
    }

    // Few busy machines (the steady state): O(|live|) ordered path. The
    // cutover scales with the candidate count — at small m the sweep is
    // already a handful of cache lines and beats per-contender evaluation
    // as soon as a burst backs up most machines.
    if (live_list_.size() <= std::min(kOrderedPathMaxLive, count / 4 + 1)) {
      return dispatch_ordered(j, release, eligible, best_lambda_out);
    }

    const Work* row = store_.processing_row(j);
    const std::size_t m = store_.num_machines();

    // Lower-bound sweep over the double row, each entry rounded down to
    // float in-register (float_lower), so every bound is float arithmetic
    // over a value never above the exact p. lb_[k] is the bound of the
    // k-th eligible machine; the dense case (every machine eligible,
    // k == machine id) is a branch-free contiguous loop over the SoA
    // lambda inputs — the loop the layout exists for — followed by a
    // two-level argmin; the first index attaining the minimum is the
    // smallest machine id, which is the tie-break the heap uses too.
    std::size_t seed_k = 0;
    float seed_p = 0.0f;
    const bool dense = count == m && speed_is_one_;
    constexpr std::size_t kBlock = 8;
    const std::size_t full = dense ? m / kBlock : 0;
    if (dense) {
      const float* __restrict pcm = pend_cnt_margin_.data();
      const float* __restrict pmp = pend_min_p_.data();
      float* __restrict lb = lb_.data();
      util::lb_fill(row, pcm, pmp, empty_coeff_margin_, lb, m);
      // Speed mask: the bulk fill used the RAW p row, which is not a
      // lower bound on a sped-UP machine's effective lambda. O(#scaled)
      // overwrites recompute those entries from the UP-rounded divisor —
      // the same masked-fixup shape as the fleet mask below, and a no-op
      // while every multiplier is 1.
      if (fleet_speed_) {
        for (const std::uint32_t s : fleet_.scaled_list()) {
          lb[s] = lambda_lower_bound(float_lower(row[s]) / speed_div_up_[s],
                                     s);
        }
      }
      // Fleet mask: O(#inactive) overwrites keep the sweep itself
      // branch-free — masked machines can never seed and never screen in
      // as rivals. A no-op while the fleet is whole. (After the speed
      // fixup: a machine can be both scaled and down, and down wins.)
      for (const std::uint32_t down : fleet_.inactive_list()) {
        lb[down] = std::numeric_limits<float>::infinity();
      }
      // Two-level argmin: per-block minima first (min is exactly
      // associative/commutative over the NaN-free, -0.0-free lb values, so
      // any lane split gives the same value), then the first block and
      // first lane attaining the minimum. The block minima also feed the
      // rival screen below.
      const util::ArgminResult seed =
          util::block_minima_argmin(lb, m, block_min_.data());
      // Every active bound overflowed the float range: the exact scan
      // settles it (see the float-range note after the heap loop).
      if (seed.index == m) return dispatch_linear_scan(j, best_lambda_out);
      seed_k = seed.index;
      seed_p = float_lower(row[seed_k]);
    } else {
      float seed_lb = std::numeric_limits<float>::infinity();
      for (std::size_t k = 0; k < count; ++k) {
        const auto i = static_cast<std::size_t>(eligible.first[k]);
        if (!fleet_.active(i)) {
          lb_[k] = std::numeric_limits<float>::infinity();
          continue;
        }
        // speed_up_ >= speed exactly, so the float quotient stays a lower
        // bound on p/speed (speed != 1 only in the speed-augmented runs);
        // under a kSpeedChange plan the per-machine UP-rounded divisor
        // plays the same role (1.0f — exact — while unscaled).
        const float pf = float_lower(row[i]);
        const float p = fleet_speed_
                            ? pf / speed_div_up_[i]
                            : (speed_is_one_ ? pf : pf / speed_up_);
        lb_[k] = lambda_lower_bound(p, i);
        if (lb_[k] < seed_lb) {
          seed_lb = lb_[k];
          seed_k = k;
          seed_p = p;
        }
      }
    }

    const MachineId seed_machine = eligible.first[seed_k];
    const auto seed_i = static_cast<std::size_t>(seed_machine);
    if (!fleet_.active(seed_i)) {
      // Every eligible machine is masked (sparse eligibility under a fleet
      // plan) or every active bound saturated: the exact reference scan —
      // itself active-filtered — settles it, including kInvalidMachine.
      return dispatch_linear_scan(j, best_lambda_out);
    }
    // Rival screen against a sound float UPPER bound of the seed lambda
    // (lambda_seed = p/eps + p + sum min(p_l, p) <= (n_seed + 1 + 1/eps) *
    // p_up in reals; the 1.0001 factors absorb every float rounding). The
    // threshold over-approximates "bound <= exact seed lambda", so it can
    // only flag extra rivals — the heap loop re-checks against the exact
    // incumbent — never miss one. In the dense case the block minima from
    // the argmin pass screen eight machines per compare, and almost always
    // conclude "seed only" without touching the per-machine bounds again.
    const float* __restrict lbs = lb_.data();
    float threshold = std::numeric_limits<float>::max();
    // The screen needs a sound UPPER bound on the seed's effective p; while
    // any speed multiplier is in force, seed_p came through a rounded
    // division and next-up no longer covers the exact value — leave the
    // threshold saturated so every bounded candidate reaches the heap's
    // exact re-check (outcome unchanged, just less pruning).
    // Capped at FLT_MAX, which keeps every +inf bound (masked, or past the
    // float range) out of the heap; every other bound is at most FLT_MAX.
    if (speed_is_one_ && !(fleet_speed_ && fleet_.any_speed_scaled())) {
      const float p_up = float_next_up(seed_p);
      threshold = std::min(
          (p_up * empty_coeff_up_ +
           static_cast<float>(pend_n_[seed_i]) * p_up * 1.0001f) *
              1.0001f,
          std::numeric_limits<float>::max());
    }
    bool has_rivals = false;
    if (dense) {
      const std::size_t seed_block = seed_k / kBlock;
      const float* __restrict bmin = block_min_.data();
      for (std::size_t b = 0; b < full && !has_rivals; ++b) {
        has_rivals = b != seed_block && bmin[b] <= threshold;
      }
      if (!has_rivals) {
        // The seed's own block (or the tail, when the seed sits there)...
        const std::size_t lo = seed_block * kBlock;
        const std::size_t hi = std::min(m, lo + kBlock);
        for (std::size_t i2 = lo; i2 < hi; ++i2) {
          has_rivals |= i2 != seed_k && lbs[i2] <= threshold;
        }
        // ...and the tail block, which has no bmin entry.
        if (seed_block != full) {
          for (std::size_t i2 = full * kBlock; i2 < m; ++i2) {
            has_rivals |= lbs[i2] <= threshold;
          }
        }
      }
    } else {
      for (std::size_t k = 0; k < count; ++k) {
        has_rivals |= k != seed_k && lbs[k] <= threshold;
      }
    }
    heap_.reset();
    if (has_rivals) {
      for (std::size_t k = 0; k < count; ++k) {
        if (k == seed_k || lbs[k] > threshold) continue;
        heap_.push(lbs[k], static_cast<std::uint32_t>(eligible.first[k]));
      }
    }

    // Exact incumbent, then best-first rival evaluation with the exact
    // pruning rule. Both scale the row entry the sweep already read.
    double best_lambda =
        lambda_ij(seed_machine, j, effective_of(seed_machine, row[seed_i]),
                  release);
    MachineId best_machine = seed_machine;
    while (!heap_.empty()) {
      const auto entry = heap_.pop_min();
      if (entry.key > best_lambda) break;
      const auto machine = static_cast<MachineId>(entry.id);
      const Work p = effective_of(machine, row[entry.id]);
      const double lambda = lambda_ij(machine, j, p, release);
      if (lambda < best_lambda ||
          (lambda == best_lambda && machine < best_machine)) {
        best_lambda = lambda;
        best_machine = machine;
      }
    }
    // Float range: lb_fill leaves a bound past FLT_MAX at +inf, which
    // never enters the heap (the threshold is capped at FLT_MAX). Such a
    // machine's lambda exceeds FLT_MAX, so it can only win when the
    // incumbent's does too — then the exact scan settles it. The other
    // bounds saturate at FLT_MAX (lambda_lower_bound) and are screened in.
    if (dense && !(best_lambda < std::numeric_limits<float>::max())) {
      return dispatch_linear_scan(j, best_lambda_out);
    }
    *best_lambda_out = best_lambda;
    // No finite lambda (every candidate overflowed): force-reject, as the
    // linear scan does.
    return best_lambda < kTimeInfinity ? best_machine : kInvalidMachine;
  }

  // ---- pending-queue mutations keep the cached lambda inputs in sync
  // (only the touched machine's entries are ever written) ----

  void pending_insert(std::size_t i, const PendingKey& key) {
    pending_[i].insert(key);
    // The margin product is recomputed from the integer count (never
    // accumulated), so it cannot drift above margin * n_i.
    const std::uint32_t n = ++pend_n_[i];
    pend_cnt_margin_[i] = kDispatchBoundMarginF * static_cast<float>(n);
    if (n == 1) live_add(i);
    const float low = float_lower(key.p);
    if (low < pend_min_p_[i]) pend_min_p_[i] = low;
  }

  PendingKey pending_pop_min(std::size_t i) {
    const PendingKey* next = nullptr;
    const PendingKey key = pending_[i].pop_min_peek_next(&next);
    const std::uint32_t n = --pend_n_[i];
    pend_cnt_margin_[i] = kDispatchBoundMarginF * static_cast<float>(n);
    if (n == 0) live_remove(i);
    // The popped key was the order minimum, so the reported successor's p
    // is the new pending minimum (p is the primary key component).
    pend_min_p_[i] = next == nullptr ? std::numeric_limits<float>::max()
                                     : float_lower(next->p);
    return key;
  }

  void pending_erase(std::size_t i, const PendingKey& key) {
    OSCHED_CHECK(pending_[i].erase(key));
    const std::uint32_t n = --pend_n_[i];
    pend_cnt_margin_[i] = kDispatchBoundMarginF * static_cast<float>(n);
    if (n == 0) live_remove(i);
    if (float_lower(key.p) <= pend_min_p_[i]) {
      pend_min_p_[i] = pending_[i].empty()
                           ? std::numeric_limits<float>::max()
                           : float_lower(pending_[i].min()->p);
    }
  }

  // ---- live-machine set: machines with a non-empty pending queue, kept
  // as a swap-remove list with a position map. The dispatch's ordered path
  // is O(|live|); outcomes never depend on the list's internal order
  // (candidates are compared lexicographically by (lambda, id)). ----

  void live_add(std::size_t i) {
    live_pos_[i] = static_cast<std::uint32_t>(live_list_.size()) + 1;
    live_list_.push_back(static_cast<std::uint32_t>(i));
    idle_bias_[i] = kTimeInfinity;
  }

  void live_remove(std::size_t i) {
    const std::uint32_t pos = live_pos_[i] - 1;
    const std::uint32_t last = live_list_.back();
    live_list_[pos] = last;
    live_pos_[last] = pos + 1;
    live_list_.pop_back();
    live_pos_[i] = 0;
    idle_bias_[i] = idle_bias_of(i);
  }

  /// The idle scan's mask entry: 0.0 for an idle, active machine at the
  /// shared base speed, +inf otherwise. live_add/live_remove (the only
  /// places pend_n_ crosses zero) and on_machine_change keep it current.
  double idle_bias_of(std::size_t i) const {
    return pend_n_[i] == 0 && fleet_.active(i) &&
                   fleet_.speed_multiplier(i) == 1.0
               ? 0.0
               : kTimeInfinity;
  }

  void start_next(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    OSCHED_CHECK_EQ(running_[i], kInvalidJob);
    if (pending_[i].empty()) return;
    const PendingKey key = pending_pop_min(i);
    v_counter_[i] = 0;
    this->start_job(machine, key.id, key.p, now);
  }

  void reject_running(MachineId machine, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    const JobId k = running_[i];
    OSCHED_CHECK(k != kInvalidJob);
    const Time remaining = running_end_[i] - now;
    OSCHED_CHECK_GE(remaining, -kTimeEps);
    events_.cancel(completion_event_[i]);
    rec_.mark_rejected_running(k, now);

    // Every job of U_i(now) — the pending jobs and k itself — has its
    // definitive finish pushed back by the removed remaining time. The
    // pending queue is walked in place; no per-rejection id vector.
    dual_.on_rule1_rejection(k, std::max(0.0, remaining), [&](auto&& extend) {
      pending_[i].for_each([&](const PendingKey& key) { extend(key.id); });
    });
    dual_.finalize(k, store_.job(k).release, now);

    running_[i] = kInvalidJob;
    ++rule1_rejections_;
  }

  PendingKey select_rule2_victim(std::size_t i, MachineId machine, JobId trigger) {
    switch (options_.rule2_victim) {
      case Rule2Victim::kLargest:
        return *pending_[i].max();
      case Rule2Victim::kSmallest:
        return *pending_[i].min();
      case Rule2Victim::kNewest:
        return make_key(machine, trigger);
      case Rule2Victim::kRandom:
        // Order-statistic select: O(log n) for the same in-order position
        // (and the same RNG draw) the former O(n) for_each scan picked.
        return pending_[i].kth(victim_rng_.index(pending_[i].size()));
    }
    OSCHED_CHECK(false) << "unreachable victim rule";
    return PendingKey{};
  }

  void reject_largest_pending(MachineId machine, JobId trigger, Time now) {
    const auto i = static_cast<std::size_t>(machine);
    // The trigger was dispatched to this machine and has not started, so the
    // pending queue is non-empty.
    OSCHED_CHECK(!pending_[i].empty());
    const PendingKey victim = select_rule2_victim(i, machine, trigger);

    const Time remaining_of_running =
        running_[i] != kInvalidJob ? std::max(0.0, running_end_[i] - now) : 0.0;
    // Pending total except the just-arrived trigger and the victim itself.
    double sum_except = pending_[i].total_weight() - victim.p;
    if (victim.id != trigger) {
      sum_except -= effective_processing(machine, trigger);
    }
    dual_.on_rule2_rejection(victim.id, remaining_of_running,
                             std::max(0.0, sum_except), victim.p);
    dual_.finalize(victim.id, store_.job(victim.id).release, now);
    rec_.mark_rejected_pending(victim.id, now);
    pending_erase(i, victim);
    ++rule2_rejections_;
  }

  // ---- PolicyCore hooks ----

  MachineId pick(JobId j, Time /*now*/, double* best_lambda_out) {
    return options_.dispatch == DispatchMode::kIndexed
               ? dispatch_indexed(j, best_lambda_out)
               : dispatch_linear_scan(j, best_lambda_out);
  }

  void enqueue(MachineId machine, JobId j) {
    pending_insert(static_cast<std::size_t>(machine), make_key(machine, j));
  }

  /// Pops the whole queue through pending_pop_min so the cached lambda
  /// inputs and the live list stay in sync; orphans come out in SPT order.
  void take_queue(std::size_t i, std::vector<JobId>& out) {
    while (pend_n_[i] != 0) out.push_back(pending_pop_min(i).id);
  }

  template <class Fn>
  void for_each_pending(Fn&& fn) const {
    for (const std::uint32_t i : live_list_) {
      pending_[i].for_each(
          [&](const PendingKey& key) { fn(i, key.id, key.p); });
    }
  }

  void erase_pending(std::size_t i, JobId id, Work p) {
    pending_erase(i, PendingKey{p, store_.job(id).release, id});
  }

  void reset_machine(std::size_t i) {
    v_counter_[i] = 0;
    c_counter_[i] = 0;
  }

  /// Fault and forced rejections leave the rule counters alone but close
  /// the job's dual record, like every other exit.
  void on_rejected(JobId j, Time now) {
    dual_.finalize(j, store_.job(j).release, now);
  }
  void on_completed(JobId j, Time now) {
    dual_.finalize(j, store_.job(j).release, now);
  }

  /// A fleet event on machine i: refresh its idle-scan mask entry and its
  /// UP-rounded float divisor, so the bound sweeps stay sound under a new
  /// multiplier.
  void on_machine_change(std::size_t i) {
    idle_bias_[i] = idle_bias_of(i);
    if (!fleet_speed_) return;
    const double s = options_.speed * fleet_.speed_multiplier(i);
    speed_div_up_[i] = s == 1.0 ? 1.0f : float_next_up(static_cast<float>(s));
  }

  /// ε-charged shed booking: the eviction enters the dual exactly like a
  /// Rule 2 rejection (definitive-finish extension by the victim's
  /// estimated completion, then finalize), so sum lambda / beta stay a
  /// valid certificate with the shed counted as a paper rejection. Unlike
  /// reject_largest_pending this fires outside the c-counters (the budget
  /// lives in the session, which charges it against floor(2εn) alongside
  /// rule1_rejections + rule2_rejections).
  void book_charged_shed(std::size_t i, JobId victim, Work p, Time now) {
    const Time remaining_of_running =
        running_[i] != kInvalidJob ? std::max(0.0, running_end_[i] - now) : 0.0;
    // Estimated completion had the victim stayed: the running remainder
    // plus everything queued with it (it is its machine's largest, so the
    // whole queue is "ahead") plus its own processing time. No arriving
    // trigger to exclude — the shed fires before the triggering arrival is
    // dispatched anywhere.
    const double sum_except = pending_[i].total_weight() - p;
    dual_.on_rule2_rejection(victim, remaining_of_running,
                             std::max(0.0, sum_except), p);
    dual_.finalize(victim, store_.job(victim).release, now);
  }

  RejectionFlowOptions options_;
  FlowDualAccounting dual_;
  util::SlidingVector<double> lambda_;
  util::Rng victim_rng_;

  // ---- machine state, structure-of-arrays (indexed by machine id) ----
  std::vector<PendingQueue> pending_;
  std::vector<std::int64_t> v_counter_;  ///< Rule 1 dispatch counters
  std::vector<std::int64_t> c_counter_;  ///< Rule 2 dispatch counters
  /// Cached lambda inputs (contiguous float32; written only for touched
  /// machines, read as whole rows by the dispatch sweep).
  std::vector<std::uint32_t> pend_n_;    ///< authoritative pending count
  std::vector<float> pend_cnt_margin_;   ///< marginF * pend_n_ (derived)
  std::vector<float> pend_min_p_;        ///< float_lower(min pending p)
  std::vector<std::uint32_t> live_list_;  ///< machines with pend_n_ > 0
  std::vector<std::uint32_t> live_pos_;   ///< position + 1 in live_list_
  /// Idle-scan mask: 0.0 for an idle, active, unscaled machine, +inf
  /// otherwise (see idle_bias_of).
  std::vector<double> idle_bias_;

  // ---- dispatch scratch, reused across arrivals ----
  std::vector<float> lb_;
  std::vector<float> block_min_;
  float empty_coeff_margin_ = 0.0f;  ///< marginF * (1/eps + 1)
  float empty_coeff_up_ = 0.0f;      ///< (1/eps + 1) * 1.0001 (upper twin)
  float speed_up_ = 1.0f;            ///< float(speed) rounded up
  /// kSpeedChange plans only: per-machine combined divisor
  /// (options.speed * multiplier) rounded up as a float, exactly 1.0f when
  /// the combination is exactly 1 (division by 1.0f is exact).
  std::vector<float> speed_div_up_;

  std::int64_t rule1_threshold_ = 0;
  std::int64_t rule2_threshold_ = 0;
  std::size_t rule1_rejections_ = 0;
  std::size_t rule2_rejections_ = 0;
};

}  // namespace osched

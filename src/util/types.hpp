// Core scalar types shared by every module.
//
// Time and processing volumes are continuous (double): the flow-time and
// flow+energy algorithms (Theorems 1 and 2 of the paper) are stated in
// continuous time. The energy-minimization algorithm (Theorem 3) uses its
// own discretized time grid on top of these scalars, exactly as the paper
// discretizes in §4.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace osched {

/// Continuous time (seconds, arbitrary unit).
using Time = double;

/// Processing time (T1) or processing volume (T2/T3) of a job on a machine.
using Work = double;

/// Job weight (T2); 1.0 for unweighted problems.
using Weight = double;

/// Machine speed in the speed-scaling model.
using Speed = double;

/// Energy (integral of power over time).
using Energy = double;

/// Index of a job within an Instance. Jobs are numbered 0..n-1 in release
/// order (ties broken by index).
using JobId = std::int32_t;

/// Index of a machine within an Instance.
using MachineId = std::int32_t;

inline constexpr JobId kInvalidJob = -1;
inline constexpr MachineId kInvalidMachine = -1;
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Absolute slack used when comparing continuous times that were produced by
/// arithmetically equivalent but differently-ordered computations.
inline constexpr double kTimeEps = 1e-9;

/// How the argmin-lambda dispatch of the online policies enumerates
/// candidate machines. Both modes return the exact lexicographic
/// (lambda, machine id) argmin and are bit-identical to each other —
/// tests/dispatch_index_test.cpp pins that down differentially.
enum class DispatchMode {
  /// Production path: per-machine cached lambda lower bounds ordered by a
  /// best-first min-heap; exact lambda is evaluated only until the next
  /// bound exceeds the incumbent.
  kIndexed,
  /// Reference path: evaluate lambda for every eligible machine in
  /// ascending machine-id order, no pruning.
  kLinearScan,
};

/// Margin applied to the dispatch index's lower bounds before they prune an
/// exact lambda evaluation. The bounds are true lower bounds in real
/// arithmetic; the exact lambda is computed with O(pending) floating-point
/// operations whose accumulated relative error is far below 2^-20, so
/// scaling the bound by (1 - 2^-20) keeps it a sound lower bound on the
/// *rounded* lambda value — a pruned machine can never be the argmin.
inline constexpr double kDispatchBoundMargin = 1.0 - 1.0 / (1 << 20);

/// The float32 counterpart for the shadow-bounds sweep (half the memory
/// traffic of the double row). Float evaluation adds at most a few 2^-24
/// relative roundings on top of inputs that are themselves rounded DOWN
/// (float_lower), so a 2^-16 margin keeps the bound sound with room to
/// spare while giving up a negligible sliver of pruning power.
inline constexpr float kDispatchBoundMarginF = 1.0f - 1.0f / (1 << 16);

/// Largest float <= x for finite non-negative x; +infinity maps to
/// FLT_MAX. This is the rounded-down double-to-float conversion behind the
/// dispatch index's shadow bounds: the float shadow never exceeds the
/// double it stands in for, which is what keeps the float bounds sound.
/// One ulp toward zero is an integer decrement of the IEEE representation
/// for positive floats — nextafterf is a libm call, too slow for a
/// per-queue-touch operation.
inline float float_lower(double x) {
  float f = static_cast<float>(x);
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  // Step one ulp toward zero whenever the nearest-rounding went up (or x
  // was +inf). Both tests are evaluated as 0/1 integers and combined with
  // a bitwise OR: a short-circuit || compiles to a data-dependent jump,
  // which mispredicts about half the time on real p values and keeps the
  // shadow-fill loops from vectorizing.
  const auto went_up = static_cast<std::uint32_t>(static_cast<double>(f) > x);
  const auto is_inf = static_cast<std::uint32_t>(
      !(f < std::numeric_limits<float>::infinity()));
  bits -= went_up | is_inf;
  std::memcpy(&f, &bits, sizeof(bits));
  return f;
}

namespace detail {

/// Packed sort key for the per-job (p, id) machine orders: the IEEE bit
/// pattern of a non-negative double orders exactly like its value, so one
/// integer compare replaces a double compare plus an id tie-break chase.
/// Machine ids are uint16: order tables exist only below 65536 machines.
struct POrderKey {
  std::uint64_t pbits = 0;
  std::uint16_t id = 0;

  static POrderKey make(double p, std::uint16_t machine) {
    POrderKey key;
    std::memcpy(&key.pbits, &p, sizeof(key.pbits));
    key.id = machine;
    return key;
  }

  bool operator<(const POrderKey& other) const {
    if (pbits != other.pbits) return pbits < other.pbits;
    return id < other.id;
  }
};

}  // namespace detail

/// Next float above f for non-negative finite f (+infinity stays put).
inline float float_next_up(float f) {
  if (!(f < std::numeric_limits<float>::infinity())) return f;
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  bits += 1;
  std::memcpy(&f, &bits, sizeof(bits));
  return f;
}

}  // namespace osched

// The dense lower-bound sweep of rejection_flow_policy.hpp's
// dispatch_indexed: the float32 lower-bound fill and the kBlock = 8 block
// minima plus first-index argmin.
//
// They are plain scalar loops the compiler autovectorizes where it can
// (docs/ARCHITECTURE.md, "Dispatch loops", says why there is no
// hand-vectorized tier).
//
// Contract the callers rely on:
//  * lb_fill performs exactly mul, min, mul, add per machine.
//  * Inputs are NaN-free and never -0.0 (finite positive p, +inf for
//    masked machines, and the float_lower shadow maps +inf to FLT_MAX), so
//    min is exactly associative and commutative.
//  * Index selection is first-index-of-minimum: the lexicographic
//    (value, id) tie-break of every dispatch path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

namespace osched::util {

/// lb[i] = row[i] * coeff + pcm[i] * min(row[i], pmp[i]) for i in [0, m):
/// the dense lower-bound fill of dispatch_indexed.
inline void lb_fill(const float* row, const float* pcm, const float* pmp,
                    float coeff, float* lb, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    const float p = row[i];
    lb[i] = p * coeff + pcm[i] * std::min(p, pmp[i]);
  }
}

/// (minimum value, first index attaining it).
struct ArgminResult {
  float value = 0.0f;
  std::size_t index = 0;
};

/// Fills bmin[b] = min(lb[8b .. 8b+8)) for every FULL block b < m/8 (the
/// rival screen's block minima) and returns the global minimum over all of
/// lb[0, m), tail included, with the first index attaining it. The minimum
/// is seeded at FLT_MAX, so an empty or all-+inf row returns {FLT_MAX, m}.
inline ArgminResult block_minima_argmin(const float* lb, std::size_t m,
                                        float* bmin) {
  const std::size_t full = m / 8;
  for (std::size_t b = 0; b < full; ++b) {
    const float* chunk = lb + b * 8;
    const float v0 = std::min(chunk[0], chunk[1]);
    const float v1 = std::min(chunk[2], chunk[3]);
    const float v2 = std::min(chunk[4], chunk[5]);
    const float v3 = std::min(chunk[6], chunk[7]);
    bmin[b] = std::min(std::min(v0, v1), std::min(v2, v3));
  }
  float gmin = std::numeric_limits<float>::max();
  for (std::size_t i = full * 8; i < m; ++i) gmin = std::min(gmin, lb[i]);
  for (std::size_t b = 0; b < full; ++b) gmin = std::min(gmin, bmin[b]);
  // Locate the first index attaining the minimum: earlier blocks whose
  // bmin exceeds it cannot contain it.
  for (std::size_t b = 0; b < full; ++b) {
    if (bmin[b] == gmin) {
      std::size_t i = b * 8;
      while (lb[i] != gmin) ++i;
      return ArgminResult{gmin, i};
    }
  }
  for (std::size_t i = full * 8; i < m; ++i) {
    if (lb[i] == gmin) return ArgminResult{gmin, i};
  }
  // Only reachable when no entry equals the FLT_MAX seed (an all-+inf row):
  // index m tells the caller there is no candidate.
  return ArgminResult{gmin, m};
}

}  // namespace osched::util

// float_lower's definition, written the slow obvious way, for the tests
// that pin the dispatch sweep's in-register rounding bit for bit.
#pragma once

#include <cfloat>
#include <cmath>
#include <limits>

namespace osched::testing {

/// The largest float not above x, with +inf mapped to FLT_MAX.
inline float lower_reference(double x) {
  if (x == std::numeric_limits<double>::infinity()) return FLT_MAX;
  float f = static_cast<float>(x);
  if (static_cast<double>(f) > x) f = std::nextafter(f, 0.0f);
  return f;
}

}  // namespace osched::testing

// Edge contracts of the dense lower-bound sweep (util/dispatch_argmin.hpp):
// an all-+inf row gives {FLT_MAX, m} and ties go to the first index. The
// dispatch walls (dispatch_index_test, storage_backend_test) cover the
// loops inside the policy; these cases pin the boundaries the caller
// relies on.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/dispatch_argmin.hpp"

namespace osched::util {
namespace {

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Sizes straddling every block boundary the loops care about: empty,
// sub-block tails, exact multiples of 8, odd blocks, a large row.
const std::size_t kSizes[] = {0,  1,  2,  3,  7,  8,   9,   15,  16, 17,
                              23, 24, 31, 32, 33, 63,  64,  65,  96, 127,
                              128, 129, 255, 256, 257, 1000};

TEST(DispatchArgmin, BlockMinimaAllInfinityRow) {
  // Rows of pure +inf: the minimum stays at the FLT_MAX seed and the index
  // reports m ("nothing at or below the seed").
  for (const std::size_t m : kSizes) {
    std::vector<float> lb(m, std::numeric_limits<float>::infinity());
    std::vector<float> bmin(m / 8);
    const ArgminResult got = block_minima_argmin(lb.data(), m, bmin.data());
    EXPECT_EQ(bits_of(got.value), bits_of(FLT_MAX)) << "m=" << m;
    EXPECT_EQ(got.index, m) << "m=" << m;
  }
}

TEST(DispatchArgmin, BlockMinimaFirstIndexOnTies) {
  // The SAME minimum in several lanes and blocks: the FIRST index wins.
  for (const std::size_t m : kSizes) {
    for (const std::size_t first :
         {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{17},
          std::size_t{33}, m / 2, m - 1}) {
      if (first >= m) continue;
      std::vector<float> lb(m, 7.0f);
      for (std::size_t i = first; i < m; i += 5) lb[i] = 1.5f;  // many ties
      std::vector<float> bmin(m / 8);
      const ArgminResult got = block_minima_argmin(lb.data(), m, bmin.data());
      EXPECT_EQ(got.index, first) << "m=" << m << " first=" << first;
      EXPECT_EQ(bits_of(got.value), bits_of(1.5f)) << "m=" << m;
    }
  }
}

}  // namespace
}  // namespace osched::util

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "device/edge_partition.hpp"

namespace ecl::test {
namespace {

using device::EdgeSpan;
using device::equal_edge_span;
using device::owner_of;

TEST(EdgePartition, EqualSpansCoverTotalInOrder) {
  for (std::uint64_t total : {0ull, 1ull, 7ull, 8ull, 100ull, 12345ull}) {
    for (unsigned blocks : {1u, 2u, 3u, 8u, 17u}) {
      std::uint64_t expect_begin = 0;
      for (unsigned b = 0; b < blocks; ++b) {
        const EdgeSpan span = equal_edge_span(b, blocks, total);
        EXPECT_EQ(span.begin, expect_begin) << total << "/" << blocks << " block " << b;
        EXPECT_LE(span.begin, span.end);
        expect_begin = span.end;
      }
      EXPECT_EQ(expect_begin, total) << total << "/" << blocks;
    }
  }
}

TEST(EdgePartition, EqualSpansDifferByAtMostOne) {
  const std::uint64_t total = 1000;
  const unsigned blocks = 7;
  std::uint64_t lo = total, hi = 0;
  for (unsigned b = 0; b < blocks; ++b) {
    const EdgeSpan span = equal_edge_span(b, blocks, total);
    lo = std::min(lo, span.size());
    hi = std::max(hi, span.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(EdgePartition, MoreBlocksThanWorkLeavesTailEmpty) {
  const EdgeSpan busy = equal_edge_span(2, 8, 3);
  EXPECT_EQ(busy.size(), 1u);
  const EdgeSpan idle = equal_edge_span(7, 8, 3);
  EXPECT_TRUE(idle.empty());
  EXPECT_TRUE(equal_edge_span(0, 4, 0).empty());
}

TEST(EdgePartition, OwnerOfFindsContainingItem) {
  // CSR-style offsets for degrees {2, 0, 3, 1}.
  const std::vector<std::uint64_t> offsets = {0, 2, 2, 5, 6};
  const std::span<const std::uint64_t> view(offsets);
  EXPECT_EQ(owner_of(view, 0), 0u);
  EXPECT_EQ(owner_of(view, 1), 0u);
  EXPECT_EQ(owner_of(view, 2), 2u);  // vertex 1 has degree 0 and owns nothing
  EXPECT_EQ(owner_of(view, 4), 2u);
  EXPECT_EQ(owner_of(view, 5), 3u);
}

}  // namespace
}  // namespace ecl::test

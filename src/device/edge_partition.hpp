#ifndef ECL_DEVICE_EDGE_PARTITION_HPP
#define ECL_DEVICE_EDGE_PARTITION_HPP

// Edge-balanced work partitioning (DESIGN.md §11).
//
// The classic BlockContext::for_each_chunk distribution hands every block
// equal ITEM chunks, so on skewed inputs a block that owns a hub does
// orders of magnitude more edge work than its peers. The helpers here give
// each block an equal EDGE span instead:
//
//  * equal_edge_span — the degenerate merge-path split for a flat work
//    array (one work unit per item): contiguous, equal-size spans, so the
//    grid scans the array exactly once in order instead of in
//    block-strided chunks.
//  * owner_of — the CSR form: given an offsets array (offsets[i]..
//    offsets[i+1] = item i's work units, e.g. a graph's CSR offsets), one
//    upper_bound finds the single item that owns a work unit, with no
//    precomputed per-edge array. This is the merge-path diagonal split of
//    Green et al. specialized to the one-list case; shard_cuts uses it to
//    cut a graph into equal-edge vertex ranges.
//
// All helpers are pure functions of (block, grid, offsets); they are safe
// to call concurrently from kernels.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ecl::device {

/// Half-open span of global work-unit indices owned by one block.
struct EdgeSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin >= end; }
};

/// Equal contiguous partition of `total` work units over `num_blocks`
/// blocks; spans differ in size by at most one unit (the remainder goes to
/// the lowest-numbered blocks). Requires num_blocks > 0 and
/// block < num_blocks; total == 0 yields empty spans for every block.
constexpr EdgeSpan equal_edge_span(unsigned block, unsigned num_blocks,
                                   std::uint64_t total) noexcept {
  const std::uint64_t q = total / num_blocks;
  const std::uint64_t r = total % num_blocks;
  const std::uint64_t begin =
      static_cast<std::uint64_t>(block) * q + std::min<std::uint64_t>(block, r);
  return {begin, begin + q + (block < r ? 1 : 0)};
}

/// The unique item i with offsets[i] <= k < offsets[i+1], for a CSR-style
/// offsets array (size n + 1, offsets[0] == 0, nondecreasing). Items with
/// zero work are skipped by construction. Requires k < offsets.back().
template <typename OffsetT>
std::size_t owner_of(std::span<const OffsetT> offsets, std::uint64_t k) noexcept {
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), static_cast<OffsetT>(k));
  return static_cast<std::size_t>(it - offsets.begin()) - 1;
}

}  // namespace ecl::device

#endif  // ECL_DEVICE_EDGE_PARTITION_HPP

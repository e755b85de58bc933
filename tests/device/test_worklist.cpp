#include <gtest/gtest.h>

#include "device/device.hpp"
#include "device/worklist.hpp"
#include "graph/generators.hpp"

namespace ecl::test {
namespace {

using device::EdgeWorklist;
using graph::Edge;

/// One-edge append: a span of length one through the bulk path.
void push(EdgeWorklist& wl, Edge e) { wl.push_next_bulk({&e, 1}); }

TEST(Worklist, InitFromGraphHoldsAllEdges) {
  const auto g = graph::cycle_graph(16);
  EdgeWorklist wl(g);
  EXPECT_EQ(wl.size(), 16u);
  for (const Edge& e : wl.edges()) EXPECT_TRUE(g.has_edge(e.src, e.dst));
}

TEST(Worklist, PushAndSwap) {
  const std::vector<Edge> init{{0, 1}, {1, 2}, {2, 0}};
  EdgeWorklist wl{std::span<const Edge>(init)};
  push(wl, {0, 1});
  push(wl, {2, 0});
  EXPECT_EQ(wl.size(), 3u);       // current buffer unchanged
  EXPECT_EQ(wl.next_size(), 2u);  // survivors staged
  wl.swap_buffers();
  EXPECT_EQ(wl.size(), 2u);
  EXPECT_EQ(wl.next_size(), 0u);
}

TEST(Worklist, MarkRewindRestoresIterationStartEdges) {
  const std::vector<Edge> init{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}};
  EdgeWorklist wl{std::span<const Edge>(init)};
  // One shrink first, so the marked set sits in the second buffer.
  for (const Edge& e : init)
    if (e.src != 3) push(wl, e);
  wl.swap_buffers();
  const std::vector<Edge> marked(wl.edges().begin(), wl.edges().end());
  ASSERT_EQ(marked.size(), 5u);

  const EdgeWorklist::Mark mark = wl.mark();
  push(wl, marked[4]);  // this iteration's survivors
  push(wl, marked[1]);
#ifdef NDEBUG
  // Past capacity (asserts in debug builds): dropped and recorded.
  for (const Edge& e : init) push(wl, e);
  EXPECT_TRUE(wl.overflowed());
#endif
  wl.swap_buffers();
  EXPECT_EQ(wl.edges()[0], marked[4]);

  wl.rewind(mark);
  EXPECT_EQ(std::vector<Edge>(wl.edges().begin(), wl.edges().end()), marked);
  EXPECT_EQ(wl.next_size(), 0u);
  EXPECT_FALSE(wl.overflowed());
  EXPECT_EQ(wl.dropped_edges(), 0u);

  // The rewound worklist shrinks again as usual.
  push(wl, marked[2]);
  wl.swap_buffers();
  ASSERT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.edges()[0], marked[2]);
}

TEST(Worklist, RepeatedShrinkage) {
  const auto g = graph::cycle_graph(64);
  EdgeWorklist wl(g);
  // Keep every other edge each round: size halves until empty.
  std::size_t expected = 64;
  while (expected > 0) {
    const auto edges = wl.edges();
    for (std::size_t i = 0; i < edges.size(); i += 2) push(wl, edges[i]);
    wl.swap_buffers();
    expected = (expected + 1) / 2;
    if (expected == 1) {
      EXPECT_EQ(wl.size(), 1u);
      wl.swap_buffers();  // keep nothing
      break;
    }
    EXPECT_EQ(wl.size(), expected);
  }
  EXPECT_TRUE(wl.empty());
}

TEST(Worklist, ConcurrentPushesFromDeviceBlocks) {
  const std::size_t m = 10'000;
  std::vector<Edge> init(m);
  for (std::size_t i = 0; i < m; ++i)
    init[i] = {static_cast<graph::vid>(i), static_cast<graph::vid>(i + 1)};
  EdgeWorklist wl{std::span<const Edge>(init)};

  device::Device dev(device::tiny_profile(), 4);
  const auto edges = wl.edges();
  dev.launch(8, [&](const device::BlockContext& ctx) {
    ctx.for_each_chunk(m, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) push(wl, edges[i]);
    });
  });
  wl.swap_buffers();
  ASSERT_EQ(wl.size(), m);

  // Every edge must appear exactly once (in some order).
  std::vector<std::uint8_t> seen(m, 0);
  for (const Edge& e : wl.edges()) {
    ASSERT_LT(e.src, m);
    ASSERT_EQ(seen[e.src], 0);
    seen[e.src] = 1;
  }
}

TEST(Worklist, OverflowAssertsInDebugBuilds) {
  const std::vector<Edge> init{{0, 1}, {1, 2}};
  auto overflow = [&] {
    EdgeWorklist wl{std::span<const Edge>(init)};
    push(wl, {0, 1});
    push(wl, {1, 2});
    push(wl, {2, 0});  // past capacity
  };
  EXPECT_DEBUG_DEATH(overflow(), "push_next_bulk");
}

#ifdef NDEBUG
TEST(Worklist, OverflowRaisesStickyFlagAndDropsEdge) {
  const std::vector<Edge> init{{0, 1}, {1, 2}};
  EdgeWorklist wl{std::span<const Edge>(init)};
  EXPECT_FALSE(wl.overflowed());
  push(wl, {0, 1});
  push(wl, {1, 2});
  EXPECT_FALSE(wl.overflowed());
  push(wl, {2, 0});  // past capacity: dropped, flag raised
  EXPECT_TRUE(wl.overflowed());
  EXPECT_EQ(wl.next_size(), 3u) << "the cursor records the attempted append";
  wl.swap_buffers();
  EXPECT_EQ(wl.size(), 2u) << "swap clamps to the edges actually stored";
  EXPECT_TRUE(wl.overflowed()) << "the flag is sticky across swaps";
  wl.clear_overflow();
  EXPECT_FALSE(wl.overflowed());
}
#endif

TEST(Worklist, BulkPushStoresWholeSpanWithOneReservation) {
  const std::vector<Edge> init{{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  EdgeWorklist wl{std::span<const Edge>(init)};
  const std::vector<Edge> batch{{0, 1}, {2, 3}, {3, 0}};
  wl.push_next_bulk(batch);
  wl.push_next_bulk({});  // empty span: no-op, no cursor movement
  EXPECT_EQ(wl.next_size(), 3u);
  EXPECT_FALSE(wl.overflowed());
  wl.swap_buffers();
  ASSERT_EQ(wl.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(wl.edges()[i].src, batch[i].src);
    EXPECT_EQ(wl.edges()[i].dst, batch[i].dst);
  }
}

TEST(Worklist, BulkOverflowAssertsInDebugBuilds) {
  const std::vector<Edge> init{{0, 1}, {1, 2}};
  auto overflow = [&] {
    EdgeWorklist wl{std::span<const Edge>(init)};
    const std::vector<Edge> batch{{0, 1}, {1, 2}, {2, 0}};
    wl.push_next_bulk(batch);  // 3 edges into capacity 2
  };
  EXPECT_DEBUG_DEATH(overflow(), "push_next_bulk");
}

#ifdef NDEBUG
TEST(Worklist, BulkOverflowStoresPrefixAndCountsDroppedEdges) {
  const std::vector<Edge> init{{0, 1}, {1, 2}, {2, 0}};
  EdgeWorklist wl{std::span<const Edge>(init)};
  const std::vector<Edge> batch{{0, 1}, {1, 2}, {2, 0}, {0, 2}, {1, 0}};
  wl.push_next_bulk(batch);  // 5 edges into capacity 3
  EXPECT_TRUE(wl.overflowed());
  EXPECT_EQ(wl.dropped_edges(), 2u);
  EXPECT_EQ(wl.next_size(), 5u) << "the cursor records the attempted append";
  wl.push_next_bulk(batch);  // cursor already past capacity: all dropped
  EXPECT_EQ(wl.dropped_edges(), 7u);
  wl.swap_buffers();
  EXPECT_EQ(wl.size(), 3u) << "swap clamps to the edges actually stored";
  EXPECT_EQ(wl.edges()[0].dst, 1u) << "the fitting prefix is intact";
  EXPECT_EQ(wl.dropped_edges(), 7u) << "the drop count is sticky across swaps";
  wl.clear_overflow();
  EXPECT_FALSE(wl.overflowed());
  EXPECT_EQ(wl.dropped_edges(), 0u);
}

TEST(Worklist, SinglePushOverflowCountsDroppedEdges) {
  const std::vector<Edge> init{{0, 1}};
  EdgeWorklist wl{std::span<const Edge>(init)};
  push(wl, {0, 1});
  EXPECT_EQ(wl.dropped_edges(), 0u);
  push(wl, {1, 0});
  push(wl, {0, 1});
  EXPECT_EQ(wl.dropped_edges(), 2u);
}
#endif

TEST(Worklist, ChunkAppenderFlushesStagedEdgesAndPartialTail) {
  const std::size_t m = 100;
  std::vector<Edge> init(m);
  for (std::size_t i = 0; i < m; ++i)
    init[i] = {static_cast<graph::vid>(i), static_cast<graph::vid>(i + 1)};
  EdgeWorklist wl{std::span<const Edge>(init)};
  {
    EdgeWorklist::ChunkAppender chunk(wl, 32);  // 3 full chunks + tail of 4
    for (const Edge& e : init) chunk.push(e);
    EXPECT_GE(wl.next_size(), 96u) << "full chunks flush eagerly";
    // Destructor flushes the partial last chunk.
  }
  EXPECT_EQ(wl.next_size(), m);
  EXPECT_FALSE(wl.overflowed());
  wl.swap_buffers();
  std::vector<std::uint8_t> seen(m, 0);
  for (const Edge& e : wl.edges()) {
    ASSERT_LT(e.src, m);
    ASSERT_EQ(seen[e.src], 0);
    seen[e.src] = 1;
  }
}

TEST(Worklist, ConcurrentChunkAppendersFromDeviceBlocks) {
  const std::size_t m = 10'000;
  std::vector<Edge> init(m);
  for (std::size_t i = 0; i < m; ++i)
    init[i] = {static_cast<graph::vid>(i), static_cast<graph::vid>(i + 1)};
  EdgeWorklist wl{std::span<const Edge>(init)};

  device::Device dev(device::tiny_profile(), 4);
  const auto edges = wl.edges();
  dev.launch(8, [&](const device::BlockContext& ctx) {
    // Small chunk so every block commits several chunks plus a partial tail.
    EdgeWorklist::ChunkAppender chunk(wl, 64);
    ctx.for_each_chunk(m, [&](std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) chunk.push(edges[i]);
    });
  });
  wl.swap_buffers();
  ASSERT_EQ(wl.size(), m);

  std::vector<std::uint8_t> seen(m, 0);
  for (const Edge& e : wl.edges()) {
    ASSERT_LT(e.src, m);
    ASSERT_EQ(seen[e.src], 0);
    seen[e.src] = 1;
  }
}

TEST(Worklist, CapacityIsFixedAtConstruction) {
  const auto g = graph::cycle_graph(16);
  EdgeWorklist wl(g);
  EXPECT_EQ(wl.capacity(), 16u);
  push(wl, {0, 1});
  wl.swap_buffers();
  EXPECT_EQ(wl.capacity(), 16u) << "shrinking contents must not shrink capacity";
}

}  // namespace
}  // namespace ecl::test

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "device/device.hpp"

namespace ecl::test {
namespace {

using device::BlockContext;
using device::Device;

TEST(DeviceProfile, PaperProfiles) {
  const auto titan = device::titan_v_profile();
  EXPECT_EQ(titan.num_sms, 80u);
  EXPECT_EQ(titan.threads_per_block, 512u);
  EXPECT_EQ(titan.resident_blocks(), 80u * 4);

  const auto a100 = device::a100_profile();
  EXPECT_EQ(a100.num_sms, 108u);
  EXPECT_EQ(a100.resident_blocks(), 108u * 4);
}

TEST(Device, LaunchCoversAllBlocks) {
  Device dev(device::tiny_profile());
  std::atomic<unsigned> blocks{0};
  dev.launch(7, [&](const BlockContext& ctx) {
    EXPECT_EQ(ctx.num_blocks, 7u);
    EXPECT_LT(ctx.block_id, 7u);
    blocks.fetch_add(1);
  });
  EXPECT_EQ(blocks.load(), 7u);
}

TEST(Device, LaunchStatsAccumulate) {
  Device dev(device::tiny_profile());
  dev.launch(3, [](const BlockContext&) {});
  dev.launch(2, [](const BlockContext&) {});
  EXPECT_EQ(dev.stats().kernel_launches, 2u);
  EXPECT_EQ(dev.stats().blocks_executed, 5u);
  dev.stats().reset();
  EXPECT_EQ(dev.stats().kernel_launches, 0u);
}

TEST(Device, BlocksForRoundsUp) {
  Device dev(device::a100_profile());  // 512 threads/block
  EXPECT_EQ(dev.blocks_for(0), 0u);  // zero work maps to a zero grid (no-op launch)
  EXPECT_EQ(dev.blocks_for(1), 1u);
  EXPECT_EQ(dev.blocks_for(512), 1u);
  EXPECT_EQ(dev.blocks_for(513), 2u);
  EXPECT_EQ(dev.blocks_for(5120), 10u);
}

TEST(Device, ZeroBlockLaunchIsANoOp) {
  // A zero-grid launch (blocks_for(0)) must execute nothing and charge
  // nothing: a fixpoint loop that has converged skips the kernel entirely.
  Device dev(device::tiny_profile());
  std::atomic<unsigned> calls{0};
  dev.launch(0, [&](const BlockContext&) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0u);
  EXPECT_EQ(dev.stats().kernel_launches, 0u);
  EXPECT_EQ(dev.stats().blocks_executed, 0u);
}

TEST(Device, WorkStealingLaunchCoversAllBlocksOnce) {
  Device dev(device::tiny_profile(), 4);
  std::vector<std::atomic<int>> hits(129);
  dev.launch(129, [&](const BlockContext& ctx) {
    ASSERT_LT(ctx.block_id, 129u);
    hits[ctx.block_id].fetch_add(1);
  });
  for (std::size_t b = 0; b < hits.size(); ++b)
    ASSERT_EQ(hits[b].load(), 1) << "block " << b;
  EXPECT_EQ(dev.stats().blocks_executed, 129u);
}

TEST(Device, RecordBlockWorkFeedsImbalanceStats) {
  Device dev(device::tiny_profile());
  // Launch 4 blocks where block 0 does 70 units and the rest 10 each:
  // max/mean = 70 / 25 = 2.8.
  dev.launch(4, [&](const BlockContext& ctx) {
    dev.record_block_work(ctx.block_id, ctx.block_id == 0 ? 70 : 10);
  });
  ASSERT_EQ(dev.stats().block_edge_work.size(), 4u);
  EXPECT_EQ(dev.stats().block_edge_work[0], 70u);
  EXPECT_EQ(dev.stats().block_edge_work[1], 10u);
  EXPECT_DOUBLE_EQ(dev.stats().block_imbalance(), 2.8);

  // A perfectly balanced launch pulls the weighted mean toward 1.0.
  dev.launch(4, [&](const BlockContext& ctx) { dev.record_block_work(ctx.block_id, 25); });
  EXPECT_EQ(dev.stats().block_edge_work[0], 95u);
  EXPECT_GT(dev.stats().block_imbalance(), 1.0);
  EXPECT_LT(dev.stats().block_imbalance(), 2.8);

  dev.stats().reset();
  EXPECT_TRUE(dev.stats().block_edge_work.empty());
  EXPECT_DOUBLE_EQ(dev.stats().block_imbalance(), 1.0);  // nothing recorded
}

TEST(Device, ChunkDistributionCoversAllItemsOnce) {
  // Grid-stride chunking: every item in [0, total) must be visited exactly
  // once across all blocks, for awkward sizes too.
  Device dev(device::tiny_profile());  // 32-thread blocks
  for (std::uint64_t total : {0ull, 1ull, 31ull, 32ull, 33ull, 100ull, 1000ull}) {
    std::vector<std::atomic<int>> hits(total);
    dev.launch(3, [&](const BlockContext& ctx) {
      ctx.for_each_chunk(total, [&](std::uint64_t lo, std::uint64_t hi) {
        EXPECT_LE(hi, total);
        EXPECT_LT(lo, hi);
        for (std::uint64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
    });
    for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(Device, PersistentLaunchUsesResidentGrid) {
  Device dev(device::tiny_profile());
  std::atomic<unsigned> blocks{0};
  dev.launch_persistent([&](const BlockContext& ctx) {
    EXPECT_EQ(ctx.num_blocks, dev.profile().resident_blocks());
    blocks.fetch_add(1);
  });
  EXPECT_EQ(blocks.load(), dev.profile().resident_blocks());
}

}  // namespace
}  // namespace ecl::test

namespace ecl::test {
namespace {

TEST(Device, LaunchOverheadIsCharged) {
  device::DeviceProfile profile = device::tiny_profile();
  profile.launch_overhead_us = 200.0;
  device::Device slow(profile);
  device::Device fast(device::tiny_profile());  // zero overhead

  auto time_launches = [](device::Device& dev, int launches) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < launches; ++i) dev.launch(1, [](const device::BlockContext&) {});
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  const double slow_time = time_launches(slow, 50);
  const double fast_time = time_launches(fast, 50);
  EXPECT_GE(slow_time, 50 * 200e-6 * 0.9);
  EXPECT_LT(fast_time, slow_time);
}

TEST(Device, PaperProfilesHaveLaunchLatency) {
  EXPECT_GT(device::titan_v_profile().launch_overhead_us, 0.0);
  EXPECT_GT(device::a100_profile().launch_overhead_us, 0.0);
  // The newer GPU is less latency-bound.
  EXPECT_LT(device::a100_profile().launch_overhead_us,
            device::titan_v_profile().launch_overhead_us);
  EXPECT_DOUBLE_EQ(device::tiny_profile().launch_overhead_us, 0.0);
}

}  // namespace
}  // namespace ecl::test

namespace ecl::test {
namespace {

TEST(Device, ReverseBlockOrderStillCoversAllBlocks) {
  device::DeviceProfile profile = device::tiny_profile();
  profile.reverse_block_order = true;
  device::Device dev(profile);
  std::vector<std::atomic<int>> hits(9);
  dev.launch(9, [&](const device::BlockContext& ctx) {
    EXPECT_LT(ctx.block_id, 9u);
    hits[ctx.block_id].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace ecl::test

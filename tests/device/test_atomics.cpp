#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "device/atomics.hpp"

namespace ecl::test {
namespace {

using device::AtomicU32;

TEST(Atomics, RacyStoreMaxRaisesValue) {
  AtomicU32 slot{5};
  EXPECT_TRUE(device::racy_store_max(slot, 9));
  EXPECT_EQ(slot.load(), 9u);
  EXPECT_FALSE(device::racy_store_max(slot, 2));
  EXPECT_EQ(slot.load(), 9u);
}

TEST(Atomics, RacyStoreMaxIsMonotonePerRoundWithRetry) {
  // Model of the paper's benign race (§3.4): racing writers may lose an
  // update, but retrying until no writer succeeds always ends at the true
  // maximum — exactly how Phase 2 uses it.
  AtomicU32 slot{0};
  const std::vector<std::uint32_t> values{3, 17, 42, 8, 99, 56, 23, 77};
  bool changed = true;
  int rounds = 0;
  while (changed) {
    ++rounds;
    changed = false;
    std::vector<std::thread> threads;
    std::atomic<bool> any{false};
    for (std::uint32_t v : values) {
      threads.emplace_back([&slot, &any, v] {
        if (device::racy_store_max(slot, v)) any.store(true);
      });
    }
    for (auto& th : threads) th.join();
    changed = any.load();
    ASSERT_LT(rounds, 100);
  }
  EXPECT_EQ(slot.load(), 99u);
}

}  // namespace
}  // namespace ecl::test

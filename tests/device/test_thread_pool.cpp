#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "device/thread_pool.hpp"

namespace ecl::test {
namespace {

using device::ThreadPool;

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.parallel_for(20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, ExceptionInTaskPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, WritesAreVisibleAfterBarrier) {
  // parallel_for must establish happens-before: plain (non-atomic) writes
  // to distinct slots are readable by the caller afterwards.
  ThreadPool pool(4);
  std::vector<int> data(5000, 0);
  pool.parallel_for(5000, [&](std::size_t i) { data[i] = static_cast<int>(i) * 3; });
  for (std::size_t i = 0; i < data.size(); ++i) ASSERT_EQ(data[i], static_cast<int>(i) * 3);
}

TEST(ThreadPool, DefaultWorkerCountIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_workers(), 1u);
}

TEST(ThreadPool, StealingModeRunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1003);  // awkward size: uneven ranges
  pool.parallel_for(1003, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, StealingCountersAccountForEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  const std::size_t total = 5000;
  // Skew the work so range 0 is heavy and stealing actually happens often
  // enough to be observable across repetitions.
  for (std::size_t rep = 0; rep < 20; ++rep) {
    pool.parallel_for(
        total,
        [&](std::size_t i) {
          if (i < total / 4) {
            volatile int sink = 0;
            for (int k = 0; k < 2000; ++k) sink = sink + k;
          }
          ran.fetch_add(1, std::memory_order_relaxed);
        });
    // Every executed task was claimed exactly once (owned or stolen), and
    // the tallies are complete as soon as parallel_for returns.
    EXPECT_EQ(pool.claimed_tasks() + pool.stolen_tasks(), total * (rep + 1)) << "batch " << rep;
  }
  EXPECT_EQ(ran.load(), static_cast<int>(total) * 20);
}

TEST(ThreadPool, SingleWorkerNeverSteals) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
  EXPECT_EQ(pool.claimed_tasks(), 100u);
  EXPECT_EQ(pool.stolen_tasks(), 0u);
}

TEST(ThreadPool, StealingModeZeroTasksIsNoop) {
  ThreadPool pool(3);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagatesInStealingMode) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 63) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> ok{0};
  pool.parallel_for(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

}  // namespace
}  // namespace ecl::test

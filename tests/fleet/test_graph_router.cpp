// GraphRouter unit tests (ctest label: fleet): least-loaded placement,
// affinity stickiness and its slack-bounded override, quarantine routing,
// and the RAII load accounting of Lease.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "device/device.hpp"
#include "fleet/device_pool.hpp"
#include "fleet/graph_router.hpp"
#include "service/health_registry.hpp"

namespace ecl::test {
namespace {

using fleet::DevicePool;
using fleet::DevicePoolConfig;
using fleet::GraphRouter;
using service::FaultKind;

DevicePool make_pool(unsigned devices) {
  DevicePoolConfig cfg;
  cfg.devices = devices;
  cfg.profile = device::tiny_profile();
  cfg.thread_budget = devices;
  return DevicePool(cfg);
}

TEST(GraphRouter, PlacesOnLeastLoadedDevice) {
  DevicePoolConfig cfg;
  cfg.devices = 3;
  cfg.profile = device::tiny_profile();
  cfg.thread_budget = 3;
  DevicePool pool(cfg);
  GraphRouter router(pool);

  // Three graphs with no affinity spread across the three idle devices.
  auto a = router.place(100);
  auto b = router.place(100);
  auto c = router.place(100);
  std::vector<bool> used(3, false);
  used[a.device_index()] = used[b.device_index()] = used[c.device_index()] = true;
  EXPECT_TRUE(used[0] && used[1] && used[2]);

  // The fourth goes wherever load is lowest once one lease releases.
  b.release();
  auto d = router.place(50);
  EXPECT_EQ(d.device_index(), b.device_index());
}

TEST(GraphRouter, LeaseReleaseReturnsLoad) {
  auto pool = make_pool(2);
  GraphRouter router(pool);
  {
    auto lease = router.place(500);
    const auto load = router.load_snapshot();
    EXPECT_EQ(load[lease.device_index()], 500u);
  }
  // Destructor released the lease.
  const auto load = router.load_snapshot();
  EXPECT_EQ(load[0] + load[1], 0u);
}

TEST(GraphRouter, LeaseReleaseIsIdempotentAndMoveSafe) {
  auto pool = make_pool(2);
  GraphRouter router(pool);
  auto lease = router.place(100);
  GraphRouter::Lease moved = std::move(lease);
  EXPECT_FALSE(lease.valid());
  EXPECT_TRUE(moved.valid());
  moved.release();
  moved.release();  // idempotent
  const auto load = router.load_snapshot();
  EXPECT_EQ(load[0] + load[1], 0u);
}

TEST(GraphRouter, AffinityKeepsRepeatTrafficOnOneDevice) {
  auto pool = make_pool(4);
  GraphRouter router(pool);

  constexpr std::uint64_t kTenant = 42;
  auto first = router.place(10, kTenant);
  const std::size_t home = first.device_index();
  first.release();

  // On an idle fleet every repeat placement honors the affinity.
  for (int i = 0; i < 8; ++i) {
    auto lease = router.place(10, kTenant);
    EXPECT_EQ(lease.device_index(), home);
  }
}

TEST(GraphRouter, AffinityYieldsWhenHomeDeviceFallsBehind) {
  auto pool = make_pool(2);
  GraphRouter router(pool, /*affinity_slack=*/1.5);

  auto first = router.place(10, /*affinity_key=*/7);
  const std::size_t home = first.device_index();
  first.release();

  // Pile work far past the slack bound onto the home device (the affinity
  // key steers the pile there while the fleet is otherwise idle) and HOLD
  // the lease so the load stays in flight.
  auto pile = router.place(10'000, /*affinity_key=*/7);
  ASSERT_EQ(pile.device_index(), home);

  auto lease = router.place(10, /*affinity_key=*/7);
  EXPECT_NE(lease.device_index(), home)
      << "affinity must yield once the sticky device exceeds the slack bound";
}

TEST(GraphRouter, SkipsQuarantinedDevices) {
  DevicePoolConfig cfg;
  cfg.devices = 2;
  cfg.profile = device::tiny_profile();
  cfg.thread_budget = 2;
  cfg.health.breaker.window = 4;
  cfg.health.breaker.min_samples = 2;
  cfg.health.breaker.cooldown_seconds = 60.0;
  DevicePool pool(cfg);
  GraphRouter router(pool);

  for (int i = 0; i < 4; ++i) pool.record(0, FaultKind::kCertification);
  ASSERT_FALSE(pool.allow(0));

  for (int i = 0; i < 6; ++i) {
    auto lease = router.place(100);
    EXPECT_EQ(lease.device_index(), 1u) << "placement must route around quarantine";
  }
}

TEST(GraphRouter, ServesLeastLoadedWhenEveryDeviceIsQuarantined) {
  DevicePoolConfig cfg;
  cfg.devices = 2;
  cfg.profile = device::tiny_profile();
  cfg.thread_budget = 2;
  cfg.health.breaker.window = 4;
  cfg.health.breaker.min_samples = 2;
  cfg.health.breaker.cooldown_seconds = 60.0;
  DevicePool pool(cfg);
  GraphRouter router(pool);

  for (int i = 0; i < 4; ++i) {
    pool.record(0, FaultKind::kStall);
    pool.record(1, FaultKind::kStall);
  }
  ASSERT_FALSE(pool.allow(0));
  ASSERT_FALSE(pool.allow(1));

  // Serving somewhere beats serving nowhere: the lease is still valid.
  auto lease = router.place(100);
  EXPECT_TRUE(lease.valid());
}

TEST(GraphRouter, ProbationDeviceKeepsItsProbeUntilPlacedOn) {
  // A device in probation admits one probe. A placement that passes it over
  // must leave that probe unissued, or no outcome ever readmits the device.
  DevicePoolConfig cfg;
  cfg.devices = 2;
  cfg.profile = device::tiny_profile();
  cfg.thread_budget = 2;
  cfg.health.breaker.window = 4;
  cfg.health.breaker.min_samples = 2;
  cfg.health.breaker.cooldown_seconds = 0.001;
  DevicePool pool(cfg);
  GraphRouter router(pool);

  for (int i = 0; i < 4; ++i) pool.record(0, FaultKind::kStall);
  ASSERT_NE(pool.health().health(0), service::BackendHealth::kHealthy);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto busy = router.adopt(0, 1'000);
  auto first = router.place(10);
  EXPECT_EQ(first.device_index(), 1u) << "device 0 carries more load";

  busy.release();
  auto second = router.place(10);
  EXPECT_EQ(second.device_index(), 0u) << "the first placement spent device 0's probe";
  EXPECT_FALSE(pool.admits(0)) << "the second placement did not take device 0's probe";

  pool.record(0, FaultKind::kNone);
  EXPECT_EQ(pool.health().health(0), service::BackendHealth::kHealthy);
}

TEST(GraphRouter, LeaseReleasedWhenSolveThrows) {
  // The RAII contract under exceptions: a lease held across a throwing
  // solve must return its load on unwind, and the affinity entry written at
  // placement must survive — repeat traffic still lands on the home device.
  auto pool = make_pool(2);
  GraphRouter router(pool);

  constexpr std::uint64_t kTenant = 7;
  std::size_t home = 0;
  try {
    auto lease = router.place(100, kTenant);
    home = lease.device_index();
    throw std::runtime_error("solver exploded mid-lease");
  } catch (const std::runtime_error&) {
  }

  const auto load = router.load_snapshot();
  EXPECT_EQ(load[0] + load[1], 0u) << "unwind must release the in-flight load";
  auto again = router.place(10, kTenant);
  EXPECT_EQ(again.device_index(), home) << "affinity must survive the unwind";
}

TEST(GraphRouter, AdoptRegistersExistingPlacementLoad) {
  auto pool = make_pool(2);
  GraphRouter router(pool);

  // The sharded coordinator assigned device 0 itself; adopt() makes the
  // router's least-loaded view agree, so the next placement avoids it.
  auto adopted = router.adopt(0, 1'000);
  EXPECT_EQ(router.load_snapshot()[0], 1'000u);
  auto lease = router.place(10);
  EXPECT_EQ(lease.device_index(), 1u);

  adopted.release();
  EXPECT_EQ(router.load_snapshot()[0], 0u);
}

TEST(GraphRouter, PlaceExcludingIsHardEvenUnderTotalQuarantine) {
  DevicePoolConfig cfg;
  cfg.devices = 3;
  cfg.profile = device::tiny_profile();
  cfg.thread_budget = 3;
  cfg.health.breaker.window = 4;
  cfg.health.breaker.min_samples = 2;
  cfg.health.breaker.cooldown_seconds = 60.0;
  DevicePool pool(cfg);
  GraphRouter router(pool);

  // Ejected devices are never chosen, even when every surviving device is
  // quarantined (unlike place()'s advisory last-resort rule).
  for (int i = 0; i < 4; ++i) pool.record(1, FaultKind::kStall);
  ASSERT_FALSE(pool.allow(1));

  std::vector<char> ejected = {1, 0, 0};
  for (int i = 0; i < 4; ++i) {
    auto lease = router.place_excluding(100, ejected);
    ASSERT_TRUE(lease.valid());
    EXPECT_NE(lease.device_index(), 0u);
  }

  // All devices excluded: the lease is invalid, not a silent fallback.
  std::vector<char> all = {1, 1, 1};
  auto none = router.place_excluding(100, all);
  EXPECT_FALSE(none.valid());
}

}  // namespace
}  // namespace ecl::test

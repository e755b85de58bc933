#ifndef ECL_FLEET_DEVICE_POOL_HPP
#define ECL_FLEET_DEVICE_POOL_HPP

// DevicePool: N independent virtual devices behind one host (DESIGN.md §13).
//
// Each pooled device owns its own ThreadPool, fault injector, and launch
// statistics, exactly like a standalone ecl::device — the pool adds three
// things:
//
//  * a GLOBAL host-worker budget divided across the devices (floor 1 per
//    device). Without the cap, N devices each defaulting to
//    hardware_concurrency workers oversubscribe the host N-fold and the
//    "fleet" degenerates into context-switch thrash;
//  * per-device fault plans, so chaos can be pointed at one device (one
//    shard, one ordinate stream) while its peers stay clean;
//  * a per-device entry in the service's BackendHealthRegistry, so a device
//    that keeps producing faults is quarantined and routed around the same
//    way a misbehaving backend is.
//
// The pool is the substrate both fleet modes share: the GraphRouter places
// whole graphs onto pool devices for throughput, and ShardedScc spreads one
// graph's shards across them for capacity.

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "device/device.hpp"
#include "service/health_registry.hpp"

namespace ecl::fleet {

struct DevicePoolConfig {
  /// Number of devices in the pool (floor 1).
  unsigned devices = 2;
  /// Profile every device is built from (fault plan overridable per device).
  device::DeviceProfile profile = device::a100_profile();
  /// Aggregate host-worker budget shared by the whole pool, divided evenly
  /// per device with a floor of 1. 0 = the host's hardware concurrency.
  unsigned thread_budget = 0;
  /// Per-device fault-plan overrides, indexed by device; devices beyond the
  /// vector's size inherit profile.fault_plan. This is how the differential
  /// suite aims seeded chaos at exactly one shard's device.
  std::vector<device::FaultPlan> fault_plans;
  /// Per-device quarantine policy (service/health_registry.hpp).
  service::HealthConfig health;
};

class DevicePool {
 public:
  explicit DevicePool(DevicePoolConfig config = {});
  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(devices_.size()); }
  device::Device& at(std::size_t i) { return *devices_.at(i); }
  const device::Device& at(std::size_t i) const { return *devices_.at(i); }

  /// Host workers each device received from the divided budget.
  unsigned workers_per_device() const noexcept { return workers_per_device_; }

  /// Per-device health registry; entry i is named "device-i".
  service::BackendHealthRegistry& health() noexcept { return *health_; }
  const service::BackendHealthRegistry& health() const noexcept { return *health_; }

  /// Quarantine gate / fault report for device i, forwarded to the registry.
  /// admits() asks the gate without spending a probation probe.
  bool allow(std::size_t i) { return health_->allow(i); }
  bool admits(std::size_t i) const { return health_->admits(i); }
  void record(std::size_t i, service::FaultKind kind) { health_->record(i, kind); }

  /// Device names ("device-0", ...), index-aligned with at().
  const std::vector<std::string>& names() const noexcept { return names_; }

  /// Exclusive-use guard for device i: Device::launch is not re-entrant, so
  /// concurrent pool users (service workers, the sharded coordinator)
  /// serialize their launches through this per-device lock.
  std::unique_lock<std::mutex> acquire(std::size_t i) {
    return std::unique_lock<std::mutex>(*guards_.at(i));
  }

  /// Locks EVERY device, in index order (a fixed total order, so mixed
  /// acquire()/acquire_all() users cannot deadlock). The sharded engine
  /// takes the whole pool for the duration of a run.
  std::vector<std::unique_lock<std::mutex>> acquire_all();

  /// Launch statistics folded across every device in the pool.
  device::LaunchStats aggregate_stats() const;

 private:
  unsigned workers_per_device_ = 1;
  std::vector<std::unique_ptr<device::Device>> devices_;
  std::vector<std::unique_ptr<std::mutex>> guards_;
  std::vector<std::string> names_;
  std::unique_ptr<service::BackendHealthRegistry> health_;
};

/// Folds `from` into `into` element-wise, widening the per-block histogram
/// as needed — the same fold the service applies per worker, shared so the
/// pool aggregate and the service report identical shapes.
void merge_launch_stats(device::LaunchStats& into, const device::LaunchStats& from);

}  // namespace ecl::fleet

#endif  // ECL_FLEET_DEVICE_POOL_HPP

#ifndef ECL_FLEET_GRAPH_ROUTER_HPP
#define ECL_FLEET_GRAPH_ROUTER_HPP

// GraphRouter: whole-graph placement onto pool devices (DESIGN.md §13).
//
// The throughput half of the fleet story: the paper's radiative-transfer
// motivation builds one independent sweep graph PER ORDINATE — dozens per
// solve — and a service sees one graph per tenant. Neither needs sharding;
// they need many whole graphs kept in flight at once. The router picks a
// device per graph with two signals:
//
//  * least-loaded — live in-flight work (estimated edges) per device, so a
//    big graph does not queue behind another big graph while a device
//    idles;
//  * affinity — a caller-supplied key (tenant ID, ordinate index) sticks to
//    the device it last ran on, unless that device has fallen behind the
//    least-loaded one by more than an imbalance factor. Warm affinity keeps
//    a tenant's repeat traffic on one device's caches and statistics.
//
// Devices quarantined by the pool's health registry are skipped; if every
// device is quarantined the least-loaded one is used anyway (serving
// somewhere beats serving nowhere — the same last-resort rule the service's
// backend chain applies). A device in probation keeps its one probe until
// place() gives it a lease; whoever holds that lease records the outcome of
// the work it runs there, which readmits or re-quarantines the device.
//
// Placement returns an RAII Lease: the estimated work is added to the
// device's in-flight load on placement and released on destruction.

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fleet/device_pool.hpp"

namespace ecl::fleet {

class GraphRouter {
 public:
  static constexpr std::uint64_t kNoAffinity = ~std::uint64_t{0};

  /// A placed graph's hold on a device. Movable, not copyable; releases the
  /// in-flight load when destroyed.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { release(); }

    bool valid() const noexcept { return router_ != nullptr; }
    std::size_t device_index() const noexcept { return index_; }
    device::Device& device() { return router_->pool_.at(index_); }

    /// Early release (idempotent).
    void release() noexcept;

   private:
    friend class GraphRouter;
    Lease(GraphRouter* router, std::size_t index, std::uint64_t work)
        : router_(router), index_(index), work_(work) {}
    GraphRouter* router_ = nullptr;
    std::size_t index_ = 0;
    std::uint64_t work_ = 0;
  };

  /// `affinity_slack`: a sticky device is kept while its in-flight load is
  /// at most `affinity_slack` times the least-loaded device's load + the
  /// incoming work (so an idle fleet always honors affinity).
  explicit GraphRouter(DevicePool& pool, double affinity_slack = 2.0);

  /// Places a graph of `estimated_work` (edges is the natural unit) onto a
  /// device. `affinity_key` identifies the recurring stream (tenant,
  /// ordinate); kNoAffinity always takes the least-loaded device. The lease
  /// holds the device's admission (its probe, when it is in probation), so
  /// the caller owes the pool an outcome for the device (DevicePool::record).
  Lease place(std::uint64_t estimated_work, std::uint64_t affinity_key = kNoAffinity);

  /// Registers work the caller has already assigned to `device` (the
  /// sharded coordinator's round-robin initial shard layout), so subsequent
  /// least-loaded decisions see the true in-flight load. Same RAII lease as
  /// place().
  Lease adopt(std::size_t device, std::uint64_t estimated_work);

  /// Least-loaded placement restricted to devices NOT marked in `excluded`
  /// (indexed by device). Exclusion is HARD — it is the failover path's
  /// ejection set, not the advisory quarantine gate: an excluded device is
  /// never chosen even when every other device is quarantined, and the
  /// returned Lease is invalid when every device is excluded. Among the
  /// non-excluded devices the usual rules apply (admitted preferred,
  /// least-loaded wins). No probation probe is spent: the caller records a
  /// served run's success for the devices it runs on.
  Lease place_excluding(std::uint64_t estimated_work, const std::vector<char>& excluded);

  /// Current in-flight work per device (test/stats visibility).
  std::vector<std::uint64_t> load_snapshot() const;

  DevicePool& pool() noexcept { return pool_; }

 private:
  friend class Lease;
  void release(std::size_t index, std::uint64_t work) noexcept;

  DevicePool& pool_;
  double affinity_slack_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> load_;                            // guarded by mutex_
  std::unordered_map<std::uint64_t, std::size_t> affinity_;    // guarded by mutex_
};

}  // namespace ecl::fleet

#endif  // ECL_FLEET_GRAPH_ROUTER_HPP

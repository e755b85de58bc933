#include "fleet/graph_router.hpp"

#include <algorithm>
#include <utility>

namespace ecl::fleet {

GraphRouter::Lease& GraphRouter::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    router_ = std::exchange(other.router_, nullptr);
    index_ = other.index_;
    work_ = other.work_;
  }
  return *this;
}

void GraphRouter::Lease::release() noexcept {
  if (router_ == nullptr) return;
  router_->release(index_, work_);
  router_ = nullptr;
}

GraphRouter::GraphRouter(DevicePool& pool, double affinity_slack)
    : pool_(pool), affinity_slack_(affinity_slack), load_(pool.size(), 0) {}

GraphRouter::Lease GraphRouter::place(std::uint64_t estimated_work,
                                      std::uint64_t affinity_key) {
  // The scan asks the quarantine gate without spending a probation probe.
  std::vector<char> admitted(pool_.size(), 0);
  for (std::size_t i = 0; i < pool_.size(); ++i) admitted[i] = pool_.admits(i) ? 1 : 0;

  std::lock_guard lock(mutex_);
  for (;;) {
    const bool any_admitted = std::find(admitted.begin(), admitted.end(), 1) != admitted.end();
    std::size_t least = 0;
    bool found = false;
    for (std::size_t i = 0; i < load_.size(); ++i) {
      if (any_admitted && !admitted[i]) continue;
      if (!found || load_[i] < load_[least]) {
        least = i;
        found = true;
      }
    }

    std::size_t chosen = least;
    if (affinity_key != kNoAffinity) {
      const auto it = affinity_.find(affinity_key);
      if (it != affinity_.end() && (!any_admitted || admitted[it->second])) {
        // Keep the sticky device while it has not fallen too far behind. The
        // incoming work is added to the threshold so an idle fleet (all loads
        // zero) always honors affinity.
        const double threshold =
            affinity_slack_ * static_cast<double>(load_[least] + estimated_work);
        if (static_cast<double>(load_[it->second]) <= threshold) chosen = it->second;
      }
    }

    // Only the chosen device's admission is taken, spending its probe when
    // it is in probation. A device that stopped admitting since the scan (a
    // concurrent placement took its probe) drops out, and the choice is
    // made again.
    if (any_admitted && !pool_.allow(chosen)) {
      admitted[chosen] = 0;
      continue;
    }
    if (affinity_key != kNoAffinity) affinity_[affinity_key] = chosen;
    load_[chosen] += estimated_work;
    return Lease(this, chosen, estimated_work);
  }
}

GraphRouter::Lease GraphRouter::adopt(std::size_t device, std::uint64_t estimated_work) {
  std::lock_guard lock(mutex_);
  load_[device] += estimated_work;
  return Lease(this, device, estimated_work);
}

GraphRouter::Lease GraphRouter::place_excluding(std::uint64_t estimated_work,
                                                const std::vector<char>& excluded) {
  const auto is_excluded = [&](std::size_t i) { return i < excluded.size() && excluded[i]; };
  // The scan spends no probation probe, here or on the chosen device: the
  // sharded engine, the one caller, records a served run's success for the
  // devices it ran on. An excluded device is never asked.
  std::vector<char> allowed(pool_.size(), 0);
  bool any_allowed = false;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    allowed[i] = (!is_excluded(i) && pool_.admits(i)) ? 1 : 0;
    any_allowed = any_allowed || allowed[i];
  }

  std::lock_guard lock(mutex_);
  std::size_t chosen = 0;
  bool found = false;
  for (std::size_t i = 0; i < load_.size(); ++i) {
    if (is_excluded(i)) continue;
    if (any_allowed && !allowed[i]) continue;
    if (!found || load_[i] < load_[chosen]) {
      chosen = i;
      found = true;
    }
  }
  if (!found) return Lease();
  load_[chosen] += estimated_work;
  return Lease(this, chosen, estimated_work);
}

std::vector<std::uint64_t> GraphRouter::load_snapshot() const {
  std::lock_guard lock(mutex_);
  return load_;
}

void GraphRouter::release(std::size_t index, std::uint64_t work) noexcept {
  std::lock_guard lock(mutex_);
  load_[index] -= std::min(load_[index], work);
}

}  // namespace ecl::fleet

#ifndef ECL_DEVICE_ATOMICS_HPP
#define ECL_DEVICE_ATOMICS_HPP

// Signature-store primitives.
//
// ECL-SCC's Phase 2 could use CUDA atomicMax, but the paper's implementation
// uses atomic-free monotonic stores (Nasre et al. [17]): racing writers may
// lose an update, which only delays convergence because the propagation is
// monotonic and retried (§3.4). That store is the only one the solver uses.
// In portable C++, a plain racy write is UB, so the benign race is modelled
// with relaxed-order atomic loads/stores: same lost-update semantics, no
// undefined behavior.

#include <atomic>
#include <cstdint>

namespace ecl::device {

using AtomicU32 = std::atomic<std::uint32_t>;

/// The paper's atomic-free monotonic store: read, compare, plain store.
/// Concurrent writers may overwrite each other (a lower value can win one
/// round), which the caller must tolerate by re-checking on the next
/// iteration. Returns true if this thread wrote.
inline bool racy_store_max(AtomicU32& slot, std::uint32_t value) noexcept {
  if (value > slot.load(std::memory_order_relaxed)) {
    slot.store(value, std::memory_order_relaxed);
    return true;
  }
  return false;
}

using AtomicU64 = std::atomic<std::uint64_t>;

/// CAS-loop atomic max on a 64-bit counter (metrics high-water marks, e.g.
/// SccMetrics::max_chain_len). Returns true if the stored value changed.
inline bool atomic_fetch_max_u64(AtomicU64& slot, std::uint64_t value) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur) {
    if (slot.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace ecl::device

#endif  // ECL_DEVICE_ATOMICS_HPP

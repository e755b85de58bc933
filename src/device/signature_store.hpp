#ifndef ECL_DEVICE_SIGNATURE_STORE_HPP
#define ECL_DEVICE_SIGNATURE_STORE_HPP

// Signature state layout (§3.4 + DESIGN.md §10).
//
// ECL-SCC's per-vertex state — the vin/vout max signatures, the
// frontier-gating epoch stamp and the in-block pass mark, 16 bytes — lives
// in one 64-byte-aligned slot per vertex. A writer dirties only its own
// vertex's cache line, so pool threads updating different vertices never
// false-share, and the fields an edge visit touches together
// (vin+vout+epoch+mark of one endpoint) arrive on one line.
//
// Every field is an AtomicU32 accessed with the relaxed-order store helpers
// in device/atomics.hpp, preserving the benign-race semantics the paper's
// monotonic stores rely on.

#include <cstdint>
#include <memory>

#include "device/atomics.hpp"

namespace ecl::device {

class SignatureStore {
 public:
  SignatureStore() = default;

  /// Allocates state for n vertices: both signatures, the epoch stamp and
  /// the pass mark.
  explicit SignatureStore(std::uint32_t n) : slots_(std::make_unique<Slot[]>(n)) {}

  AtomicU32& vin(std::uint32_t v) noexcept { return slots_[v].vin; }
  AtomicU32& vout(std::uint32_t v) noexcept { return slots_[v].vout; }

  /// Frontier-gating stamp: the last global propagation round in which any
  /// signature of v moved (0 = never).
  AtomicU32& epoch(std::uint32_t v) noexcept { return slots_[v].epoch; }

  std::uint32_t epoch_of(std::uint32_t v) const noexcept {
    return slots_[v].epoch.load(std::memory_order_relaxed);
  }

  /// In-block pass filter's stamp: the pass-clock tick of the last block
  /// pass in which any signature of v moved (0 = never).
  AtomicU32& mark(std::uint32_t v) noexcept { return slots_[v].mark; }

  std::uint32_t mark_of(std::uint32_t v) const noexcept {
    return slots_[v].mark.load(std::memory_order_relaxed);
  }

 private:
  /// One vertex's complete signature state on its own cache line. Atomics
  /// zero-initialize.
  struct alignas(64) Slot {
    AtomicU32 vin{0};
    AtomicU32 vout{0};
    AtomicU32 epoch{0};
    AtomicU32 mark{0};
  };
  static_assert(sizeof(Slot) == 64, "one slot per cache line");
  static_assert(alignof(Slot) == 64, "slots must start on line boundaries");

  std::unique_ptr<Slot[]> slots_;
};

}  // namespace ecl::device

#endif  // ECL_DEVICE_SIGNATURE_STORE_HPP

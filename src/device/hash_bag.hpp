#ifndef ECL_DEVICE_HASH_BAG_HPP
#define ECL_DEVICE_HASH_BAG_HPP

// Concurrent insert-only vertex bag with dedup-on-insert (DESIGN.md §15).
//
// The hash-bag sparse frontier (after the hash bags of Wang et al.'s
// faster-reachability SCC, see PAPERS.md) replaces the dense worklist SWEEP
// in Phase-2 rounds whose mover set is small: during round r every vertex
// whose signature moved is inserted here, and round r+1 visits only the
// edges incident to that set instead of gate-checking the whole worklist.
//
// Layout is GPU-idiomatic: a fixed open-addressing table of 64-bit slots
// (round tag in the high word, vertex in the low word) provides CAS dedup,
// and an append list behind an atomic cursor provides O(frontier) drain —
// no O(capacity) clear or scan per round. A new round invalidates the whole
// table in O(1) by bumping the round tag; stale slots are reclaimed lazily
// by the inserts that probe over them.
//
// Guarantees, in the same grades the EdgeWorklist documents:
//
//  * insert is thread-safe and idempotent per round: concurrent inserts of
//    the same vertex commit it to the list once (CAS arbitration), which is
//    what lets chain chasing stamp every vertex it advances without ever
//    double-queueing a frontier entry;
//  * dedup is exact while probes stay inside the bounded probe window; a
//    probe-exhausted insert appends WITHOUT dedup (a duplicate frontier
//    entry is benign — the edge gather emits its edges twice, and a
//    repeated visit of an edge is idempotent);
//  * an append past list capacity is dropped, counted, and raises a sticky
//    saturation flag: the round's mover set is incomplete and the caller
//    must fall back to a dense sweep (then grow() before the next round).
//
// begin_round / grow / items run on the control thread at a grid barrier
// only; insert runs from kernel threads.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>

#include "graph/digraph.hpp"

namespace ecl::device {

class HashBag {
 public:
  static constexpr std::size_t kProbeWindow = 32;

  explicit HashBag(std::size_t capacity) { allocate(capacity); }

  /// Control thread, at a grid barrier: starts collecting for `round`
  /// (a monotone non-zero clock, e.g. the Phase-2 round counter). O(1) —
  /// entries of earlier rounds become stale in place. Clears saturation.
  void begin_round(std::uint32_t round) noexcept {
    assert(round != 0 && "HashBag: round 0 is the empty-slot tag");
    round_ = round;
    cursor_.store(0, std::memory_order_relaxed);
    saturated_.store(false, std::memory_order_relaxed);
  }

  /// Thread-safe insert of a vertex into the current round's bag. Returns
  /// true when this call committed the vertex to the list; false on a
  /// duplicate or a saturated drop.
  bool insert(graph::vid v) noexcept {
    const std::uint64_t tagged =
        (static_cast<std::uint64_t>(round_) << 32) | static_cast<std::uint64_t>(v);
    std::size_t slot = hash(v) & mask_;
    for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
      std::uint64_t cur = table_[slot].load(std::memory_order_relaxed);
      for (;;) {
        if (cur == tagged) return false;  // already in this round's bag
        if ((cur >> 32) == round_) break;  // live entry for another vertex: next slot
        // Stale (earlier round) or empty: claim it.
        if (table_[slot].compare_exchange_weak(cur, tagged, std::memory_order_relaxed,
                                               std::memory_order_relaxed))
          return append(v);
        // CAS failed: cur now holds the winner; re-examine it.
      }
      slot = (slot + 1) & mask_;
    }
    // Probe window exhausted (clustered table): append without dedup. A
    // duplicate is harmless downstream; losing the insert would not be.
    return append(v);
  }

  /// Vertices committed this round, in append order. Control thread only.
  std::span<const graph::vid> items() const noexcept {
    const std::size_t count =
        std::min(cursor_.load(std::memory_order_acquire), list_capacity_);
    return {list_.get(), count};
  }

  std::size_t size() const noexcept {
    return std::min(cursor_.load(std::memory_order_acquire), list_capacity_);
  }
  std::size_t capacity() const noexcept { return list_capacity_; }

  /// Sticky within the round: an insert ran past list capacity, so the
  /// round's mover set is incomplete and must not be used as a frontier.
  bool saturated() const noexcept { return saturated_.load(std::memory_order_acquire); }

  /// Dropped inserts since construction (saturation losses), for metrics.
  std::uint64_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }

  /// Control thread, between rounds: reallocates to at least `min_capacity`
  /// entries. Current-round contents are discarded (grow is only reached
  /// after saturation or before a dense round, where the bag is dead
  /// anyway), so no rehash is needed.
  void grow(std::size_t min_capacity) {
    if (min_capacity <= list_capacity_) return;
    allocate(min_capacity);
    round_ = 0;  // invalidate: nothing collected in the fresh table yet
    cursor_.store(0, std::memory_order_relaxed);
    saturated_.store(false, std::memory_order_relaxed);
  }

 private:
  static std::uint64_t hash(graph::vid v) noexcept {
    // splitmix64 finalizer: full-avalanche, cheap, and seedless — the table
    // layout must be a pure function of the vertex for dedup to hold.
    std::uint64_t x = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  bool append(graph::vid v) noexcept {
    const std::size_t at = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (at >= list_capacity_) {
      saturated_.store(true, std::memory_order_relaxed);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    list_[at] = v;
    return true;
  }

  void allocate(std::size_t capacity) {
    list_capacity_ = std::max<std::size_t>(16, capacity);
    std::size_t table = 1;
    while (table < list_capacity_ * 2) table <<= 1;
    table_ = std::make_unique<std::atomic<std::uint64_t>[]>(table);
    for (std::size_t i = 0; i < table; ++i)
      table_[i].store(0, std::memory_order_relaxed);
    mask_ = table - 1;
    list_ = std::make_unique<graph::vid[]>(list_capacity_);
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> table_;
  std::unique_ptr<graph::vid[]> list_;
  std::size_t list_capacity_ = 0;
  std::size_t mask_ = 0;
  std::uint32_t round_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<bool> saturated_{false};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace ecl::device

#endif  // ECL_DEVICE_HASH_BAG_HPP

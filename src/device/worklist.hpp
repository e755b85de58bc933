#ifndef ECL_DEVICE_WORKLIST_HPP
#define ECL_DEVICE_WORKLIST_HPP

// Double-buffered edge worklist (§3.3).
//
// ECL-SCC's Phase 3 never materializes a smaller graph; it appends the
// surviving edges to a second worklist via an atomic cursor and then swaps
// the two buffer pointers. This class is that data structure.
//
// Appends go through push_next_bulk, one cursor fetch_add per span. Kernels
// use it via ChunkAppender: a per-block staging buffer that batches
// survivors and reserves cursor space one chunk (default 1024 edges) at a
// time, cutting the fetch_add rate by ~3 orders of magnitude against one
// fetch_add per edge on survivor-dense sweeps. Because a chunk is reserved
// only when the staged edges are in hand, the reservation is always exact:
// no holes, no unused tail to give back, and the flush at the end of the
// block (before the grid barrier) commits the partial last chunk.
//
// Overflow semantics: an append past capacity asserts in debug builds; in
// release builds the excess edges are dropped, counted in dropped_edges(),
// and a saturating overflow flag is raised for the fixpoint watchdog to
// read. next_size() always records the *attempted* append count, so a
// chaos-device double-append is observable through the same counters.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace ecl::device {

class EdgeWorklist {
 public:
  EdgeWorklist() = default;

  /// Fills the current buffer with every edge of g, straight from its CSR;
  /// the spare buffer gets the same capacity so Phase 3 can never overflow
  /// it (it only shrinks).
  explicit EdgeWorklist(const graph::Digraph& g);

  /// Initializes from an explicit edge set.
  explicit EdgeWorklist(std::span<const graph::Edge> edges);

  /// Edges in the current buffer.
  std::span<const graph::Edge> edges() const noexcept {
    return {buffers_[cur_].get(), size_.load(std::memory_order_acquire)};
  }

  std::size_t size() const noexcept { return size_.load(std::memory_order_acquire); }
  bool empty() const noexcept { return size() == 0; }

  /// Capacity of the spare buffer (fixed at construction: Phase 3 only
  /// shrinks the edge set, so a correct kernel can never exceed it).
  std::size_t capacity() const noexcept { return capacity_; }

  /// Thread-safe append of a span into the *next* buffer (Phase-3
  /// survivors): one cursor fetch_add for the whole span. An append past
  /// capacity — a kernel double-appending, e.g. under a spurious
  /// re-execution fault — asserts in debug builds; in release builds the
  /// prefix that fits is stored, the rest is dropped and counted, and the
  /// sticky overflow flag is raised.
  void push_next_bulk(std::span<const graph::Edge> batch) noexcept {
    if (batch.empty()) return;
    const std::size_t start = next_size_.fetch_add(batch.size(), std::memory_order_relaxed);
    std::size_t stored = batch.size();
    if (start + batch.size() > capacity_) {
      assert(!"EdgeWorklist::push_next_bulk: append past capacity (double-append?)");
      stored = start < capacity_ ? capacity_ - start : 0;
      record_drop(batch.size() - stored);
    }
    std::copy_n(batch.data(), stored, buffers_[1 - cur_].get() + start);
  }

  /// Chunked reservation handle for one virtual block: survivors are staged
  /// in a private buffer and committed with one fetch_add per chunk. Create
  /// one per block inside the kernel; the destructor (which runs before the
  /// launch's grid barrier) flushes the partial last chunk.
  class ChunkAppender {
   public:
    static constexpr std::size_t kDefaultChunkEdges = 1024;

    explicit ChunkAppender(EdgeWorklist& wl,
                           std::size_t chunk_edges = kDefaultChunkEdges) noexcept
        : wl_(wl), chunk_(std::max<std::size_t>(1, chunk_edges)) {
      staged_.reserve(chunk_);
    }
    ChunkAppender(const ChunkAppender&) = delete;
    ChunkAppender& operator=(const ChunkAppender&) = delete;
    ~ChunkAppender() { flush(); }

    void push(graph::Edge e) {
      staged_.push_back(e);
      if (staged_.size() >= chunk_) flush();
    }

    void flush() noexcept {
      if (staged_.empty()) return;
      wl_.push_next_bulk(staged_);
      staged_.clear();
    }

   private:
    EdgeWorklist& wl_;
    std::size_t chunk_;
    std::vector<graph::Edge> staged_;
  };

  /// Number of edges appended to the next buffer so far (may exceed
  /// capacity after an overflow; see overflowed()).
  std::size_t next_size() const noexcept { return next_size_.load(std::memory_order_acquire); }

  /// Saturating overflow flag: set once an append ran past capacity and
  /// sticky until clear_overflow(). The edges dropped by those pushes make
  /// the worklist contents unreliable, so the solver should abandon the
  /// fixpoint and fall back.
  bool overflowed() const noexcept { return overflow_.load(std::memory_order_acquire); }
  void clear_overflow() noexcept {
    overflow_.store(false, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  /// Edges dropped by appends past capacity since construction or the last
  /// clear_overflow() — the real loss behind the overflow flag, sticky
  /// across swap_buffers() so the watchdog and the chaos bench can report
  /// how much of the edge set was silently discarded.
  std::size_t dropped_edges() const noexcept {
    return dropped_.load(std::memory_order_acquire);
  }

  /// The current buffer and its size: a copy-free checkpoint of the edge
  /// set (DESIGN.md §12).
  struct Mark {
    int buffer = 0;
    std::size_t size = 0;
  };
  Mark mark() const noexcept { return {cur_, size()}; }

  /// Makes the marked buffer current again, resets the next-buffer cursor
  /// and clears the overflow record (the restored state predates whatever
  /// overflowed). Appends write only the spare buffer, so the marked edges
  /// stay intact until the appends that follow the next swap_buffers():
  /// rewind at most one swap after the mark. Not thread-safe; control
  /// thread only.
  void rewind(Mark m) noexcept {
    cur_ = m.buffer;
    size_.store(m.size, std::memory_order_release);
    next_size_.store(0, std::memory_order_relaxed);
    clear_overflow();
  }

  /// Rewinds the worklist to an explicit edge set (the fleet's checkpoint
  /// restore, DESIGN.md §14): the current buffer is overwritten with
  /// `edges`, the next-buffer cursor is reset, and the overflow record is
  /// cleared. Edges beyond the fixed capacity are ignored — impossible for
  /// a checkpoint, which snapshots a buffer of the same capacity. Not
  /// thread-safe; control thread only.
  void reset(std::span<const graph::Edge> edges) noexcept {
    const std::size_t count = std::min(edges.size(), capacity_);
    std::copy_n(edges.data(), count, buffers_[cur_].get());
    size_.store(count, std::memory_order_release);
    next_size_.store(0, std::memory_order_relaxed);
    clear_overflow();
  }

  /// Pointer swap: the next buffer becomes current; the old current buffer
  /// becomes the (logically empty) next buffer. Not thread-safe; call at a
  /// grid barrier only. A cursor past capacity here means appends were
  /// dropped (asserts in debug; the clamped count stays observable through
  /// dropped_edges() in release).
  void swap_buffers() noexcept {
    const std::size_t pushed = next_size_.load(std::memory_order_relaxed);
    assert((pushed <= capacity() || overflowed()) &&
           "EdgeWorklist::swap_buffers: cursor past capacity without overflow record");
    size_.store(std::min(pushed, capacity()), std::memory_order_relaxed);
    next_size_.store(0, std::memory_order_relaxed);
    cur_ = 1 - cur_;
  }

 private:
  /// Allocates both buffers for `capacity` edges without initializing them:
  /// the caller fills the current one, and Phase 3 writes only the spare
  /// buffer's survivor prefix, so the rest is never touched.
  void allocate(std::size_t capacity);

  void record_drop(std::size_t count) noexcept {
    overflow_.store(true, std::memory_order_relaxed);
    dropped_.fetch_add(count, std::memory_order_relaxed);
  }

  std::unique_ptr<graph::Edge[]> buffers_[2];
  std::size_t capacity_ = 0;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> next_size_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<bool> overflow_{false};
  int cur_ = 0;
};

}  // namespace ecl::device

#endif  // ECL_DEVICE_WORKLIST_HPP

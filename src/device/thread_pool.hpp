#ifndef ECL_DEVICE_THREAD_POOL_HPP
#define ECL_DEVICE_THREAD_POOL_HPP

// A minimal blocking thread pool used as the host backend of the virtual
// GPU (see device.hpp). Work is handed out as dense task indices, which the
// device layer maps to thread blocks.
//
// Scheduling is work stealing (DESIGN.md §11): the index range is
// pre-split into one contiguous claim range per worker (64-byte padded, so
// claims are contention-free, where one shared fetch_add cursor would put
// every worker on one cache line for every task claimed), and a worker that
// drains its own range steals from the currently most-loaded peer. The
// steal reuses the victim's claim cursor, so every index is still executed
// exactly once without any range-splitting handshake.
//
// Submission uses a spin-then-park barrier: workers spin briefly on an
// atomic batch generation before parking on the condition variable, so
// back-to-back launches (the ECL fixpoint pattern) skip the wake/sleep
// round trip. The park path re-checks the generation under the mutex, so
// no wakeup can be missed.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ecl::device {

class ThreadPool {
 public:
  /// `workers == 0` selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_workers() const noexcept { return static_cast<unsigned>(threads_.size() + 1); }

  /// Runs fn(i) for every i in [0, count), distributing indices across the
  /// workers' claim ranges (including the calling thread's) with stealing.
  /// Blocks until all tasks complete. Exceptions thrown by fn propagate to
  /// the caller.
  ///
  /// The callable is invoked through a captured function pointer + context
  /// pointer, so no std::function (and no heap allocation) is constructed
  /// on this path — the launch hot path stays allocation-free.
  template <typename Fn>
  void parallel_for(std::size_t count, const Fn& fn) {
    parallel_for_erased(
        count, [](const void* ctx, std::size_t i) { (*static_cast<const Fn*>(ctx))(i); },
        std::addressof(fn));
  }

  /// Tasks claimed from a worker's own range since construction, and tasks
  /// stolen from a peer's range. claimed + stolen equals the total number
  /// of tasks executed, including every batch a parallel_for has returned
  /// from. Test/metrics hooks.
  std::uint64_t claimed_tasks() const noexcept {
    return claimed_.load(std::memory_order_relaxed);
  }
  std::uint64_t stolen_tasks() const noexcept { return stolen_.load(std::memory_order_relaxed); }

 private:
  using InvokeFn = void (*)(const void*, std::size_t);

  /// One worker's contiguous claim range. Padded to its own cache line so
  /// the common case (claiming from your own range) never contends.
  struct alignas(64) ClaimRange {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  // One parallel_for call. The claim/complete counters live with the batch
  // (not the pool) so a straggler worker that snapshotted an old batch can
  // never claim indices from — or run the function of — a newer one: its
  // counters are exhausted, and the shared_ptr keeps them valid to read.
  // The caller outlives fn itself: it cannot leave parallel_for until every
  // claimed index has been completed, and a worker publishes its
  // completions in one add, after its last call to fn and after its
  // claimed/stolen tallies.
  struct Batch {
    InvokeFn invoke = nullptr;
    const void* ctx = nullptr;
    std::size_t count = 0;
    unsigned slots = 0;  ///< one claim range per worker
    std::unique_ptr<ClaimRange[]> ranges;
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> failed{false};
  };

  void parallel_for_erased(std::size_t count, InvokeFn invoke, const void* ctx);
  void worker_loop(unsigned slot);
  void run_batch(Batch& batch, unsigned slot, bool notify_done);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;

  std::shared_ptr<Batch> batch_;             // guarded by mutex_
  std::atomic<std::uint64_t> generation_{0};  // written under mutex_; spin-read lock-free
  std::atomic<bool> shutdown_{false};         // written under mutex_; spin-read lock-free
  unsigned parked_ = 0;                       // guarded by mutex_

  std::atomic<std::uint64_t> claimed_{0};
  std::atomic<std::uint64_t> stolen_{0};
};

}  // namespace ecl::device

#endif  // ECL_DEVICE_THREAD_POOL_HPP

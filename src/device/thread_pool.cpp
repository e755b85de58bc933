#include "device/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecl::device {
namespace {

/// Spin iterations before a worker parks on the condition variable. Each
/// iteration yields, so a spinning worker never starves the submitter on an
/// oversubscribed (or single-core) host.
constexpr int kSpinIterations = 128;

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  // The calling thread participates in every batch as slot 0, so spawn
  // workers - 1 threads occupying slots 1..workers-1.
  threads_.reserve(workers - 1);
  for (unsigned i = 1; i < workers; ++i) threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutdown_.store(true, std::memory_order_relaxed);
  }
  work_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_batch(Batch& batch, unsigned slot, bool notify_done) {
  std::uint64_t claimed = 0;
  std::uint64_t stolen = 0;
  const auto execute = [&](std::size_t i) {
    try {
      batch.invoke(batch.ctx, i);
    } catch (...) {
      batch.failed.store(true, std::memory_order_relaxed);
    }
  };

  // Drain this worker's own claim range: contention-free fetch_add on a
  // cache line no other worker touches until it steals.
  if (slot < batch.slots) {
    ClaimRange& own = batch.ranges[slot];
    for (;;) {
      const std::size_t i = own.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= own.end) break;
      ++claimed;
      execute(i);
    }
  }
  // Steal from the most-loaded peer until every range is drained. A steal
  // advances the victim's own cursor, so exactly-once execution needs no
  // extra coordination; a lost race (cursor past end) just rescans.
  for (;;) {
    ClaimRange* victim = nullptr;
    std::size_t best = 0;
    for (unsigned s = 0; s < batch.slots; ++s) {
      ClaimRange& r = batch.ranges[s];
      const std::size_t at = r.next.load(std::memory_order_relaxed);
      const std::size_t left = at < r.end ? r.end - at : 0;
      if (left > best) {
        best = left;
        victim = &r;
      }
    }
    if (victim == nullptr) break;
    const std::size_t i = victim->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= victim->end) continue;
    ++stolen;
    execute(i);
  }

  // Publish the tallies before the completion count: the increment that
  // reaches batch.count releases the caller, which may read them at once.
  if (claimed) claimed_.fetch_add(claimed, std::memory_order_relaxed);
  if (stolen) stolen_.fetch_add(stolen, std::memory_order_relaxed);
  const std::size_t done = claimed + stolen;
  if (done == 0) return;
  if (batch.completed.fetch_add(done, std::memory_order_acq_rel) + done >= batch.count &&
      notify_done) {
    // Take the lock before notifying so the wake can't slip between the
    // caller's predicate check and its sleep.
    { std::lock_guard lock(mutex_); }
    work_done_.notify_one();
  }
}

void ThreadPool::parallel_for_erased(std::size_t count, InvokeFn invoke, const void* ctx) {
  if (count == 0) return;
  auto batch = std::make_shared<Batch>();
  batch->invoke = invoke;
  batch->ctx = ctx;
  batch->count = count;
  const unsigned slots = num_workers();
  batch->slots = slots;
  batch->ranges = std::make_unique<ClaimRange[]>(slots);
  const std::size_t q = count / slots;
  const std::size_t r = count % slots;
  std::size_t begin = 0;
  for (unsigned s = 0; s < slots; ++s) {
    const std::size_t len = q + (s < r ? 1 : 0);
    batch->ranges[s].next.store(begin, std::memory_order_relaxed);
    batch->ranges[s].end = begin + len;
    begin += len;
  }

  bool wake;
  {
    std::lock_guard lock(mutex_);
    batch_ = batch;
    generation_.fetch_add(1, std::memory_order_release);
    wake = parked_ > 0;
  }
  // Spinning workers observe the generation bump without a syscall; only
  // parked ones need the (mutex-serialized) notify.
  if (wake) work_ready_.notify_all();

  // The caller works too; this also makes the pool correct with 0 spawned
  // threads (single-core hosts).
  run_batch(*batch, /*slot=*/0, /*notify_done=*/false);

  // Spin-then-park on the completion count, mirroring the workers' side of
  // the barrier: back-to-back launches whose stragglers finish within the
  // spin window never touch the condition variable.
  bool done = false;
  for (int spin = 0; spin < kSpinIterations; ++spin) {
    if (batch->completed.load(std::memory_order_acquire) >= batch->count) {
      done = true;
      break;
    }
    std::this_thread::yield();
  }
  {
    std::unique_lock lock(mutex_);
    if (!done) {
      work_done_.wait(lock, [&] {
        return batch->completed.load(std::memory_order_acquire) >= batch->count;
      });
    }
    if (batch_ == batch) batch_.reset();
  }
  if (batch->failed.load(std::memory_order_relaxed))
    throw std::runtime_error("ThreadPool: a worker task threw an exception");
}

void ThreadPool::worker_loop(unsigned slot) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    // Phase 1: spin briefly — a fixpoint loop's next launch usually arrives
    // within the window, and the generation load is uncontended.
    bool have_work = false;
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      if (shutdown_.load(std::memory_order_relaxed)) return;
      if (generation_.load(std::memory_order_acquire) != seen_generation) {
        have_work = true;
        break;
      }
      std::this_thread::yield();
    }
    // Phase 2: park. The predicate re-checks the generation under the same
    // mutex the submitter bumps it under, so the wake cannot be missed.
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock lock(mutex_);
      if (!have_work) {
        ++parked_;
        work_ready_.wait(lock, [&] {
          return shutdown_.load(std::memory_order_relaxed) ||
                 generation_.load(std::memory_order_relaxed) != seen_generation;
        });
        --parked_;
      }
      if (shutdown_.load(std::memory_order_relaxed)) return;
      seen_generation = generation_.load(std::memory_order_relaxed);
      batch = batch_;
    }
    if (batch == nullptr) continue;
    run_batch(*batch, slot, /*notify_done=*/true);
  }
}

}  // namespace ecl::device

#ifndef ECL_DEVICE_DEVICE_HPP
#define ECL_DEVICE_DEVICE_HPP

// Virtual-GPU execution substrate.
//
// The paper's system is a CUDA implementation; this container has no GPU, so
// the reproduction runs the same kernels on a "virtual device" that models
// the execution structure the paper's optimizations manipulate:
//
//  * kernels are launched over a grid of thread blocks with an implicit
//    grid-wide barrier at launch end (the paper's three per-phase barriers);
//  * a persistent-thread launch runs exactly as many resident blocks as the
//    device profile can co-schedule, each grid-striding over the work
//    (Gupta et al. [9], §3.4);
//  * per-launch statistics (kernel launches, block iterations) expose the
//    quantities the paper's async optimization reduces (§3.3).
//
// Blocks execute as tasks on a host thread pool. Within a block, the logical
// 512 "threads" run as a sequential loop over the block's items — every
// cross-block interaction (worklist appends, signature races) uses the same
// atomics the CUDA code would, so the concurrency semantics are preserved.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "device/fault.hpp"
#include "device/thread_pool.hpp"

namespace ecl::device {

/// Hardware profile of a simulated GPU. The two profiles used in the paper's
/// evaluation are provided (Titan V, A100).
struct DeviceProfile {
  std::string name;
  unsigned num_sms = 8;
  unsigned threads_per_block = 512;  ///< launch width used by ECL-SCC (§3.4)
  unsigned max_threads_per_sm = 2048;
  /// Simulated per-launch latency in microseconds. Real CUDA launches cost
  /// ~5-15us, which on latency-bound codes (iterated Trim-1 sweeps, level-
  /// synchronous BFS) dominates the runtime — the effect the paper's async
  /// Phase-2 optimization exists to avoid (§3.3, [19]). The default values
  /// are calibrated so the latency-to-throughput ratio of the simulated
  /// device over ECL_SCALE-sized graphs approximates a real GPU over
  /// paper-sized ones. Scaled globally by ECL_LAUNCH_OVERHEAD (a factor;
  /// set to 0 to disable).
  double launch_overhead_us = 0.0;
  /// Failure-injection knob for tests: hand out block IDs in reverse task
  /// order. Correct kernels must not depend on block scheduling order, so
  /// every algorithm must produce identical results under this profile.
  bool reverse_block_order = false;
  /// Seeded chaos-injection plan (see fault.hpp). Disabled by default; a
  /// disabled plan must cost nothing beyond one branch per launch.
  FaultPlan fault_plan;

  /// Number of thread blocks the device can keep resident at once; this is
  /// the grid size of persistent-thread launches.
  unsigned resident_blocks() const noexcept {
    return num_sms * (max_threads_per_sm / threads_per_block);
  }
};

DeviceProfile titan_v_profile();  ///< 80 SMs, 2048 threads/SM
DeviceProfile a100_profile();     ///< 108 SMs, 2048 threads/SM
DeviceProfile tiny_profile();     ///< 2 SMs; exercises grid-stride remainder paths in tests

/// Context handed to a kernel for one thread block.
struct BlockContext {
  unsigned block_id = 0;
  unsigned num_blocks = 1;
  unsigned threads_per_block = 512;

  /// Items this block owns under block-cyclic (grid-stride) distribution of
  /// `total` items in chunks of threads_per_block: chunk c belongs to block
  /// (c % num_blocks).
  struct ChunkRange {
    std::uint64_t begin;
    std::uint64_t end;
  };

  /// Calls fn(chunk_begin, chunk_end) for every chunk this block owns.
  template <typename Fn>
  void for_each_chunk(std::uint64_t total, Fn&& fn) const {
    const std::uint64_t chunk = threads_per_block;
    for (std::uint64_t lo = static_cast<std::uint64_t>(block_id) * chunk; lo < total;
         lo += static_cast<std::uint64_t>(num_blocks) * chunk) {
      fn(lo, std::min(total, lo + chunk));
    }
  }
};

/// Cumulative launch statistics, reset per algorithm run.
struct LaunchStats {
  std::uint64_t kernel_launches = 0;
  std::uint64_t blocks_executed = 0;
  std::uint64_t block_iterations = 0;  ///< async-kernel internal repeats (§3.3)
  std::uint64_t spurious_replays = 0;  ///< fault-injected block re-executions
  std::uint64_t chains_collapsed = 0;  ///< chain chases that moved ≥1 link (§15)
  std::uint64_t hashbag_rounds = 0;    ///< Phase-2 rounds served sparsely (§15)

  /// Per-block edge-work histogram (DESIGN.md §11): cumulative work units
  /// reported via Device::record_block_work, indexed by block id and sized
  /// by the widest reporting grid seen. Kernels that don't report leave it
  /// untouched.
  std::vector<std::uint64_t> block_edge_work;
  /// Work-weighted running sums for the imbalance metric: each reporting
  /// launch contributes (max block work / mean block work) weighted by its
  /// total work.
  double imbalance_weighted = 0.0;
  double imbalance_weight = 0.0;

  /// Work-weighted mean of per-launch max/mean block-work ratios; 1.0 is
  /// perfectly balanced, and 1.0 is returned when nothing was recorded.
  double block_imbalance() const noexcept {
    return imbalance_weight > 0.0 ? imbalance_weighted / imbalance_weight : 1.0;
  }

  void reset() { *this = LaunchStats{}; }
};

/// Per-launch attributes a kernel call site can declare.
struct LaunchOptions {
  /// The kernel tolerates a whole block being re-executed after the grid
  /// completed (monotonic propagation, tag-CAS BFS expansion, init).
  /// Non-idempotent launches (e.g. worklist appends) are never replayed by
  /// the spurious-reexecution fault.
  bool idempotent = false;
};

/// A simulated GPU device.
class Device {
 public:
  /// `host_workers == 0` selects the host's hardware concurrency.
  explicit Device(DeviceProfile profile = a100_profile(), unsigned host_workers = 0);

  const DeviceProfile& profile() const noexcept { return profile_; }
  LaunchStats& stats() noexcept { return stats_; }
  const LaunchStats& stats() const noexcept { return stats_; }

  /// The host thread pool executing blocks; exposes the work-stealing
  /// claim/steal counters (DESIGN.md §11).
  const ThreadPool& pool() const noexcept { return pool_; }

  /// The device's fault injector (inactive unless the profile carries an
  /// enabled FaultPlan). Kernels that route signature stores through the
  /// delayed-visibility fault query this.
  FaultInjector& fault() noexcept { return fault_; }
  const FaultInjector& fault() const noexcept { return fault_; }
  bool fault_active() const noexcept { return fault_.active(); }

  /// Launches `num_blocks` blocks of `kernel`; returns after all blocks
  /// complete (grid-wide barrier). Under an active fault plan the block IDs
  /// may be permuted, blocks may be delayed, and — for launches declared
  /// idempotent — a bounded random subset of blocks is replayed after the
  /// grid barrier (a re-executed straggler).
  ///
  /// A zero-block launch is a no-op: no launch is counted and no launch
  /// overhead is charged (a real driver never dispatches an empty grid).
  /// The kernel is dispatched through the pool's templated path, so no
  /// std::function is constructed per launch.
  template <typename Kernel>
  void launch(unsigned num_blocks, Kernel&& kernel, LaunchOptions attrs = {}) {
    if (num_blocks == 0) return;
    const std::uint64_t launch_id = ++stats_.kernel_launches;
    stats_.blocks_executed += num_blocks;
    charge_launch_overhead();
    begin_block_work(num_blocks);
    const bool reverse = profile_.reverse_block_order;
    FaultInjector* fi = fault_.active() ? &fault_ : nullptr;
    // Windowed store faults (fault.hpp) key off the launch counter.
    if (fi) fi->begin_launch(launch_id);
    const std::vector<unsigned> perm =
        fi ? fi->block_permutation(launch_id, num_blocks) : std::vector<unsigned>{};
    const auto task = [&, reverse](std::size_t b) {
      auto block_id = static_cast<unsigned>(reverse ? (num_blocks - 1 - b) : b);
      if (!perm.empty()) block_id = perm[block_id];
      if (fi) fi->schedule_delay(launch_id, block_id);
      BlockContext ctx{block_id, num_blocks, profile_.threads_per_block};
      kernel(ctx);
    };
    pool_.parallel_for(num_blocks, task);
    if (fi && attrs.idempotent) {
      const unsigned replays = fi->replay_count(launch_id, num_blocks);
      for (unsigned r = 0; r < replays; ++r) {
        BlockContext ctx{fi->replay_block(launch_id, r, num_blocks), num_blocks,
                         profile_.threads_per_block};
        kernel(ctx);
        ++stats_.spurious_replays;
      }
    }
    fold_block_work(num_blocks);
  }

  /// Reports `amount` units of edge work done by `block` in the current
  /// launch. Callable concurrently from inside kernels; folded into
  /// stats().block_edge_work and the imbalance metric at the grid barrier.
  void record_block_work(unsigned block, std::uint64_t amount) noexcept;

  /// Persistent-thread launch: grid size = resident_blocks() (§3.4).
  template <typename Kernel>
  void launch_persistent(Kernel&& kernel, LaunchOptions attrs = {}) {
    launch(profile_.resident_blocks(), std::forward<Kernel>(kernel), attrs);
  }

  /// Grid size for a one-item-per-thread launch over `total` items. Zero
  /// items need zero blocks: launch(0, ...) is a no-op, so empty worklists
  /// cost neither a dispatch nor the launch overhead.
  unsigned blocks_for(std::uint64_t total) const noexcept {
    const std::uint64_t tpb = profile_.threads_per_block;
    return static_cast<unsigned>((total + tpb - 1) / tpb);
  }

 private:
  /// Spin-waits for the profile's launch latency (µs-accurate).
  void charge_launch_overhead();
  /// Zeroes the per-launch work scratch for `num_blocks` blocks.
  void begin_block_work(unsigned num_blocks);
  /// Folds the per-launch scratch into the cumulative histogram and the
  /// work-weighted imbalance sums (no-op when nothing was recorded).
  void fold_block_work(unsigned num_blocks);

  DeviceProfile profile_;
  double effective_overhead_us_ = 0.0;
  FaultInjector fault_;
  ThreadPool pool_;
  LaunchStats stats_;
  /// Per-launch work scratch written by record_block_work via atomic_ref;
  /// resized only between launches (on the control thread).
  std::vector<std::uint64_t> launch_work_;
};

}  // namespace ecl::device

#endif  // ECL_DEVICE_DEVICE_HPP

#ifndef ECL_SERVICE_SCC_SERVICE_HPP
#define ECL_SERVICE_SCC_SERVICE_HPP

// SccService: a deadline-aware request pipeline over the SCC stack.
//
// The service owns a DynamicScc-backed graph, a worker pool, and a bounded
// admission queue, and serves concurrent requests (full labelings,
// condensations, same-SCC reachability, update batches) with explicit
// robustness machinery at every stage:
//
//  * admission control — the bounded queue sheds load with a structured
//    rejection (queue-full / shutting-down) instead of queueing without
//    bound (admission_queue.hpp);
//  * deadline propagation — each request's wall-clock deadline is plumbed
//    into the solver watchdog via scc::run_with_deadline, so an ECL-SCC run
//    is cancelled mid-fixpoint the moment its request expires. A kOk
//    response is never delivered after its deadline — the pipeline
//    re-checks at finalization and demotes late answers to
//    kDeadlineExceeded;
//  * retry with exponential backoff + jitter — a failed fresh compute walks
//    the backend chain (default ecl -> ecl-omp -> tarjan), pacing retries
//    with seeded-deterministic jitter (backoff.hpp);
//  * online result certification — every fresh or serial labeling passes
//    the O(V+E) certificate (core/verify.hpp certify_scc) before it is
//    served or cached; a labeling that fails is treated as a
//    kCertificationFailed backend fault and the retry chain continues.
//    Uncertified results are never served (DESIGN.md §12). The graph's
//    reverse adjacency — labeling-independent — is cached per epoch, so
//    every certification after the first shares one build;
//  * health-scored backend quarantine — SccError / timeout / certification
//    outcomes feed a weighted sliding window per backend
//    (health_registry.hpp); a degraded backend is quarantined and stops
//    receiving traffic until a probation probe proves it healthy;
//  * tiered graceful degradation — when the fresh tier is shed (overload),
//    exhausted, or breaker-blocked, the ladder serves an epoch-stamped
//    stale snapshot if it is within the request's staleness_budget, then a
//    direct serial-Tarjan recompute (exact but slower, bypassing breakers),
//    and only then rejects with a taxonomy'd ServiceStatus.
//
// Every response carries a ServedBy trace (backend, tier, attempts, queue
// wait, compute time, staleness epoch delta), so degradation is observable
// rather than silent.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "dynamic/dynamic_scc.hpp"
#include "fleet/device_pool.hpp"
#include "fleet/graph_router.hpp"
#include "service/admission_queue.hpp"
#include "service/backoff.hpp"
#include "service/health_registry.hpp"
#include "service/service_types.hpp"

namespace ecl::service {

struct ServiceConfig {
  /// Worker threads consuming the admission queue.
  unsigned workers = 4;
  /// Admission-queue capacity; requests beyond it are shed.
  std::size_t queue_capacity = 64;
  /// Queue occupancy (fraction of capacity) beyond which the fresh-compute
  /// tier is skipped for query requests — under overload a cheap degraded
  /// answer keeps the queue draining.
  double overload_fraction = 0.75;
  /// Fresh-compute backend chain, tried in order (registry names).
  std::vector<std::string> backends = {"ecl-a100", "ecl-omp", "tarjan"};
  /// Total fresh attempts per request across the chain.
  std::size_t max_attempts = 4;
  /// Fraction of the remaining deadline granted to one fresh attempt, so a
  /// stalled backend cannot burn the whole budget and starve the ladder's
  /// later tiers.
  double attempt_deadline_fraction = 0.5;
  BackoffPolicy backoff;
  /// Window / threshold / cool-down tuning (health.breaker), taxonomy
  /// weights and quarantine escalation for the health registry.
  HealthConfig health;
  bool enable_breakers = true;
  /// Online certification of fresh/serial labelings before they are served
  /// (certify_scc). Disable only in benchmarks measuring its overhead.
  bool enable_certification = true;
  bool enable_degradation = true;
  /// Seed for retry jitter (decorrelated per request, reproducible).
  std::uint64_t seed = 0x5e11ce;
  /// Device profile for the per-worker virtual devices; carry a FaultPlan
  /// here to chaos-degrade the device-backed backends.
  device::DeviceProfile device_profile = device::a100_profile();
  /// Host threads per worker device (kept small: the service already runs
  /// `workers` concurrent requests).
  unsigned device_workers = 2;

  // ---- Fleet mode (DESIGN.md §13) ----------------------------------------
  /// Pooled devices shared by all workers (0 = legacy topology: each worker
  /// owns a private device). In pool mode the GraphRouter leases the
  /// least-loaded healthy device to a label compute's device-backed
  /// attempts (requests that run no device work take no lease), and the
  /// pool's own health registry quarantines misbehaving devices
  /// INDIVIDUALLY — the backend registry above keeps scoring algorithms,
  /// the pool registry scores hardware.
  unsigned pool_devices = 0;
  /// Aggregate host-thread budget across ALL pooled devices, divided evenly
  /// per device with a floor of 1 (0 = hardware concurrency). This is the
  /// cap that keeps an N-device pool from oversubscribing the host N-fold.
  unsigned pool_thread_budget = 0;
  /// Shard count for fresh kSccLabels computes in pool mode: > 1 routes the
  /// fixpoint through fleet::sharded_scc across the pool's devices (capacity
  /// mode); 1 keeps whole-graph placement (throughput mode).
  unsigned shards = 1;
  /// Per-device chaos plans for the pool, indexed by device.
  std::vector<device::FaultPlan> pool_fault_plans;

  /// Engine knobs for the owned DynamicScc.
  dynamic::DynamicOptions dynamic;
};

/// Monotonic counters (cheap, racy-read snapshot).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t served_fresh = 0;
  std::uint64_t served_stale = 0;
  std::uint64_t served_serial = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t invalid = 0;
  std::uint64_t fresh_attempts = 0;
  std::uint64_t backend_failures = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t overload_sheds = 0;
};

/// Self-healing counters (DESIGN.md §12), aggregated across all requests
/// and workers: solver checkpoint/replay work, certifier activity, and
/// quarantine lifecycle transitions from the health registry.
struct RecoveryStats {
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t resumes = 0;
  std::uint64_t rounds_replayed = 0;
  std::uint64_t certifications = 0;          ///< certificate checks run
  std::uint64_t certification_failures = 0;  ///< results rejected by the certifier
  double certify_seconds = 0.0;              ///< total wall-clock spent certifying
  std::uint64_t quarantines = 0;             ///< backends quarantined
  std::uint64_t probations = 0;              ///< quarantine -> probation transitions
  std::uint64_t readmissions = 0;            ///< probation -> healthy transitions
  // Fleet self-healing (DESIGN.md §14), from sharded runs.
  std::uint64_t failovers = 0;               ///< device ejections survived by failover
  std::uint64_t shards_rehomed = 0;          ///< shards migrated off ejected devices
  std::uint64_t stragglers_flagged = 0;      ///< over-budget shard sweeps observed
  std::uint64_t straggler_migrations = 0;    ///< shards preemptively migrated off slow devices
  // High-diameter counters (DESIGN.md §15), aggregated across fresh computes.
  std::uint64_t chains_collapsed = 0;        ///< chain chases that moved a signature
  std::uint64_t chain_steps = 0;             ///< total signature moves inside chases
  std::uint64_t max_chain_len = 0;           ///< longest single chase observed
  std::uint64_t hashbag_rounds = 0;          ///< Phase-2 rounds run off the sparse bag
};

class SccService {
 public:
  explicit SccService(const Digraph& g, ServiceConfig config = {});
  ~SccService();

  SccService(const SccService&) = delete;
  SccService& operator=(const SccService&) = delete;

  /// Asynchronous entry point. Admission happens inline: a shed request's
  /// future is already resolved with the structured rejection.
  std::future<Response> submit(Request request);

  /// Synchronous convenience: submit + wait.
  Response call(Request request);

  /// Stops admission, drains queued work, joins the workers. Idempotent;
  /// also run by the destructor.
  void shutdown();

  const ServiceConfig& config() const noexcept { return config_; }
  ServiceStats stats() const;
  std::size_t queue_depth() const { return queue_->size(); }

  /// Full health-registry view per backend (scores, fault taxonomy counts,
  /// quarantine lifecycle counters).
  std::vector<BackendHealthSnapshot> backend_health() const;

  /// Aggregated self-healing counters (checkpoints, resumes, certifier
  /// activity, quarantine transitions).
  RecoveryStats recovery_stats() const;

  /// Aggregated launch statistics of all per-worker devices, including the
  /// per-block edge-work histogram and the weighted imbalance metric
  /// (DESIGN.md §11). Workers fold their device's stats in as they exit, so
  /// the full picture is available after shutdown(); mid-run it covers only
  /// already-exited workers. In pool mode this is the pool-wide aggregate,
  /// live at any time.
  device::LaunchStats device_stats() const;

  /// Fleet observability: true when the service runs on a shared DevicePool.
  bool pool_mode() const noexcept { return pool_ != nullptr; }
  /// The pool (null outside pool mode; test and tool access).
  fleet::DevicePool* device_pool() noexcept { return pool_.get(); }
  /// Per-device launch statistics (name, stats), index-aligned with the
  /// pool; empty outside pool mode. Snapshot is taken under each device's
  /// guard, so it is safe against in-flight launches.
  std::vector<std::pair<std::string, device::LaunchStats>> pool_device_stats() const;

  /// The owned engine (test/tool access; the service stays in charge of
  /// writes — use update_batch requests to mutate).
  dynamic::DynamicScc& engine() noexcept { return *engine_; }
  const dynamic::DynamicScc& engine() const noexcept { return *engine_; }

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    ServiceClock::time_point enqueued_at{};
    std::uint64_t id = 0;
  };

  struct AtomicStats {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> rejected_queue_full{0};
    std::atomic<std::uint64_t> rejected_shutdown{0};
    std::atomic<std::uint64_t> served_fresh{0};
    std::atomic<std::uint64_t> served_stale{0};
    std::atomic<std::uint64_t> served_serial{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> unavailable{0};
    std::atomic<std::uint64_t> invalid{0};
    std::atomic<std::uint64_t> fresh_attempts{0};
    std::atomic<std::uint64_t> backend_failures{0};
    std::atomic<std::uint64_t> breaker_skips{0};
    std::atomic<std::uint64_t> overload_sheds{0};
    std::atomic<std::uint64_t> checkpoints_taken{0};
    std::atomic<std::uint64_t> resumes{0};
    std::atomic<std::uint64_t> rounds_replayed{0};
    std::atomic<std::uint64_t> certifications{0};
    std::atomic<std::uint64_t> certification_failures{0};
    std::atomic<std::uint64_t> certify_micros{0};  ///< certifier wall-clock, microseconds
    std::atomic<std::uint64_t> failovers{0};
    std::atomic<std::uint64_t> shards_rehomed{0};
    std::atomic<std::uint64_t> stragglers_flagged{0};
    std::atomic<std::uint64_t> straggler_migrations{0};
    std::atomic<std::uint64_t> chains_collapsed{0};
    std::atomic<std::uint64_t> chain_steps{0};
    std::atomic<std::uint64_t> max_chain_len{0};
    std::atomic<std::uint64_t> hashbag_rounds{0};
  };

  void worker_loop();
  /// Accumulates the §15 high-diameter counters of one solver attempt
  /// (chases, hash-bag rounds) into the service-wide stats.
  void fold_highdiameter_stats(const scc::SccMetrics& metrics);
  /// `own` is the worker's private device, null in pool mode.
  Response process(Pending& pending, device::Device* own);
  void serve_labels(Pending& pending, device::Device* own, Response& response);
  void serve_condensation(Response& response);
  void serve_reachability(Pending& pending, Response& response);
  void serve_update_batch(Pending& pending, Response& response);
  /// Fresh tier: backend chain with breakers + retry/backoff. True when a
  /// fresh answer was produced into `response`. Device-backed attempts run
  /// on `own`, or in pool mode on a device the router leases at the first
  /// of them, whose outcomes then feed the pool's per-device health registry.
  bool try_fresh(Pending& pending, device::Device* own, Response& response);
  /// Capacity-mode fresh tier: the sharded fixpoint across the whole pool
  /// (config.shards > 1). Takes every device guard for the run's duration.
  bool try_sharded(Pending& pending, Response& response);
  /// Stamps completed_at, enforces the deadline invariant, bumps counters.
  void finalize(const Request& request, Response& response);

  std::shared_ptr<const dynamic::LabelSnapshot> cached_snapshot() const;
  void store_cached_snapshot(std::shared_ptr<const dynamic::LabelSnapshot> snap);
  /// Epoch-cached CSR materialization of the engine's current edge set.
  std::pair<std::shared_ptr<const Digraph>, std::uint64_t> current_graph();
  double remaining_seconds(const Request& request) const;

  /// Runs the certificate on a fresh/serial labeling (when enabled),
  /// recording outcome + cost into the trace and counters. True when the
  /// labeling may be served. `epoch` keys the reverse-adjacency cache.
  bool certify_for_serving(const Digraph& g, std::uint64_t epoch, const scc::SccResult& result,
                           ServedBy& sb);
  /// Epoch-cached g.reverse() for the certifier: the reverse adjacency
  /// depends only on the graph, so every certification of the same epoch
  /// shares one build (the certifier's steady-state per-request cost drops
  /// by an O(V+E) pass).
  std::shared_ptr<const Digraph> epoch_reverse(const Digraph& g, std::uint64_t epoch);

  ServiceConfig config_;
  std::unique_ptr<dynamic::DynamicScc> engine_;
  std::unique_ptr<AdmissionQueue<std::unique_ptr<Pending>>> queue_;
  std::unique_ptr<BackendHealthRegistry> health_;  // entries parallel config_.backends
  std::unique_ptr<fleet::DevicePool> pool_;        // pool mode only
  std::unique_ptr<fleet::GraphRouter> router_;     // pool mode only
  std::vector<std::thread> workers_;
  std::size_t overload_threshold_ = 0;

  mutable std::mutex cache_mutex_;
  std::shared_ptr<const dynamic::LabelSnapshot> cached_snapshot_;
  std::shared_ptr<const Digraph> graph_cache_;
  std::uint64_t graph_cache_epoch_ = 0;
  std::shared_ptr<const Digraph> reverse_cache_;  // certifier hint, keyed like graph_cache_
  std::uint64_t reverse_cache_epoch_ = 0;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mutex_;
  AtomicStats stats_;

  mutable std::mutex device_stats_mutex_;
  device::LaunchStats device_stats_;  // guarded by device_stats_mutex_
};

}  // namespace ecl::service

#endif  // ECL_SERVICE_SCC_SERVICE_HPP

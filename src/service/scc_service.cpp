#include "service/scc_service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/ecl_scc.hpp"
#include "core/registry.hpp"
#include "core/verify.hpp"
#include "fleet/sharded_scc.hpp"
#include "support/timer.hpp"

namespace ecl::service {
namespace {

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::shared_ptr<const dynamic::LabelSnapshot> snapshot_from_result(std::uint64_t epoch,
                                                                   const scc::SccResult& result) {
  auto snap = std::make_shared<dynamic::LabelSnapshot>();
  snap->epoch = epoch;
  snap->num_components = result.num_components;
  snap->labels = result.labels;
  return snap;
}

}  // namespace

SccService::SccService(const Digraph& g, ServiceConfig config) : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.backends.empty()) config_.backends = {"tarjan"};
  engine_ = std::make_unique<dynamic::DynamicScc>(g, config_.dynamic);
  queue_ = std::make_unique<AdmissionQueue<std::unique_ptr<Pending>>>(config_.queue_capacity);
  overload_threshold_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.overload_fraction *
                                  static_cast<double>(config_.queue_capacity)));
  health_ = std::make_unique<BackendHealthRegistry>(config_.backends, config_.health);
  if (config_.pool_devices > 0) {
    // Fleet mode: one shared pool instead of a device per worker. The pool
    // gets the same health tuning, so device quarantine behaves like
    // backend quarantine.
    fleet::DevicePoolConfig pool_config;
    pool_config.devices = config_.pool_devices;
    pool_config.profile = config_.device_profile;
    pool_config.thread_budget = config_.pool_thread_budget;
    pool_config.fault_plans = config_.pool_fault_plans;
    pool_config.health = config_.health;
    pool_ = std::make_unique<fleet::DevicePool>(std::move(pool_config));
    router_ = std::make_unique<fleet::GraphRouter>(*pool_);
  }
  cached_snapshot_ = engine_->snapshot();  // epoch-0 answer for the stale tier
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

SccService::~SccService() { shutdown(); }

void SccService::shutdown() {
  std::lock_guard lock(shutdown_mutex_);
  if (stopped_.exchange(true)) return;
  queue_->shutdown();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

std::future<Response> SccService::submit(Request request) {
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->enqueued_at = ServiceClock::now();
  pending->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::future<Response> future = pending->promise.get_future();
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);

  // try_push only consumes the item when it is accepted; on rejection we
  // still own it and resolve the future inline with the structured outcome.
  const AdmitResult admit = queue_->try_push(std::move(pending));
  if (admit != AdmitResult::kAccepted) {
    Response response;
    if (admit == AdmitResult::kQueueFull) {
      response.status = ServiceStatus::kRejectedQueueFull;
      response.message = "admission queue at capacity";
      stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
    } else {
      response.status = ServiceStatus::kRejectedShuttingDown;
      response.message = "service is shutting down";
      stats_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    }
    response.completed_at = ServiceClock::now();
    pending->promise.set_value(std::move(response));
  }
  return future;
}

Response SccService::call(Request request) { return submit(std::move(request)).get(); }

ServiceStats SccService::stats() const {
  ServiceStats s;
  s.submitted = stats_.submitted.load(std::memory_order_relaxed);
  s.rejected_queue_full = stats_.rejected_queue_full.load(std::memory_order_relaxed);
  s.rejected_shutdown = stats_.rejected_shutdown.load(std::memory_order_relaxed);
  s.served_fresh = stats_.served_fresh.load(std::memory_order_relaxed);
  s.served_stale = stats_.served_stale.load(std::memory_order_relaxed);
  s.served_serial = stats_.served_serial.load(std::memory_order_relaxed);
  s.deadline_exceeded = stats_.deadline_exceeded.load(std::memory_order_relaxed);
  s.unavailable = stats_.unavailable.load(std::memory_order_relaxed);
  s.invalid = stats_.invalid.load(std::memory_order_relaxed);
  s.fresh_attempts = stats_.fresh_attempts.load(std::memory_order_relaxed);
  s.backend_failures = stats_.backend_failures.load(std::memory_order_relaxed);
  s.breaker_skips = stats_.breaker_skips.load(std::memory_order_relaxed);
  s.overload_sheds = stats_.overload_sheds.load(std::memory_order_relaxed);
  return s;
}

std::vector<BackendHealthSnapshot> SccService::backend_health() const {
  return health_->snapshot();
}

RecoveryStats SccService::recovery_stats() const {
  RecoveryStats r;
  r.checkpoints_taken = stats_.checkpoints_taken.load(std::memory_order_relaxed);
  r.resumes = stats_.resumes.load(std::memory_order_relaxed);
  r.rounds_replayed = stats_.rounds_replayed.load(std::memory_order_relaxed);
  r.certifications = stats_.certifications.load(std::memory_order_relaxed);
  r.certification_failures = stats_.certification_failures.load(std::memory_order_relaxed);
  r.certify_seconds =
      static_cast<double>(stats_.certify_micros.load(std::memory_order_relaxed)) * 1e-6;
  r.quarantines = health_->quarantines();
  r.probations = health_->probations();
  r.readmissions = health_->readmissions();
  r.failovers = stats_.failovers.load(std::memory_order_relaxed);
  r.shards_rehomed = stats_.shards_rehomed.load(std::memory_order_relaxed);
  r.stragglers_flagged = stats_.stragglers_flagged.load(std::memory_order_relaxed);
  r.straggler_migrations = stats_.straggler_migrations.load(std::memory_order_relaxed);
  r.chains_collapsed = stats_.chains_collapsed.load(std::memory_order_relaxed);
  r.chain_steps = stats_.chain_steps.load(std::memory_order_relaxed);
  r.max_chain_len = stats_.max_chain_len.load(std::memory_order_relaxed);
  r.hashbag_rounds = stats_.hashbag_rounds.load(std::memory_order_relaxed);
  return r;
}

void SccService::fold_highdiameter_stats(const scc::SccMetrics& metrics) {
  stats_.chains_collapsed.fetch_add(metrics.chains_collapsed, std::memory_order_relaxed);
  stats_.chain_steps.fetch_add(metrics.chain_steps, std::memory_order_relaxed);
  stats_.hashbag_rounds.fetch_add(metrics.hashbag_rounds, std::memory_order_relaxed);
  // Monotone max via CAS: concurrent workers may fold at once.
  std::uint64_t seen = stats_.max_chain_len.load(std::memory_order_relaxed);
  while (metrics.max_chain_len > seen &&
         !stats_.max_chain_len.compare_exchange_weak(seen, metrics.max_chain_len,
                                                     std::memory_order_relaxed)) {
  }
}

void SccService::worker_loop() {
  // Legacy topology: each worker owns its own virtual device (launch is not
  // re-entrant across threads, and a per-worker device also gives every
  // worker the same chaos plan independently). Pool mode replaces this with
  // shared devices, taken only by the work that runs on them: try_fresh
  // leases one, try_sharded takes them all.
  std::optional<device::Device> own;
  if (!pool_) own.emplace(config_.device_profile, config_.device_workers);
  while (auto item = queue_->pop()) {
    Pending& pending = **item;
    pending.promise.set_value(process(pending, own ? &*own : nullptr));
  }
  if (!own) return;  // pool devices outlive workers; stats stay live
  // Fold this worker's device launch statistics (including the per-block
  // edge-work histogram, DESIGN.md §11) into the service-wide aggregate so
  // tools can report scheduling imbalance after shutdown.
  std::lock_guard lock(device_stats_mutex_);
  const device::LaunchStats& s = own->stats();
  fleet::merge_launch_stats(device_stats_, s);
}

device::LaunchStats SccService::device_stats() const {
  device::LaunchStats total;
  {
    std::lock_guard lock(device_stats_mutex_);
    total = device_stats_;
  }
  if (pool_) {
    // Each device's stats are read under its guard so an in-flight launch
    // on another worker cannot race the snapshot.
    for (std::size_t i = 0; i < pool_->size(); ++i) {
      const auto guard = pool_->acquire(i);
      fleet::merge_launch_stats(total, pool_->at(i).stats());
    }
  }
  return total;
}

std::vector<std::pair<std::string, device::LaunchStats>> SccService::pool_device_stats() const {
  std::vector<std::pair<std::string, device::LaunchStats>> per_device;
  if (!pool_) return per_device;
  per_device.reserve(pool_->size());
  for (std::size_t i = 0; i < pool_->size(); ++i) {
    const auto guard = pool_->acquire(i);
    per_device.emplace_back(pool_->names()[i], pool_->at(i).stats());
  }
  return per_device;
}

Response SccService::process(Pending& pending, device::Device* own) {
  Response response;
  response.served_by.queue_seconds =
      std::chrono::duration<double>(ServiceClock::now() - pending.enqueued_at).count();

  const Request& request = pending.request;
  if (request.has_deadline() && ServiceClock::now() >= request.deadline) {
    response.status = ServiceStatus::kDeadlineExceeded;
    response.message = "deadline expired while queued";
    finalize(request, response);
    return response;
  }

  Timer compute;
  try {
    switch (request.kind) {
      case RequestKind::kSccLabels: serve_labels(pending, own, response); break;
      case RequestKind::kCondensation: serve_condensation(response); break;
      case RequestKind::kReachabilityQuery: serve_reachability(pending, response); break;
      case RequestKind::kUpdateBatch: serve_update_batch(pending, response); break;
    }
  } catch (const std::out_of_range& e) {
    response.status = ServiceStatus::kInvalidRequest;
    response.message = e.what();
  } catch (const std::exception& e) {
    response.status = ServiceStatus::kUnavailable;
    response.message = e.what();
  }
  response.served_by.compute_seconds = compute.seconds();
  finalize(request, response);
  return response;
}

void SccService::serve_labels(Pending& pending, device::Device* own, Response& response) {
  const Request& request = pending.request;
  ServedBy& sb = response.served_by;

  const bool overloaded = queue_->size() >= overload_threshold_;
  if (overloaded) stats_.overload_sheds.fetch_add(1, std::memory_order_relaxed);

  // Capacity mode first: shards > 1 spreads the fixpoint across the whole
  // pool. A failed sharded attempt falls through to the per-device backend
  // chain, then the degradation ladder — the tiers compose.
  if (!overloaded && pool_ && config_.shards > 1 && try_sharded(pending, response)) return;
  if (!overloaded && try_fresh(pending, own, response)) return;

  const bool expired = request.has_deadline() && ServiceClock::now() >= request.deadline;
  if (!config_.enable_degradation) {
    response.status =
        expired ? ServiceStatus::kDeadlineExceeded : ServiceStatus::kUnavailable;
    response.message = "fresh compute failed and degradation is disabled";
    return;
  }

  // Tier 2: epoch-stamped stale snapshot, if the client's budget covers it.
  if (!expired) {
    auto snap = cached_snapshot();
    const std::uint64_t current = engine_->epoch();
    const std::uint64_t delta = current - std::min(current, snap->epoch);
    if (delta <= request.staleness_budget) {
      response.labels = snap;
      response.num_components = snap->num_components;
      sb.tier = Tier::kStaleSnapshot;
      sb.backend = "snapshot";
      sb.epoch = snap->epoch;
      sb.staleness_epochs = delta;
      // Snapshots are only cached from certified results (or the engine's
      // own maintained labeling), so this answer inherits certification.
      sb.certified = true;
      response.status = ServiceStatus::kOk;
      return;
    }
  }

  // Tier 3: exact serial recompute, bypassing breakers (Tarjan needs no
  // device and cannot stall; it is only "degraded" in the latency sense).
  // Its labeling still passes the certificate before it is served — the
  // no-uncertified-results invariant has no exceptions.
  if (!(request.has_deadline() && ServiceClock::now() >= request.deadline)) {
    auto [g, epoch] = engine_->graph_with_epoch();
    const scc::SccResult serial = request.has_deadline()
                                      ? scc::run_with_deadline("tarjan", g, request.deadline)
                                      : scc::run_algorithm("tarjan", g);
    if (serial.ok() && certify_for_serving(g, epoch, serial, sb)) {
      auto snap = snapshot_from_result(epoch, serial);
      store_cached_snapshot(snap);
      response.labels = std::move(snap);
      response.num_components = serial.num_components;
      sb.tier = Tier::kSerialFallback;
      sb.backend = "tarjan";
      sb.epoch = epoch;
      const std::uint64_t current = engine_->epoch();
      sb.staleness_epochs = current - std::min(current, epoch);
      response.status = ServiceStatus::kOk;
      return;
    }
  }

  const bool expired_now = request.has_deadline() && ServiceClock::now() >= request.deadline;
  response.status =
      expired_now ? ServiceStatus::kDeadlineExceeded : ServiceStatus::kUnavailable;
  response.message = "every tier of the degradation ladder failed";
}

void SccService::serve_condensation(Response& response) {
  const std::uint64_t epoch = engine_->epoch();
  response.condensation = engine_->condensation_graph();
  response.num_components = response.condensation.num_vertices();
  response.served_by.tier = Tier::kFresh;
  response.served_by.backend = "dynamic";
  response.served_by.epoch = epoch;
  response.status = ServiceStatus::kOk;
}

void SccService::serve_reachability(Pending& pending, Response& response) {
  const Request& request = pending.request;
  ServedBy& sb = response.served_by;
  if (request.u >= engine_->num_vertices() || request.v >= engine_->num_vertices())
    throw std::out_of_range("reachability query: vertex ID out of range");

  // Same-SCC queries are O(1) against a snapshot; under overload serve the
  // held (possibly stale) one when the budget allows, else the live view.
  const bool overloaded = queue_->size() >= overload_threshold_;
  if (overloaded && config_.enable_degradation) {
    auto snap = cached_snapshot();
    const std::uint64_t current = engine_->epoch();
    const std::uint64_t delta = current - std::min(current, snap->epoch);
    if (delta <= request.staleness_budget) {
      response.reachable = snap->same_scc(request.u, request.v);
      sb.tier = Tier::kStaleSnapshot;
      sb.backend = "snapshot";
      sb.epoch = snap->epoch;
      sb.staleness_epochs = delta;
      response.status = ServiceStatus::kOk;
      return;
    }
  }
  auto live = engine_->snapshot();
  response.reachable = live->same_scc(request.u, request.v);
  sb.tier = Tier::kFresh;
  sb.backend = "dynamic";
  sb.epoch = live->epoch;
  response.status = ServiceStatus::kOk;
}

void SccService::serve_update_batch(Pending& pending, Response& response) {
  response.updates_applied = engine_->apply_batch(pending.request.updates);
  response.served_by.tier = Tier::kFresh;
  response.served_by.backend = "dynamic";
  response.served_by.epoch = engine_->epoch();
  response.status = ServiceStatus::kOk;
}

bool SccService::try_fresh(Pending& pending, device::Device* own, Response& response) {
  const Request& request = pending.request;
  ServedBy& sb = response.served_by;

  // Pool mode: the first device-backed attempt leases the least-loaded
  // admitted device, weighted by graph size, for the rest of the request.
  // The lease spends the probe of a device in probation, and every
  // device-backed outcome below is recorded against it.
  fleet::GraphRouter::Lease lease;

  // Decorrelated, reproducible jitter stream per request.
  std::uint64_t seed_state = config_.seed ^ (pending.id * 0x9e3779b97f4a7c15ULL);
  Rng rng(splitmix64(seed_state));

  std::size_t attempts = 0;
  while (attempts < config_.max_attempts) {
    bool routed_any = false;
    for (std::size_t b = 0; b < config_.backends.size() && attempts < config_.max_attempts;
         ++b) {
      const std::string& backend = config_.backends[b];
      const double remaining = remaining_seconds(request);
      if (remaining <= 0.0) return false;

      if (config_.enable_breakers && !health_->allow(b)) {
        ++sb.breaker_skips;
        stats_.breaker_skips.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      routed_any = true;
      ++attempts;
      ++sb.attempts;
      stats_.fresh_attempts.fetch_add(1, std::memory_order_relaxed);

      auto [graph, epoch] = current_graph();
      const bool device_backed = scc::algorithm_uses_device(backend);
      // The ECL configurations solve from the epoch's prepared input, built
      // by the epoch's first ECL attempt before any device is taken.
      const std::shared_ptr<const scc::EclInput> input =
          scc::algorithm_reads_ecl_input(backend) ? epoch_ecl_input(*graph, epoch) : nullptr;
      scc::SccResult result;
      {
        // Pool devices are shared across workers and launch is not
        // re-entrant: hold the leased device's guard for the run. Backends
        // that never touch the device (tarjan, ecl-omp) take neither.
        device::Device* dev = own;
        std::unique_lock<std::mutex> device_guard;
        if (pool_ && device_backed) {
          if (!lease.valid())
            lease = router_->place(std::max<std::uint64_t>(1, graph->num_vertices()));
          dev = &lease.device();
          device_guard = pool_->acquire(lease.device_index());
        }
        if (request.has_deadline()) {
          // Hedged slice of the remaining budget: a stalled backend must not
          // starve the ladder's later tiers.
          const double slice = remaining * config_.attempt_deadline_fraction;
          result = scc::run_with_deadline(backend, *graph,
                                          ServiceClock::now() + to_duration(slice), dev,
                                          input.get());
        } else {
          try {
            result = dev != nullptr ? scc::run_algorithm_on(backend, *graph, *dev, input.get())
                                    : scc::run_algorithm(backend, *graph);
          } catch (const std::exception& e) {
            result = scc::SccResult{};
            result.error = {scc::SccStatus::kException, e.what()};
          }
        }
      }

      // Solver-level self-healing accounting travels with every attempt,
      // successful or not.
      stats_.checkpoints_taken.fetch_add(result.metrics.checkpoints_taken,
                                         std::memory_order_relaxed);
      stats_.resumes.fetch_add(result.metrics.resumes, std::memory_order_relaxed);
      stats_.rounds_replayed.fetch_add(result.metrics.rounds_replayed,
                                       std::memory_order_relaxed);
      fold_highdiameter_stats(result.metrics);

      // Certification gate: an ok-looking labeling that fails the
      // certificate is a SILENT corruption — scored as its own fault kind,
      // never served, and the chain continues.
      bool success = result.ok();
      FaultKind fault = fault_kind_from_status(result.error.code);
      if (success && !certify_for_serving(*graph, epoch, result, sb)) {
        success = false;
        fault = FaultKind::kCertification;
      }
      if (config_.enable_breakers)
        health_->record(b, success ? FaultKind::kNone : fault);
      // Pool mode scores the HARDWARE separately from the algorithm: a
      // device-backed outcome feeds the leased device's health entry, so a
      // flaky device is quarantined (and routed around) without tainting
      // the backend's score on its healthy peers.
      if (pool_ && device_backed)
        pool_->record(lease.device_index(), success ? FaultKind::kNone : fault);
      if (success) {
        sb.resumes += result.metrics.resumes;
        auto snap = snapshot_from_result(epoch, result);
        store_cached_snapshot(snap);
        response.labels = std::move(snap);
        response.num_components = result.num_components;
        sb.tier = Tier::kFresh;
        sb.backend = backend;
        sb.epoch = epoch;
        const std::uint64_t current = engine_->epoch();
        sb.staleness_epochs = current - std::min(current, epoch);
        response.status = ServiceStatus::kOk;
        return true;
      }
      stats_.backend_failures.fetch_add(1, std::memory_order_relaxed);

      double delay = config_.backoff.delay_seconds(attempts - 1, rng);
      if (request.has_deadline())
        delay = std::min(delay, remaining_seconds(request) * 0.25);
      if (delay > 0.0) std::this_thread::sleep_for(to_duration(delay));
    }
    if (!routed_any) return false;  // every breaker open: degrade immediately
  }
  return false;
}

bool SccService::try_sharded(Pending& pending, Response& response) {
  const Request& request = pending.request;
  ServedBy& sb = response.served_by;
  auto [graph, epoch] = current_graph();

  fleet::ShardedOptions sopts;
  sopts.shards = config_.shards;
  sopts.certify = config_.enable_certification;
  if (request.has_deadline()) sopts.ecl.watchdog.deadline = request.deadline;
  // Satellite fix: the stitched certificate (and every ladder rung behind
  // it) shares the service's per-epoch reverse adjacency — the reverse is
  // built once per graph epoch, never per shard or per certification.
  std::shared_ptr<const Digraph> reverse;
  if (config_.enable_certification) {
    reverse = epoch_reverse(*graph, epoch);
    sopts.reverse_hint = reverse.get();
  }

  ++sb.attempts;
  stats_.fresh_attempts.fetch_add(1, std::memory_order_relaxed);

  scc::SccResult result;
  {
    // The sharded coordinator launches on every pool device from its own
    // threads: take the whole pool (fixed index order, so concurrent
    // whole-graph leases cannot deadlock against it).
    const auto guards = pool_->acquire_all();
    result = fleet::sharded_scc(*graph, *pool_, sopts);
  }

  // Fleet self-healing accounting (DESIGN.md §14) — recorded whether or not
  // the run ends up servable: a failover that was survived but still lost
  // the ladder is operationally interesting.
  stats_.checkpoints_taken.fetch_add(result.metrics.checkpoints_taken,
                                     std::memory_order_relaxed);
  stats_.resumes.fetch_add(result.metrics.resumes, std::memory_order_relaxed);
  stats_.rounds_replayed.fetch_add(result.metrics.rounds_replayed, std::memory_order_relaxed);
  stats_.failovers.fetch_add(result.metrics.failovers, std::memory_order_relaxed);
  stats_.shards_rehomed.fetch_add(result.metrics.shards_rehomed, std::memory_order_relaxed);
  stats_.stragglers_flagged.fetch_add(result.metrics.stragglers_flagged,
                                      std::memory_order_relaxed);
  stats_.straggler_migrations.fetch_add(result.metrics.straggler_migrations,
                                        std::memory_order_relaxed);
  fold_highdiameter_stats(result.metrics);
  sb.resumes += result.metrics.resumes;
  sb.failovers += result.metrics.failovers;
  sb.stragglers += result.metrics.stragglers_flagged;

  if (config_.enable_certification) {
    stats_.certifications.fetch_add(1 + result.metrics.fresh_reruns,
                                    std::memory_order_relaxed);
    stats_.certify_micros.fetch_add(
        static_cast<std::uint64_t>(result.metrics.certify_seconds * 1e6),
        std::memory_order_relaxed);
    sb.certify_seconds += result.metrics.certify_seconds;
  }

  // sharded_scc always returns complete labels, but the serving bar is the
  // usual one: certified (or plainly ok when certification is off).
  const bool servable =
      config_.enable_certification ? result.metrics.certified : result.ok();
  if (!servable) {
    stats_.backend_failures.fetch_add(1, std::memory_order_relaxed);
    if (config_.enable_certification) {
      ++sb.certify_failures;
      stats_.certification_failures.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  sb.certified = result.metrics.certified;
  auto snap = snapshot_from_result(epoch, result);
  store_cached_snapshot(snap);
  response.labels = std::move(snap);
  response.num_components = result.num_components;
  sb.tier = Tier::kFresh;
  sb.backend = "sharded";
  sb.epoch = epoch;
  const std::uint64_t current = engine_->epoch();
  sb.staleness_epochs = current - std::min(current, epoch);
  response.status = ServiceStatus::kOk;
  return true;
}

bool SccService::certify_for_serving(const Digraph& g, std::uint64_t epoch,
                                     const scc::SccResult& result, ServedBy& sb) {
  if (!config_.enable_certification) return true;
  // The reverse adjacency is labeling-independent, so all certifications of
  // the same graph epoch share one build via the cache.
  const std::shared_ptr<const Digraph> rev = epoch_reverse(g, epoch);
  scc::CertifyOptions opts;
  opts.reverse_hint = rev.get();
  const scc::CertifyReport cert = scc::certify_scc(g, result.labels, opts);
  sb.certify_seconds += cert.seconds;
  stats_.certifications.fetch_add(1, std::memory_order_relaxed);
  stats_.certify_micros.fetch_add(static_cast<std::uint64_t>(cert.seconds * 1e6),
                                  std::memory_order_relaxed);
  if (cert.ok) {
    sb.certified = true;
    return true;
  }
  ++sb.certify_failures;
  stats_.certification_failures.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SccService::finalize(const Request& request, Response& response) {
  response.completed_at = ServiceClock::now();
  // The pipeline invariant: a successful response is never delivered after
  // its deadline, no matter which tier produced it.
  if (response.ok() && request.has_deadline() && response.completed_at > request.deadline) {
    response.status = ServiceStatus::kDeadlineExceeded;
    response.message = "answer was ready after the deadline";
  }
  switch (response.status) {
    case ServiceStatus::kOk:
      switch (response.served_by.tier) {
        case Tier::kStaleSnapshot:
          stats_.served_stale.fetch_add(1, std::memory_order_relaxed);
          break;
        case Tier::kSerialFallback:
          stats_.served_serial.fetch_add(1, std::memory_order_relaxed);
          break;
        default: stats_.served_fresh.fetch_add(1, std::memory_order_relaxed); break;
      }
      break;
    case ServiceStatus::kDeadlineExceeded:
      stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServiceStatus::kUnavailable:
      stats_.unavailable.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServiceStatus::kInvalidRequest:
      stats_.invalid.fetch_add(1, std::memory_order_relaxed);
      break;
    default: break;  // rejections are counted at admission
  }
}

std::shared_ptr<const dynamic::LabelSnapshot> SccService::cached_snapshot() const {
  std::lock_guard lock(cache_mutex_);
  return cached_snapshot_;
}

void SccService::store_cached_snapshot(std::shared_ptr<const dynamic::LabelSnapshot> snap) {
  std::lock_guard lock(cache_mutex_);
  // Only move the cache forward; a slow worker must not roll it back.
  if (!cached_snapshot_ || snap->epoch >= cached_snapshot_->epoch)
    cached_snapshot_ = std::move(snap);
}

std::pair<std::shared_ptr<const Digraph>, std::uint64_t> SccService::current_graph() {
  const std::uint64_t epoch = engine_->epoch();
  {
    std::lock_guard lock(cache_mutex_);
    if (graph_cache_ && graph_cache_epoch_ == epoch) return {graph_cache_, epoch};
  }
  auto [graph, actual_epoch] = engine_->graph_with_epoch();
  auto shared = std::make_shared<const Digraph>(std::move(graph));
  {
    std::lock_guard lock(cache_mutex_);
    if (!graph_cache_ || actual_epoch >= graph_cache_epoch_) {
      graph_cache_ = shared;
      graph_cache_epoch_ = actual_epoch;
    }
  }
  return {shared, actual_epoch};
}

template <typename T, typename Build>
std::shared_ptr<const T> SccService::epoch_prep(std::shared_ptr<const T> EpochPrep::*field,
                                                std::uint64_t epoch, Build build) {
  {
    std::lock_guard lock(cache_mutex_);
    if (prep_.epoch == epoch && prep_.*field) return prep_.*field;
  }
  // Built outside the lock: a reverse or a permuted CSR of a big graph is
  // an O(V+E) pass and must not serialize the whole worker pool behind
  // cache_mutex_.
  std::shared_ptr<const T> value = build();
  std::lock_guard lock(cache_mutex_);
  // Only move the slot forward; a slow worker must not roll it back.
  if (epoch > prep_.epoch) prep_ = EpochPrep{epoch, nullptr, nullptr};
  if (epoch == prep_.epoch) {
    if (prep_.*field) return prep_.*field;  // a concurrent build was stored first
    prep_.*field = value;
  }
  return value;
}

std::shared_ptr<const Digraph> SccService::epoch_reverse(const Digraph& g, std::uint64_t epoch) {
  return epoch_prep(&EpochPrep::reverse, epoch,
                    [&g] { return std::make_shared<const Digraph>(g.reverse()); });
}

std::shared_ptr<const scc::EclInput> SccService::epoch_ecl_input(const Digraph& g,
                                                                std::uint64_t epoch) {
  return epoch_prep(&EpochPrep::ecl, epoch, [&] {
    return std::make_shared<const scc::EclInput>(
        scc::prepare_ecl_input(g, epoch_reverse(g, epoch)));
  });
}

double SccService::remaining_seconds(const Request& request) const {
  if (!request.has_deadline()) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(request.deadline - ServiceClock::now()).count();
}

}  // namespace ecl::service

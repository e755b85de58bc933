#ifndef ECL_SERVICE_HEALTH_REGISTRY_HPP
#define ECL_SERVICE_HEALTH_REGISTRY_HPP

// Health-scored backend quarantine (DESIGN.md §12).
//
// A weighted circuit breaker per backend: instead of a boolean
// failure-rate window, each backend accumulates a sliding window of
// WEIGHTED outcomes drawn from the structured fault taxonomy (stall,
// overflow, certification failure, deadline, exception). When the weighted
// score crosses the threshold the backend is quarantined — it stops
// receiving traffic — and is re-admitted through a bounded probation:
// after a cool-down (escalating for repeat offenders) a limited number of
// probe requests are let through; a certified success restores the backend
// to healthy, a fault re-quarantines it with a longer cool-down.
//
// Weighting is what the taxonomy buys over a plain breaker: a
// certification failure means the backend returned a WRONG answer that
// claimed to be right — silent corruption — and is scored heavier than a
// stall, which is loud, self-reported, and often transient. With all
// weights at 1.0 the trip condition is the classic closed / open /
// half-open breaker's failure-rate rule (healthy / quarantined /
// probation here), tuned by CircuitBreakerConfig.
//
// All methods take an explicit time point so unit tests are deterministic;
// production callers pass ServiceClock::now().

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/result.hpp"

namespace ecl::service {

/// Window, trip threshold, cool-down, and probe tuning shared by every
/// backend's health entry (the breaker vocabulary).
struct CircuitBreakerConfig {
  std::size_t window = 16;           ///< outcomes kept in the sliding window
  std::size_t min_samples = 4;       ///< outcomes required before tripping
  double failure_threshold = 0.5;    ///< failure rate in the window that opens
  double cooldown_seconds = 0.25;    ///< open duration before a half-open probe
  std::size_t half_open_probes = 1;  ///< probes admitted while half-open
};

/// Structured fault taxonomy the health score is computed over.
enum class FaultKind : std::uint8_t {
  kNone = 0,        ///< success (certified, on time)
  kStall,           ///< watchdog: fixpoint made no progress
  kOverflow,        ///< worklist overflow
  kCertification,   ///< result failed the online certificate (silent corruption)
  kDeadline,        ///< attempt deadline expired
  kException,       ///< backend threw
  kOther,           ///< remaining SccStatus codes (guard, verify, ...)
  kStraggler,       ///< fleet coordinator: sweeps persistently slower than
                    ///< the shard median (suspect hardware, not yet faulty)
};
inline constexpr std::size_t kNumFaultKinds = 8;

const char* fault_kind_name(FaultKind kind);

/// Maps a structured solver error onto the taxonomy.
FaultKind fault_kind_from_status(scc::SccStatus status);

struct HealthConfig {
  /// Window size, minimum samples, trip threshold, cool-down, and probe
  /// count, in the breaker vocabulary (see the note above).
  CircuitBreakerConfig breaker;
  /// Per-fault-kind weights (indexed by FaultKind; kNone is ignored). A
  /// weight of 2.0 makes one such fault count as two plain failures.
  double weights[kNumFaultKinds] = {
      0.0,  // kNone
      1.0,  // kStall
      1.0,  // kOverflow
      2.0,  // kCertification: wrong answers outweigh loud failures
      1.0,  // kDeadline
      1.0,  // kException
      1.0,  // kOther
      0.5,  // kStraggler: slow is suspicious, not yet wrong or stuck
  };
  /// Every consecutive re-quarantine multiplies the backend's cool-down by
  /// this factor (a flapping backend earns longer time-outs), capped below.
  double quarantine_backoff = 2.0;
  double max_cooldown_seconds = 4.0;
};

enum class BackendHealth : std::uint8_t { kHealthy = 0, kQuarantined, kProbation };

const char* backend_health_name(BackendHealth health);

/// Point-in-time view of one backend's health (observability).
struct BackendHealthSnapshot {
  std::string name;
  BackendHealth health = BackendHealth::kHealthy;
  double score = 0.0;       ///< weighted fault score over the current window
  std::size_t samples = 0;  ///< outcomes currently in the window
  std::uint64_t quarantines = 0;       ///< healthy/probation -> quarantined transitions
  std::uint64_t probations = 0;        ///< quarantined -> probation transitions
  std::uint64_t readmissions = 0;      ///< probation -> healthy transitions
  std::uint64_t faults[kNumFaultKinds] = {};  ///< lifetime outcome counts by kind
};

/// Thread-safe registry of backend health; one entry per configured backend,
/// indexed in the order the backend list was given.
class BackendHealthRegistry {
 public:
  using Clock = std::chrono::steady_clock;

  BackendHealthRegistry(std::vector<std::string> backends, HealthConfig config = {});

  std::size_t size() const noexcept { return entries_.size(); }

  /// True when a request may be routed to this backend right now. A
  /// quarantined backend whose cool-down has elapsed transitions to
  /// probation and admits up to half_open_probes callers.
  bool allow(std::size_t backend, Clock::time_point now = Clock::now());

  /// True when allow() would admit a request right now (a healthy backend,
  /// or one in probation whose probe is still unissued), without issuing
  /// the probe. A scan that picks one of several backends asks this, and
  /// calls allow() only on the backend it picks.
  bool admits(std::size_t backend, Clock::time_point now = Clock::now()) const;

  /// Outcome feedback from a routed request. kNone is a success; anything
  /// else contributes its taxonomy weight to the backend's window score.
  void record(std::size_t backend, FaultKind kind, Clock::time_point now = Clock::now());

  BackendHealth health(std::size_t backend, Clock::time_point now = Clock::now()) const;

  std::vector<BackendHealthSnapshot> snapshot(Clock::time_point now = Clock::now()) const;

  /// Aggregate transition counters across all backends.
  std::uint64_t quarantines() const;
  std::uint64_t probations() const;
  std::uint64_t readmissions() const;

  const HealthConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    std::string name;
    mutable std::mutex mutex;
    mutable BackendHealth health = BackendHealth::kHealthy;
    mutable std::size_t probes_issued = 0;  ///< probation probes admitted so far
    Clock::time_point quarantined_at{};
    unsigned consecutive_quarantines = 0;  ///< cool-down escalation level
    std::vector<double> window;            ///< ring of outcome weights
    std::size_t window_pos = 0;
    std::size_t window_count = 0;
    double window_score = 0.0;
    std::uint64_t quarantines = 0;
    mutable std::uint64_t probations = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t faults[kNumFaultKinds] = {};
  };

  double cooldown_seconds(const Entry& e) const;
  /// Applies the quarantined -> probation cool-down transition; callers
  /// hold e.mutex.
  void refresh_locked(const Entry& e, Clock::time_point now) const;
  /// The admission rule shared by allow() and admits(); callers hold
  /// e.mutex and have refreshed e.
  bool admits_locked(const Entry& e) const;

  HealthConfig config_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace ecl::service

#endif  // ECL_SERVICE_HEALTH_REGISTRY_HPP

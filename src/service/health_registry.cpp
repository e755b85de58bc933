#include "service/health_registry.hpp"

#include <algorithm>

namespace ecl::service {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kStall: return "stall";
    case FaultKind::kOverflow: return "overflow";
    case FaultKind::kCertification: return "certification";
    case FaultKind::kDeadline: return "deadline";
    case FaultKind::kException: return "exception";
    case FaultKind::kOther: return "other";
    case FaultKind::kStraggler: return "straggler";
  }
  return "unknown";
}

FaultKind fault_kind_from_status(scc::SccStatus status) {
  switch (status) {
    case scc::SccStatus::kOk: return FaultKind::kNone;
    case scc::SccStatus::kStalled: return FaultKind::kStall;
    case scc::SccStatus::kWorklistOverflow: return FaultKind::kOverflow;
    case scc::SccStatus::kCertificationFailed: return FaultKind::kCertification;
    case scc::SccStatus::kDeadlineExceeded: return FaultKind::kDeadline;
    case scc::SccStatus::kException: return FaultKind::kException;
    case scc::SccStatus::kIterationGuard:
    case scc::SccStatus::kVerifyFailed: return FaultKind::kOther;
  }
  return FaultKind::kOther;
}

const char* backend_health_name(BackendHealth health) {
  switch (health) {
    case BackendHealth::kHealthy: return "healthy";
    case BackendHealth::kQuarantined: return "quarantined";
    case BackendHealth::kProbation: return "probation";
  }
  return "unknown";
}

BackendHealthRegistry::BackendHealthRegistry(std::vector<std::string> backends,
                                             HealthConfig config)
    : config_(config) {
  config_.breaker.window = std::max<std::size_t>(1, config_.breaker.window);
  config_.breaker.min_samples = std::max<std::size_t>(
      1, std::min(config_.breaker.min_samples, config_.breaker.window));
  config_.breaker.half_open_probes = std::max<std::size_t>(1, config_.breaker.half_open_probes);
  config_.quarantine_backoff = std::max(1.0, config_.quarantine_backoff);
  entries_.reserve(backends.size());
  for (auto& name : backends) {
    auto entry = std::make_unique<Entry>();
    entry->name = std::move(name);
    entry->window.assign(config_.breaker.window, 0.0);
    entries_.push_back(std::move(entry));
  }
}

double BackendHealthRegistry::cooldown_seconds(const Entry& e) const {
  double cooldown = config_.breaker.cooldown_seconds;
  for (unsigned i = 1; i < e.consecutive_quarantines && cooldown < config_.max_cooldown_seconds;
       ++i)
    cooldown *= config_.quarantine_backoff;
  return std::min(cooldown, config_.max_cooldown_seconds);
}

void BackendHealthRegistry::refresh_locked(const Entry& e, Clock::time_point now) const {
  if (e.health != BackendHealth::kQuarantined) return;
  const auto cooldown = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cooldown_seconds(e)));
  if (now - e.quarantined_at >= cooldown) {
    e.health = BackendHealth::kProbation;
    e.probes_issued = 0;
    ++e.probations;
  }
}

bool BackendHealthRegistry::admits_locked(const Entry& e) const {
  return e.health == BackendHealth::kHealthy ||
         (e.health == BackendHealth::kProbation &&
          e.probes_issued < config_.breaker.half_open_probes);
}

bool BackendHealthRegistry::allow(std::size_t backend, Clock::time_point now) {
  Entry& e = *entries_.at(backend);
  std::lock_guard lock(e.mutex);
  refresh_locked(e, now);
  if (!admits_locked(e)) return false;
  if (e.health == BackendHealth::kProbation) ++e.probes_issued;
  return true;
}

bool BackendHealthRegistry::admits(std::size_t backend, Clock::time_point now) const {
  const Entry& e = *entries_.at(backend);
  std::lock_guard lock(e.mutex);
  refresh_locked(e, now);
  return admits_locked(e);
}

void BackendHealthRegistry::record(std::size_t backend, FaultKind kind, Clock::time_point now) {
  Entry& e = *entries_.at(backend);
  std::lock_guard lock(e.mutex);
  refresh_locked(e, now);
  ++e.faults[static_cast<std::size_t>(kind)];

  if (kind == FaultKind::kNone) {
    if (e.health == BackendHealth::kProbation) {
      // The probe proved the backend healthy: re-admit, forget the window
      // and the escalation level.
      e.health = BackendHealth::kHealthy;
      ++e.readmissions;
      e.consecutive_quarantines = 0;
      std::fill(e.window.begin(), e.window.end(), 0.0);
      e.window_pos = e.window_count = 0;
      e.window_score = 0.0;
      return;
    }
    if (e.health != BackendHealth::kHealthy) return;  // stray feedback while quarantined
    if (e.window_count == e.window.size())
      e.window_score -= e.window[e.window_pos];
    else
      ++e.window_count;
    e.window[e.window_pos] = 0.0;
    e.window_pos = (e.window_pos + 1) % e.window.size();
    return;
  }

  const double weight = config_.weights[static_cast<std::size_t>(kind)];
  if (e.health == BackendHealth::kProbation) {
    // The probe faulted: back to quarantine with an escalated cool-down.
    e.health = BackendHealth::kQuarantined;
    e.quarantined_at = now;
    ++e.quarantines;
    e.consecutive_quarantines =
        std::min<unsigned>(e.consecutive_quarantines + 1, 31);
    return;
  }
  if (e.health != BackendHealth::kHealthy) return;
  if (e.window_count == e.window.size())
    e.window_score -= e.window[e.window_pos];
  else
    ++e.window_count;
  e.window[e.window_pos] = weight;
  e.window_score += weight;
  e.window_pos = (e.window_pos + 1) % e.window.size();

  // Trip condition: the weighted score crosses the threshold fraction of
  // the window occupancy. With unit weights this is exactly the legacy
  // breaker's failure-rate rule.
  if (e.window_count >= config_.breaker.min_samples &&
      e.window_score >=
          config_.breaker.failure_threshold * static_cast<double>(e.window_count)) {
    e.health = BackendHealth::kQuarantined;
    e.quarantined_at = now;
    ++e.quarantines;
    e.consecutive_quarantines = std::min<unsigned>(e.consecutive_quarantines + 1, 31);
    std::fill(e.window.begin(), e.window.end(), 0.0);
    e.window_pos = e.window_count = 0;
    e.window_score = 0.0;
  }
}

BackendHealth BackendHealthRegistry::health(std::size_t backend, Clock::time_point now) const {
  const Entry& e = *entries_.at(backend);
  std::lock_guard lock(e.mutex);
  refresh_locked(e, now);
  return e.health;
}

std::vector<BackendHealthSnapshot> BackendHealthRegistry::snapshot(Clock::time_point now) const {
  std::vector<BackendHealthSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    const Entry& e = *entry;
    std::lock_guard lock(e.mutex);
    refresh_locked(e, now);
    BackendHealthSnapshot snap;
    snap.name = e.name;
    snap.health = e.health;
    snap.score = e.window_score;
    snap.samples = e.window_count;
    snap.quarantines = e.quarantines;
    snap.probations = e.probations;
    snap.readmissions = e.readmissions;
    std::copy(std::begin(e.faults), std::end(e.faults), std::begin(snap.faults));
    out.push_back(std::move(snap));
  }
  return out;
}

std::uint64_t BackendHealthRegistry::quarantines() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    std::lock_guard lock(e->mutex);
    total += e->quarantines;
  }
  return total;
}

std::uint64_t BackendHealthRegistry::probations() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    std::lock_guard lock(e->mutex);
    total += e->probations;
  }
  return total;
}

std::uint64_t BackendHealthRegistry::readmissions() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    std::lock_guard lock(e->mutex);
    total += e->readmissions;
  }
  return total;
}

}  // namespace ecl::service

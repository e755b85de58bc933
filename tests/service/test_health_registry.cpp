#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "service/health_registry.hpp"

// Health-scored backend quarantine (DESIGN.md §12). All transitions are
// driven through explicit time points, so the quarantine lifecycle —
// healthy -> quarantined -> probation -> (healthy | re-quarantined with
// escalated cool-down) — is tested deterministically.

namespace ecl::test {
namespace {

using service::BackendHealth;
using service::BackendHealthRegistry;
using service::FaultKind;
using service::HealthConfig;

using Clock = BackendHealthRegistry::Clock;
using Sec = std::chrono::duration<double>;

HealthConfig small_config() {
  HealthConfig cfg;
  cfg.breaker.window = 8;
  cfg.breaker.min_samples = 4;
  cfg.breaker.failure_threshold = 0.5;
  cfg.breaker.cooldown_seconds = 1.0;
  cfg.breaker.half_open_probes = 1;
  cfg.quarantine_backoff = 2.0;
  cfg.max_cooldown_seconds = 8.0;
  return cfg;
}

Clock::time_point t0() { return Clock::time_point{} + std::chrono::hours(1); }

TEST(HealthRegistry, StartsHealthyAndAllows) {
  BackendHealthRegistry reg({"ecl", "omp", "tarjan"}, small_config());
  ASSERT_EQ(reg.size(), 3u);
  for (std::size_t b = 0; b < reg.size(); ++b) {
    EXPECT_TRUE(reg.allow(b, t0()));
    EXPECT_EQ(reg.health(b, t0()), BackendHealth::kHealthy);
  }
}

TEST(HealthRegistry, UnitWeightsDegenerateToFailureRateRule) {
  // 2 stalls in 4 samples = rate 0.5 = threshold: trips, exactly like a
  // plain failure-rate breaker.
  BackendHealthRegistry reg({"ecl"}, small_config());
  const auto now = t0();
  reg.record(0, FaultKind::kStall, now);
  reg.record(0, FaultKind::kNone, now);
  reg.record(0, FaultKind::kNone, now);
  EXPECT_EQ(reg.health(0, now), BackendHealth::kHealthy) << "below min_samples";
  reg.record(0, FaultKind::kStall, now);
  EXPECT_EQ(reg.health(0, now), BackendHealth::kQuarantined);
  EXPECT_FALSE(reg.allow(0, now));
  EXPECT_EQ(reg.quarantines(), 1u);
}

TEST(HealthRegistry, CertificationFaultsWeighHeavier) {
  // weight(kCertification) = 2.0: ONE silent corruption among 4 samples
  // scores 2/4 = threshold and quarantines, where one stall (1/4) would
  // not — wrong answers outweigh loud failures.
  BackendHealthRegistry reg({"cert", "stall"}, small_config());
  const auto now = t0();
  for (int i = 0; i < 3; ++i) {
    reg.record(0, FaultKind::kNone, now);
    reg.record(1, FaultKind::kNone, now);
  }
  reg.record(0, FaultKind::kCertification, now);
  reg.record(1, FaultKind::kStall, now);
  EXPECT_EQ(reg.health(0, now), BackendHealth::kQuarantined);
  EXPECT_EQ(reg.health(1, now), BackendHealth::kHealthy);
}

TEST(HealthRegistry, SlidingWindowForgetsOldFaults) {
  // window = 8: old faults age out as successes displace them, so a
  // recovered backend's history stops counting against it.
  BackendHealthRegistry reg({"ecl"}, small_config());
  const auto now = t0();
  reg.record(0, FaultKind::kStall, now);
  reg.record(0, FaultKind::kStall, now);
  reg.record(0, FaultKind::kDeadline, now);
  // 3 faults so far; 3/3 would trip at min_samples — keep feeding successes.
  for (int i = 0; i < 8; ++i) reg.record(0, FaultKind::kNone, now);
  const auto snap = reg.snapshot(now);
  EXPECT_EQ(snap[0].score, 0.0) << "the full window is now successes";
  EXPECT_EQ(snap[0].health, BackendHealth::kHealthy);
  EXPECT_EQ(snap[0].faults[static_cast<std::size_t>(FaultKind::kStall)], 2u)
      << "lifetime taxonomy counts are not windowed";
}

BackendHealthRegistry quarantined_registry(Clock::time_point now) {
  BackendHealthRegistry reg({"ecl"}, small_config());
  for (int i = 0; i < 4; ++i) reg.record(0, FaultKind::kOverflow, now);
  return reg;
}

TEST(HealthRegistry, CooldownLeadsToProbationWithBoundedProbes) {
  const auto now = t0();
  auto reg = quarantined_registry(now);
  ASSERT_EQ(reg.health(0, now), BackendHealth::kQuarantined);
  // Before the cool-down elapses: still quarantined, no traffic.
  const auto early = now + std::chrono::duration_cast<Clock::duration>(Sec(0.5));
  EXPECT_FALSE(reg.allow(0, early));
  // After: probation, exactly half_open_probes (=1) probe admitted.
  const auto later = now + std::chrono::duration_cast<Clock::duration>(Sec(1.5));
  EXPECT_EQ(reg.health(0, later), BackendHealth::kProbation);
  EXPECT_TRUE(reg.allow(0, later));
  EXPECT_FALSE(reg.allow(0, later)) << "probe budget is bounded";
  EXPECT_EQ(reg.probations(), 1u);
}

TEST(HealthRegistry, CertifiedProbeSuccessReadmitsAndClearsWindow) {
  const auto now = t0();
  auto reg = quarantined_registry(now);
  const auto later = now + std::chrono::duration_cast<Clock::duration>(Sec(1.5));
  ASSERT_TRUE(reg.allow(0, later));
  reg.record(0, FaultKind::kNone, later);
  EXPECT_EQ(reg.health(0, later), BackendHealth::kHealthy);
  EXPECT_EQ(reg.readmissions(), 1u);
  const auto snap = reg.snapshot(later);
  EXPECT_EQ(snap[0].samples, 0u) << "re-admission forgets the old window";
  // One new fault must not immediately re-trip (fresh window, min_samples).
  reg.record(0, FaultKind::kStall, later);
  EXPECT_EQ(reg.health(0, later), BackendHealth::kHealthy);
}

TEST(HealthRegistry, FaultedProbeRequarantinesWithEscalatedCooldown) {
  const auto now = t0();
  auto reg = quarantined_registry(now);
  const auto probe1 = now + std::chrono::duration_cast<Clock::duration>(Sec(1.5));
  ASSERT_TRUE(reg.allow(0, probe1));
  reg.record(0, FaultKind::kStall, probe1);
  EXPECT_EQ(reg.health(0, probe1), BackendHealth::kQuarantined);
  EXPECT_EQ(reg.quarantines(), 2u);
  // Escalation: the second quarantine's cool-down is 2x (backoff = 2.0), so
  // the base cool-down (1s) is no longer enough...
  const auto after_base = probe1 + std::chrono::duration_cast<Clock::duration>(Sec(1.5));
  EXPECT_EQ(reg.health(0, after_base), BackendHealth::kQuarantined);
  // ...but the doubled one is.
  const auto after_double = probe1 + std::chrono::duration_cast<Clock::duration>(Sec(2.5));
  EXPECT_EQ(reg.health(0, after_double), BackendHealth::kProbation);
}

TEST(HealthRegistry, EscalationIsCappedAndResetByReadmission) {
  HealthConfig cfg = small_config();
  cfg.max_cooldown_seconds = 3.0;  // cap below 1 * 2^2
  BackendHealthRegistry reg({"ecl"}, cfg);
  auto now = t0();
  for (int i = 0; i < 4; ++i) reg.record(0, FaultKind::kStall, now);
  // Fail three consecutive probes: cool-down would be 8s unbounded, but is
  // capped at 3s.
  for (int round = 0; round < 3; ++round) {
    now += std::chrono::duration_cast<Clock::duration>(Sec(3.5));  // > cap: probation
    ASSERT_TRUE(reg.allow(0, now)) << "round " << round;
    reg.record(0, FaultKind::kException, now);
  }
  const auto capped = now + std::chrono::duration_cast<Clock::duration>(Sec(3.2));
  EXPECT_EQ(reg.health(0, capped), BackendHealth::kProbation) << "cool-down capped";
  // A certified success resets the escalation level: next quarantine uses
  // the base cool-down again.
  ASSERT_TRUE(reg.allow(0, capped));
  reg.record(0, FaultKind::kNone, capped);
  ASSERT_EQ(reg.health(0, capped), BackendHealth::kHealthy);
  auto t = capped;
  for (int i = 0; i < 4; ++i) reg.record(0, FaultKind::kDeadline, t);
  ASSERT_EQ(reg.health(0, t), BackendHealth::kQuarantined);
  const auto base_again = t + std::chrono::duration_cast<Clock::duration>(Sec(1.5));
  EXPECT_EQ(reg.health(0, base_again), BackendHealth::kProbation)
      << "re-admission must reset consecutive_quarantines";
}

TEST(HealthRegistry, StrayFeedbackWhileQuarantinedIsIgnored) {
  // An in-flight request can report after its backend was quarantined; the
  // late outcome must not mutate the (cleared) window or the lifecycle.
  const auto now = t0();
  auto reg = quarantined_registry(now);
  reg.record(0, FaultKind::kStall, now);
  reg.record(0, FaultKind::kNone, now);
  EXPECT_EQ(reg.health(0, now), BackendHealth::kQuarantined);
  EXPECT_EQ(reg.quarantines(), 1u);
  EXPECT_EQ(reg.snapshot(now)[0].samples, 0u);
}

TEST(HealthRegistry, BackendsAreIndependent) {
  BackendHealthRegistry reg({"a", "b"}, small_config());
  const auto now = t0();
  for (int i = 0; i < 4; ++i) reg.record(0, FaultKind::kStall, now);
  EXPECT_EQ(reg.health(0, now), BackendHealth::kQuarantined);
  EXPECT_EQ(reg.health(1, now), BackendHealth::kHealthy);
  EXPECT_TRUE(reg.allow(1, now));
}

TEST(HealthRegistry, FaultKindMappingCoversTheTaxonomy) {
  using scc::SccStatus;
  EXPECT_EQ(service::fault_kind_from_status(SccStatus::kOk), FaultKind::kNone);
  EXPECT_EQ(service::fault_kind_from_status(SccStatus::kStalled), FaultKind::kStall);
  EXPECT_EQ(service::fault_kind_from_status(SccStatus::kWorklistOverflow), FaultKind::kOverflow);
  EXPECT_EQ(service::fault_kind_from_status(SccStatus::kCertificationFailed),
            FaultKind::kCertification);
  EXPECT_EQ(service::fault_kind_from_status(SccStatus::kDeadlineExceeded), FaultKind::kDeadline);
  EXPECT_EQ(service::fault_kind_from_status(SccStatus::kException), FaultKind::kException);
  EXPECT_EQ(service::fault_kind_from_status(SccStatus::kVerifyFailed), FaultKind::kOther);
  EXPECT_STREQ(service::fault_kind_name(FaultKind::kCertification), "certification");
  EXPECT_STREQ(service::backend_health_name(BackendHealth::kProbation), "probation");
}

}  // namespace
}  // namespace ecl::test

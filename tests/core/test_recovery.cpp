#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/test_graphs.hpp"
#include "core/ecl_scc.hpp"
#include "core/result.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"
#include "core/watchdog.hpp"
#include "device/device.hpp"
#include "device/fault.hpp"

// Checkpointed-resume tests (DESIGN.md §12): fault-free transparency (the
// checkpoint lever must not change a single label), recovery through a
// transient fault burst, ladder exhaustion under a permanent stall, and the
// watchdog interaction contract — the deadline budget is shared across
// resume attempts, and a re-armed watchdog treats replayed Phase-2 rounds
// exactly like a fresh run's.

namespace ecl::test {
namespace {

using device::FaultPlan;
using graph::Digraph;
using graph::vid;
using scc::EclOptions;
using scc::FixpointWatchdog;
using scc::SccResult;
using scc::SccStatus;
using scc::StallPolicy;
using scc::WatchdogConfig;

device::DeviceProfile profile_with(FaultPlan plan) {
  device::DeviceProfile profile = device::tiny_profile();
  profile.fault_plan = plan;
  return profile;
}

/// The bench_chaos_recovery burst: p = 1.0 delayed visibility confined to a
/// launch window.
FaultPlan burst_plan(std::uint64_t start_launch, std::uint64_t window) {
  FaultPlan p;
  p.seed = 0xb0757;
  p.delayed_visibility = true;
  p.store_defer_probability = 1.0;
  p.window_start_launch = start_launch;
  p.window_launches = window;
  return p;
}

std::vector<std::pair<std::string, Digraph>> recovery_graphs() {
  std::vector<std::pair<std::string, Digraph>> fams;
  fams.emplace_back("cycle_chain_16x16", graph::cycle_chain(16, 16));
  Rng rng(0x5ec0fe);
  fams.emplace_back("er_n2000_m8000", graph::random_digraph(2000, 8000, rng));
  fams.emplace_back("fig3", fig3_graph());
  return fams;
}

TEST(Recovery, CheckpointingIsLabelTransparentFaultFree) {
  // The checkpoint lever is pure bookkeeping on a clean run: labels must be
  // bit-identical with it on and off.
  for (const auto& [name, g] : recovery_graphs()) {
    EclOptions off;
    off.checkpoint.enabled = false;
    device::Device dev_off(device::tiny_profile());
    const SccResult base = scc::ecl_scc(g, dev_off, off);
    ASSERT_TRUE(base.ok()) << name;

    EclOptions on;
    on.checkpoint.enabled = true;
    device::Device dev_on(device::tiny_profile());
    const SccResult ckpt = scc::ecl_scc(g, dev_on, on);
    ASSERT_TRUE(ckpt.ok()) << name;

    EXPECT_EQ(base.labels, ckpt.labels) << name << ": checkpointing changed labels";
    // One snapshot per outer iteration, after Phase 1; none inside Phase 2.
    EXPECT_EQ(ckpt.metrics.checkpoints_taken, ckpt.metrics.outer_iterations) << name;
    // Snapshot copies are timed on their own, outside the phase timers.
    EXPECT_GT(ckpt.metrics.checkpoint_seconds, 0.0) << name;
    EXPECT_EQ(base.metrics.checkpoint_seconds, 0.0) << name;
    EXPECT_EQ(ckpt.metrics.resumes, 0u) << name << ": no faults, no replays";
    EXPECT_EQ(ckpt.metrics.rounds_replayed, 0u) << name;
    EXPECT_EQ(ckpt.metrics.recovery_seconds, 0.0) << name << ": no trip, no recovery span";
  }
}

/// Probes burst placements the way bench_chaos_recovery does: smallest
/// Phase-2 budget that never trips fault-free, then a late window that
/// actually overlaps a live fixpoint. Returns the first resume run that
/// landed as designed (trip + >=1 resume + converged).
std::optional<SccResult> probe_resumed_run(const Digraph& g) {
  EclOptions base;
  base.async_phase2 = false;  // one launch per sweep: deterministic windows
  std::uint64_t launches = 0;
  std::uint64_t budget = 0;
  {
    device::Device dev(device::tiny_profile());
    const SccResult dry = scc::ecl_scc(g, dev, base);
    if (!dry.ok()) return std::nullopt;
    launches = dry.metrics.kernel_launches;
  }
  for (const std::uint64_t b : {4ull, 5ull, 6ull, 9ull, 12ull, 18ull, 24ull, 36ull, 48ull}) {
    device::Device dev(device::tiny_profile());
    EclOptions o = base;
    o.watchdog.max_phase2_rounds = b;
    const SccResult r = scc::ecl_scc(g, dev, o);
    if (r.ok() && r.metrics.watchdog_trips == 0) {
      budget = b;
      break;
    }
  }
  if (budget == 0) return std::nullopt;

  EclOptions resume = base;
  resume.watchdog.max_phase2_rounds = budget;
  resume.checkpoint.enabled = true;
  resume.checkpoint.max_resumes = 6;
  for (const double frac : {0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.55, 0.4, 0.25}) {
    const auto start = static_cast<std::uint64_t>(frac * static_cast<double>(launches));
    device::Device dev(profile_with(burst_plan(start, budget + 2)));
    SccResult r = scc::ecl_scc(g, dev, resume);
    if (r.ok() && !r.metrics.serial_fallback && r.metrics.watchdog_trips >= 1 &&
        r.metrics.resumes >= 1)
      return r;
  }
  return std::nullopt;
}

TEST(Recovery, ResumesThroughTransientBurstAndConverges) {
  Rng rng(0x5ec0fe);
  const Digraph g = graph::random_digraph(2000, 8000, rng);
  const SccResult oracle = scc::tarjan(g);
  const auto resumed = probe_resumed_run(g);
  ASSERT_TRUE(resumed.has_value()) << "no burst placement produced a checkpointed resume";
  EXPECT_TRUE(scc::same_partition(resumed->labels, oracle.labels));
  EXPECT_EQ(resumed->num_components, oracle.num_components);
  EXPECT_TRUE(scc::certify_scc(g, resumed->labels).ok);
  EXPECT_GT(resumed->metrics.checkpoints_taken, 0u);
  EXPECT_EQ(resumed->metrics.rounds_replayed, 0u) << "a Phase-2 trip resumes in place";
  EXPECT_GT(resumed->metrics.recovery_seconds, 0.0)
      << "a tripped-then-recovered run must report its recovery span";
  EXPECT_FALSE(resumed->metrics.serial_fallback)
      << "rung 1 handled the burst; the serial rung must not have run";
}

TEST(Recovery, PermanentStallExhaustsResumesThenFallsBack) {
  // An unwindowed p=1.0 stall defeats every replay: the ladder's rung 1
  // must burn exactly max_resumes attempts, then hand a complete labeling
  // to the serial fallback with the stall error preserved.
  const Digraph g = graph::cycle_chain(12, 6);
  const SccResult oracle = scc::tarjan(g);
  FaultPlan plan;
  plan.seed = 0xdead;
  plan.delayed_visibility = true;
  plan.store_defer_probability = 1.0;

  EclOptions o;
  o.async_phase2 = false;
  o.watchdog.max_phase2_rounds = 6;  // trip fast
  o.checkpoint.enabled = true;
  o.checkpoint.max_resumes = 2;
  device::Device dev(profile_with(plan));
  const SccResult r = scc::ecl_scc(g, dev, o);
  EXPECT_EQ(r.metrics.resumes, 2u) << "rung 1 must be bounded by max_resumes";
  EXPECT_FALSE(r.ok()) << "the stall error must be preserved through the fallback";
  EXPECT_TRUE(r.metrics.serial_fallback);
  ASSERT_EQ(r.labels.size(), g.num_vertices());
  EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels));

  // Same scenario with kReturnError: partial labels, no fallback.
  o.stall_policy = StallPolicy::kReturnError;
  device::Device dev2(profile_with(plan));
  const SccResult r2 = scc::ecl_scc(g, dev2, o);
  EXPECT_FALSE(r2.ok());
  EXPECT_FALSE(r2.metrics.serial_fallback);
  EXPECT_EQ(r2.num_components, 0u);
}

TEST(Recovery, DeadlineBudgetIsSharedAcrossResumes) {
  // The watchdog deadline is ABSOLUTE: re-arming on resume re-emplaces the
  // watchdog with the same config, so replays never extend the budget. A
  // permanently stalled run with a near deadline and a generous resume
  // allowance must stop resuming once the deadline passes and report
  // kDeadlineExceeded — never a deadline-violating kOk.
  const Digraph g = graph::cycle_chain(12, 6);
  FaultPlan plan;
  plan.seed = 0xdead;
  plan.delayed_visibility = true;
  plan.store_defer_probability = 1.0;

  EclOptions o;
  o.async_phase2 = false;
  o.watchdog.max_phase2_rounds = 6;
  o.watchdog.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  o.checkpoint.enabled = true;
  o.checkpoint.max_resumes = 1000000;     // deadline, not the count, must stop the ladder
  o.max_outer_iterations = 1000000000ull;  // and not the iteration guard either
  o.stall_policy = StallPolicy::kReturnError;
  device::Device dev(profile_with(plan));
  const SccResult r = scc::ecl_scc(g, dev, o);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, SccStatus::kDeadlineExceeded) << r.error.message;
  EXPECT_GE(r.metrics.resumes, 1u)
      << "the ladder should have replayed before the deadline cut it off";
}

TEST(Recovery, ExpiredDeadlineBlocksResumeEntirely) {
  const Digraph g = graph::cycle_chain(12, 6);
  EclOptions o;
  o.watchdog.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  o.checkpoint.enabled = true;
  o.stall_policy = StallPolicy::kReturnError;
  device::Device dev(device::tiny_profile());
  const SccResult r = scc::ecl_scc(g, dev, o);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, SccStatus::kDeadlineExceeded);
  EXPECT_EQ(r.metrics.resumes, 0u) << "replaying past an expired deadline burns budget for nothing";
}

// ---- Watchdog re-arm semantics on resume -----------------------------------
//
// ecl_scc re-arms by re-emplacing the FixpointWatchdog with the same config
// (core/ecl_scc.cpp). These tests pin the properties the resume path relies
// on, using the same re-emplacement idiom.

TEST(RecoveryWatchdog, ReArmRestoresPhase2BudgetAndBaseline) {
  std::optional<FixpointWatchdog> wd;
  WatchdogConfig cfg{.max_phase2_rounds = 3};
  wd.emplace(cfg, 100);
  EXPECT_EQ(wd->phase2_round_budget(), 3u);
  wd->observe_phase2_round(80);
  wd->observe_phase2_round(40);  // shrinking: progress observed
  wd->mark_stalled();            // budget exhausted, solver declares the trip
  EXPECT_TRUE(wd->stalled());

  wd.emplace(cfg, 100);  // resume: fresh counters, full budget
  EXPECT_FALSE(wd->stalled());
  EXPECT_EQ(wd->phase2_round_budget(), 3u);
}

TEST(RecoveryWatchdog, ReplayedRoundsReArmWallClockOnlyOnShrink) {
  // After a resume the first replayed frontier is a BASELINE observation —
  // it must not re-arm the stall clock (deferred stores re-stamping the
  // same frontier forever would otherwise look alive). Only a strictly
  // shrinking replayed frontier counts as progress, exactly like a fresh
  // run's Phase 2.
  std::optional<FixpointWatchdog> wd;
  WatchdogConfig cfg{.stall_seconds = 0.02};
  wd.emplace(cfg, 10);
  wd->observe_phase2_round(100);
  wd->observe_phase2_round(60);

  wd.emplace(cfg, 10);  // resume
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(wd->expired());
  wd->observe_phase2_round(60);  // replayed frontier: baseline, no re-arm
  EXPECT_TRUE(wd->expired());
  wd->observe_phase2_round(30);  // replay makes real progress
  EXPECT_FALSE(wd->expired());
}

TEST(RecoveryWatchdog, ReArmPreservesAbsoluteDeadline) {
  WatchdogConfig cfg;
  cfg.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(15);
  std::optional<FixpointWatchdog> wd;
  wd.emplace(cfg, 10);
  EXPECT_FALSE(wd->deadline_expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  wd.emplace(cfg, 10);  // resume re-arm: same config, same absolute deadline
  EXPECT_TRUE(wd->deadline_expired()) << "re-arming must not extend the deadline budget";
}

}  // namespace
}  // namespace ecl::test

// Fleet self-healing contracts (DESIGN.md §14), enforced by exit code:
//
//  1. failover identity — seeded chaos permanently stalls pool device 1
//     (p = 1.0 delayed visibility: no store ever lands) under a K = 4
//     sharded run. The coordinator must survive via LIVE shard failover —
//     eject the device at the sweep-budget trip, re-home its shard, restore
//     the exchange-barrier checkpoint — and the stitched labels must come
//     back certified and bit-identical to a single-device run on EVERY
//     differential family, without the recovery ladder's rungs.
//  2. recovery latency — a transient stall burst confined to a LATE launch
//     window on device 1 trips a mostly-converged run. Failover recovery
//     (SccMetrics::recovery_seconds: first trip -> converged labels, riding
//     on the last coordinated checkpoint) must be <= 0.6x the discard path
//     (a full fresh sharded rerun on a clean pool — the ladder's rung 2) on
//     >= 2 timing families. Both sides must hand back a labeling that
//     passes certify_scc and matches the Tarjan oracle; the certificate is
//     charged to NEITHER side (same additive gate either way).
//  3. containment — 0 uncertified results served across the whole chaos
//     sweep: every certify-on run must come back certified, and no labeling
//     on either side may disagree with the oracle.
//
// Emits machine-readable BENCH_fleet_recovery.json (path overridable via
// ECL_BENCH_JSON). `--smoke` runs reduced sizes/repetitions and reports the
// contracts without enforcing them.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ecl_scc.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"
#include "device/device.hpp"
#include "device/fault.hpp"
#include "fleet/device_pool.hpp"
#include "fleet/sharded_scc.hpp"
#include "graph/generators.hpp"
#include "support/env.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace ecl;
using device::FaultPlan;
using graph::Digraph;
using graph::vid;

constexpr double kRecoveryRatio = 0.6;  // failover mean <= ratio * discard mean
constexpr std::size_t kFamiliesRequired = 2;
constexpr unsigned kDevices = 4;
constexpr unsigned kShards = 4;
constexpr unsigned kThreadBudget = 4;
constexpr std::size_t kFaultyDevice = 1;

struct Family {
  std::string name;
  Digraph graph;
};

/// The four differential families the lever suites use (same shapes/seeds),
/// so "every differential family" means the same thing across PRs.
std::vector<Family> identity_families() {
  std::vector<Family> fs;
  fs.push_back({"cycle_chain_12x6", graph::cycle_chain(12, 6)});
  fs.push_back({"grid_dag_10x10", graph::grid_dag(10, 10)});
  {
    Rng rng(0x40710'01);
    fs.push_back({"er_n150_m450", graph::random_digraph(150, 450, rng)});
  }
  {
    Rng rng(0x40710'02);
    graph::SccProfile profile;
    profile.num_vertices = 200;
    profile.giant_fraction = 0.4;
    profile.size2_sccs = 10;
    profile.mid_sccs = 3;
    profile.dag_depth = 6;
    fs.push_back({"powerlaw_giant", graph::scc_profile_graph(profile, rng)});
  }
  return fs;
}

/// Bigger families for the latency contract: multi-iteration runs whose
/// late checkpoints carry real labeled/pruned progress, so failover has
/// something genuine to preserve. Absolute sizes (not ECL_SCALE) for the
/// same reason as bench_chaos_recovery; the tiny-scale CI lanes use --smoke.
std::vector<Family> timing_families(bool smoke) {
  std::vector<Family> fams;
  const vid chains = smoke ? 16 : 64;
  const vid len = smoke ? 32 : 64;
  fams.push_back({"cycle_chain_" + std::to_string(chains) + "x" + std::to_string(len),
                  graph::cycle_chain(chains, len)});
  const vid ern = smoke ? 2000 : 12000;
  Rng er_rng(0xf1ee7'01);
  fams.push_back({"er_n" + std::to_string(ern), graph::random_digraph(ern, 4 * ern, er_rng)});
  const unsigned rmat_scale = smoke ? 11 : 13;
  Rng rmat_rng(0xf1ee7'02);
  fams.push_back({"rmat_s" + std::to_string(rmat_scale), graph::rmat(rmat_scale, 5.0, rmat_rng)});
  return fams;
}

/// Persistent stall: every monotonic store on the device is deferred,
/// forever. The afflicted shard reports movement it never lands, so the
/// sweep-budget trip isolates and blames exactly this device.
FaultPlan stall_plan() {
  FaultPlan p;
  p.seed = 0xf1ee7;
  p.delayed_visibility = true;
  p.store_defer_probability = 1.0;
  return p;
}

/// The same stall confined to a launch window on the device (device launch
/// IDs): a transient late-run fault, the latency contract's scenario.
FaultPlan burst_plan(std::uint64_t start_launch, std::uint64_t window) {
  FaultPlan p = stall_plan();
  p.window_start_launch = start_launch;
  p.window_launches = window;
  return p;
}

/// Fresh pool per measurement: device launch counters persist across runs
/// within a pool, and the burst window is counted in launch IDs.
fleet::DevicePool make_pool(const FaultPlan* faulty_plan) {
  fleet::DevicePoolConfig cfg;
  cfg.devices = kDevices;
  cfg.profile = device::tiny_profile();
  cfg.thread_budget = kThreadBudget;
  if (faulty_plan != nullptr) {
    cfg.fault_plans.resize(kFaultyDevice + 1);
    cfg.fault_plans[kFaultyDevice] = *faulty_plan;
  }
  return fleet::DevicePool(cfg);
}

fleet::ShardedOptions failover_options(std::uint64_t budget) {
  fleet::ShardedOptions o;
  o.shards = kShards;
  o.certify = true;
  o.checkpoint_exchanges = 1;  // snapshot every moving exchange: minimal replay
  o.ecl.watchdog.max_phase2_rounds = budget;
  return o;
}

/// The discard path (the ladder's fresh-rerun rung, pre-§14): no
/// coordinator checkpoints, no certification inside the timed region.
fleet::ShardedOptions discard_options(std::uint64_t budget) {
  fleet::ShardedOptions o;
  o.shards = kShards;
  o.certify = false;
  o.checkpoint = false;
  o.ecl.watchdog.max_phase2_rounds = budget;
  return o;
}

/// Containment ledger across the whole sweep (contract 3).
struct Containment {
  std::uint64_t runs = 0;
  std::uint64_t served_uncertified = 0;  ///< certify-on runs that came back uncertified
  std::uint64_t corrupt = 0;             ///< labelings disagreeing with the Tarjan oracle
};

// ---- Contract 1: failover identity -----------------------------------------

struct IdentityRow {
  std::string name;
  std::uint64_t budget = 0;
  std::uint64_t failovers = 0;
  std::uint64_t shards_rehomed = 0;
  std::uint64_t checkpoints = 0;
  bool identical = false;
  bool certified = false;
  bool in_run = false;  ///< recovered by failover, not the ladder
  bool pass = false;
};

/// Smallest Phase-2 sweep budget that never trips fault-free: it converts
/// the persistent stall into a prompt, deterministic trip without ever
/// tripping a healthy run.
std::uint64_t discover_budget(const Family& fam) {
  for (const std::uint64_t budget : {6ull, 9ull, 12ull, 18ull, 24ull, 36ull, 48ull, 64ull}) {
    fleet::DevicePool pool = make_pool(nullptr);
    const scc::SccResult r = fleet::sharded_scc(fam.graph, pool, discard_options(budget));
    if (r.ok() && r.metrics.watchdog_trips == 0) return budget;
  }
  return 0;
}

IdentityRow run_identity_family(const Family& fam, Containment& c) {
  IdentityRow row;
  row.name = fam.name;
  row.budget = discover_budget(fam);
  if (row.budget == 0) return row;

  device::Device reference_dev(device::tiny_profile(), /*workers=*/2);
  const scc::SccResult reference = scc::ecl_scc(fam.graph, reference_dev);
  if (!reference.ok())
    throw std::runtime_error("fleet_recovery: reference run failed on " + fam.name);
  const scc::SccResult oracle = scc::tarjan(fam.graph);

  const FaultPlan plan = stall_plan();
  fleet::DevicePool pool = make_pool(&plan);
  const scc::SccResult r = fleet::sharded_scc(fam.graph, pool, failover_options(row.budget));
  ++c.runs;
  if (!r.metrics.certified) ++c.served_uncertified;
  if (!scc::same_partition(r.labels, oracle.labels)) ++c.corrupt;

  row.failovers = r.metrics.failovers;
  row.shards_rehomed = r.metrics.shards_rehomed;
  row.checkpoints = r.metrics.checkpoints_taken;
  row.identical = r.labels == reference.labels;
  row.certified = r.metrics.certified;
  row.in_run = r.ok() && !r.metrics.serial_fallback && r.metrics.fresh_reruns == 0;
  row.pass = row.identical && row.certified && row.in_run && row.failovers >= 1 &&
             row.shards_rehomed >= 1;
  return row;
}

// ---- Contract 2: failover vs discard recovery latency ----------------------

struct RecoveryRow {
  std::string name;
  std::uint64_t launches = 0;      ///< device-1 fault-free launch count (window placement)
  std::uint64_t budget = 0;
  std::uint64_t window_start = 0;  ///< device-1 launch id where the burst begins
  double failover_mean = 0.0;
  double discard_mean = 0.0;
  double ratio = 0.0;
  bool valid = false;
  bool pass = false;
};

/// One failover-side measurement. Returns recovery_seconds (first trip ->
/// converged labels), or -1 when the run did not land as designed or fails
/// the validity gates (certificate + oracle — not charged time).
double measure_failover(const Family& fam, const scc::SccResult& oracle, const FaultPlan& plan,
                        std::uint64_t budget, Containment& c) {
  fleet::DevicePool pool = make_pool(&plan);
  const scc::SccResult r = fleet::sharded_scc(fam.graph, pool, failover_options(budget));
  ++c.runs;
  if (!r.metrics.certified) ++c.served_uncertified;
  if (r.labels.size() == fam.graph.num_vertices() &&
      !scc::same_partition(r.labels, oracle.labels))
    ++c.corrupt;
  const bool landed = r.ok() && r.metrics.certified && !r.metrics.serial_fallback &&
                      r.metrics.fresh_reruns == 0 && r.metrics.failovers >= 1 &&
                      r.metrics.recovery_seconds > 0 &&
                      scc::same_partition(r.labels, oracle.labels);
  return landed ? r.metrics.recovery_seconds : -1.0;
}

/// One discard-side measurement: a full fresh sharded rerun on a CLEAN pool
/// — what the ladder's rung 2 costs after a trip discards the run. The
/// certificate + oracle match are validity gates outside the timed region.
double measure_discard(const Family& fam, const scc::SccResult& oracle, std::uint64_t budget,
                       Containment& c) {
  fleet::DevicePool pool = make_pool(nullptr);
  Timer timer;
  const scc::SccResult r = fleet::sharded_scc(fam.graph, pool, discard_options(budget));
  const double seconds = timer.seconds();
  ++c.runs;
  if (!r.ok()) return -1.0;
  if (!scc::same_partition(r.labels, oracle.labels)) {
    ++c.corrupt;
    return -1.0;
  }
  if (!scc::certify_scc(fam.graph, r.labels).ok) return -1.0;
  return seconds;
}

RecoveryRow run_recovery_family(const Family& fam, std::size_t runs, Containment& c) {
  RecoveryRow row;
  row.name = fam.name;
  const scc::SccResult oracle = scc::tarjan(fam.graph);

  // Device-1 fault-free launch count, for window placement.
  {
    fleet::DevicePool pool = make_pool(nullptr);
    const scc::SccResult dry =
        fleet::sharded_scc(fam.graph, pool, discard_options(/*budget=*/0));
    if (!dry.ok())
      throw std::runtime_error("fleet_recovery: dry run failed on " + fam.name);
    row.launches = pool.at(kFaultyDevice).stats().kernel_launches;
  }

  row.budget = discover_budget(fam);
  if (row.budget == 0) return row;
  // Just longer than one budget of spinning: the trip lands inside the
  // window, so the blame pass sees the stalled shard still "moving".
  const std::uint64_t window = row.budget + 2;

  // Place the burst as late as possible while still tripping a live
  // Phase-2 fixpoint (probing from the back): the later the trip, the more
  // labeled/pruned progress the restored checkpoint preserves — the §14
  // claim under test.
  for (const double frac : {0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.55, 0.4, 0.25}) {
    const std::uint64_t start =
        static_cast<std::uint64_t>(frac * static_cast<double>(row.launches));
    Containment probe;  // probing runs don't count against containment
    if (measure_failover(fam, oracle, burst_plan(start, window), row.budget, probe) >= 0) {
      row.window_start = start;
      row.valid = true;
      break;
    }
  }
  if (!row.valid) return row;

  const FaultPlan plan = burst_plan(row.window_start, window);
  double failover_total = 0.0, discard_total = 0.0;
  std::size_t failover_valid = 0, discard_valid = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    const double fs = measure_failover(fam, oracle, plan, row.budget, c);
    if (fs >= 0) {
      failover_total += fs;
      ++failover_valid;
    }
    const double ds = measure_discard(fam, oracle, row.budget, c);
    if (ds >= 0) {
      discard_total += ds;
      ++discard_valid;
    }
  }
  // Benign pool races can wobble the sweep count run-to-run; demand a
  // majority of runs landed as designed before trusting the means.
  if (failover_valid * 2 <= runs || discard_valid * 2 <= runs) {
    row.valid = false;
    return row;
  }
  row.failover_mean = failover_total / static_cast<double>(failover_valid);
  row.discard_mean = discard_total / static_cast<double>(discard_valid);
  row.ratio = row.discard_mean > 0 ? row.failover_mean / row.discard_mean : 0.0;
  row.pass = row.ratio <= kRecoveryRatio;
  return row;
}

// ---- Reporting -------------------------------------------------------------

void write_json(const std::string& path, bool smoke, std::size_t runs,
                const std::vector<IdentityRow>& identity, bool identity_pass,
                const std::vector<RecoveryRow>& recovery, std::size_t families_passing,
                bool recovery_pass, const Containment& c, bool containment_pass, bool pass) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n";
  out << "  \"bench\": \"fleet_recovery\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"scale\": " << scale_factor() << ",\n";
  out << "  \"runs\": " << runs << ",\n";
  out << "  \"devices\": " << kDevices << ",\n";
  out << "  \"shards\": " << kShards << ",\n";
  out << "  \"identity\": {\"families\": [\n";
  for (std::size_t i = 0; i < identity.size(); ++i) {
    const auto& r = identity[i];
    out << "    {\"name\": \"" << r.name << "\", \"budget\": " << r.budget
        << ", \"failovers\": " << r.failovers << ", \"shards_rehomed\": " << r.shards_rehomed
        << ", \"checkpoints\": " << r.checkpoints
        << ", \"identical\": " << (r.identical ? "true" : "false")
        << ", \"certified\": " << (r.certified ? "true" : "false")
        << ", \"in_run\": " << (r.in_run ? "true" : "false")
        << ", \"pass\": " << (r.pass ? "true" : "false") << "}"
        << (i + 1 < identity.size() ? "," : "") << "\n";
  }
  out << "  ], \"pass\": " << (identity_pass ? "true" : "false") << "},\n";
  out << "  \"recovery\": {\"ratio_threshold\": " << kRecoveryRatio
      << ", \"families_required\": " << kFamiliesRequired << ", \"families\": [\n";
  for (std::size_t i = 0; i < recovery.size(); ++i) {
    const auto& r = recovery[i];
    out << "    {\"name\": \"" << r.name << "\", \"launches\": " << r.launches
        << ", \"budget\": " << r.budget << ", \"window_start\": " << r.window_start
        << ", \"failover_mean_s\": " << r.failover_mean
        << ", \"discard_mean_s\": " << r.discard_mean << ", \"ratio\": " << r.ratio
        << ", \"valid\": " << (r.valid ? "true" : "false")
        << ", \"pass\": " << (r.pass ? "true" : "false") << "}"
        << (i + 1 < recovery.size() ? "," : "") << "\n";
  }
  out << "  ], \"families_passing\": " << families_passing
      << ", \"pass\": " << (recovery_pass ? "true" : "false") << "},\n";
  out << "  \"containment\": {\"runs\": " << c.runs
      << ", \"served_uncertified\": " << c.served_uncertified << ", \"corrupt\": " << c.corrupt
      << ", \"pass\": " << (containment_pass ? "true" : "false") << "},\n";
  out << "  \"contract\": {\"pass\": " << (pass ? "true" : "false")
      << ", \"enforced\": " << (smoke ? "false" : "true") << "}\n";
  out << "}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  const std::size_t runs = smoke ? 1 : bench_runs();
  Containment c;

  // Contract 1: failover identity on every differential family.
  std::vector<IdentityRow> identity;
  for (const auto& fam : identity_families()) identity.push_back(run_identity_family(fam, c));
  bool identity_pass = !identity.empty();
  for (const auto& r : identity) identity_pass = identity_pass && r.pass;
  TextTable itable(
      {"family", "budget", "failovers", "rehomed", "checkpoints", "identical", "recovered"});
  for (const auto& r : identity)
    itable.add_row({r.name, std::to_string(r.budget), std::to_string(r.failovers),
                    std::to_string(r.shards_rehomed), std::to_string(r.checkpoints),
                    r.identical ? "yes" : "NO",
                    r.in_run ? (r.pass ? "in-run" : "partial") : "LADDER"});
  std::printf("\n== Failover identity under a persistently stalled device (K=%u, N=%u) ==\n%s",
              kShards, kDevices, itable.render().c_str());

  // Contract 2: failover vs discard recovery latency.
  std::vector<RecoveryRow> recovery;
  for (const auto& fam : timing_families(smoke))
    recovery.push_back(run_recovery_family(fam, runs, c));
  std::size_t families_passing = 0;
  for (const auto& r : recovery)
    if (r.pass) ++families_passing;
  const bool recovery_pass = families_passing >= kFamiliesRequired;
  TextTable rtable({"Family", "launches", "budget", "burst@", "failover [s]", "discard [s]",
                    "ratio", "pass"});
  for (const auto& r : recovery)
    rtable.add_row({r.name, std::to_string(r.launches), std::to_string(r.budget),
                    std::to_string(r.window_start), fixed(r.failover_mean, 5),
                    fixed(r.discard_mean, 5), fixed(r.ratio, 3),
                    r.valid ? (r.pass ? "yes" : "no") : "skipped"});
  std::printf("\n== Recovery latency: shard failover vs discard + fresh rerun (mean of %zu) "
              "==\n%s",
              runs, rtable.render().c_str());

  // Contract 3: containment across the whole sweep.
  const bool containment_pass = c.served_uncertified == 0 && c.corrupt == 0 && c.runs > 0;

  const bool pass = identity_pass && recovery_pass && containment_pass;
  const std::string json_path = env_string("ECL_BENCH_JSON", "BENCH_fleet_recovery.json");
  write_json(json_path, smoke, runs, identity, identity_pass, recovery, families_passing,
             recovery_pass, c, containment_pass, pass);
  std::printf("\ncontract: failover identity on every family: %s, "
              "failover <= %.1fx discard on >= %zu families: %zu pass -> %s, "
              "containment (0 uncertified, 0 corrupt of %llu): %s => %s%s\n(json: %s)\n",
              identity_pass ? "PASS" : "FAIL", kRecoveryRatio, kFamiliesRequired,
              families_passing, recovery_pass ? "PASS" : "FAIL",
              static_cast<unsigned long long>(c.runs), containment_pass ? "PASS" : "FAIL",
              pass ? "PASS" : "FAIL", smoke ? " [smoke: not enforced]" : "", json_path.c_str());

  if (!smoke && !pass) return 1;
  return 0;
}

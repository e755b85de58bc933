// Sharded-SCC differential suite (ctest label: fleet).
//
// The §13 contract: the sharded engine's labels are BIT-IDENTICAL to a
// single-device ecl_scc run — not merely the same partition — on every
// graph family, for every shard count, because max-ID labels are a
// function of the graph alone and the boundary exchange's max-reduce
// commutes with every in-kernel store. The suite checks K in {2, 3, 8}
// across the four differential families, fault-free AND with seeded chaos
// aimed at exactly one shard's device, plus the shard_cuts partition
// properties and the engine's edge cases (K = 1, one shard of the same
// engine; K > pool size; certification off; caller-supplied reverse).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/test_graphs.hpp"
#include "core/ecl_scc.hpp"
#include "core/tarjan.hpp"
#include "device/device.hpp"
#include "device/fault.hpp"
#include "fleet/device_pool.hpp"
#include "fleet/sharded_scc.hpp"
#include "service/health_registry.hpp"

namespace ecl::test {
namespace {

using device::FaultPlan;
using fleet::DevicePool;
using fleet::DevicePoolConfig;
using fleet::ShardedOptions;
using scc::SccResult;

struct Family {
  std::string name;
  Digraph graph;
};

std::vector<Family> families() {
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

DevicePoolConfig fleet_config(unsigned devices = 4) {
  DevicePoolConfig cfg;
  cfg.devices = devices;
  cfg.profile = device::tiny_profile();  // zero launch overhead
  cfg.thread_budget = devices;
  return cfg;
}

SccResult single_device_reference(const Digraph& g) {
  device::Device dev(device::tiny_profile(), /*workers=*/2);
  return scc::ecl_scc(g, dev);
}

TEST(ShardedScc, LabelsBitIdenticalToSingleDeviceAcrossShardCounts) {
  DevicePool pool(fleet_config());
  for (const auto& family : families()) {
    const SccResult reference = single_device_reference(family.graph);
    ASSERT_TRUE(reference.ok()) << family.name;
    const SccResult oracle = scc::tarjan(family.graph);
    ASSERT_TRUE(scc::same_partition(reference.labels, oracle.labels)) << family.name;

    for (unsigned k : {2u, 3u, 8u}) {
      ShardedOptions opts;
      opts.shards = k;
      const SccResult sharded = fleet::sharded_scc(family.graph, pool, opts);
      ASSERT_TRUE(sharded.ok()) << family.name << " K=" << k << ": "
                                << sharded.error.message;
      EXPECT_EQ(sharded.labels, reference.labels)
          << family.name << ": K=" << k << " diverged from single-device labels";
      EXPECT_EQ(sharded.num_components, reference.num_components) << family.name;
      EXPECT_EQ(sharded.metrics.shards, k) << family.name;
      EXPECT_TRUE(sharded.metrics.certified) << family.name << " K=" << k;
    }
  }
}

TEST(ShardedScc, BitIdenticalWithSeededChaosOnOneShardsDevice) {
  // The chaos satellite: a recoverable fault plan (delayed visibility,
  // spurious replays, ...) aimed at device 1 only. Shards are assigned
  // round-robin, so with K >= 2 at least one shard lands on the faulty
  // device while its peers stay clean — and the stitched labels must STILL
  // be bit-identical, because every injected fault is either absorbed by
  // the monotone store-max retry or caught by the certifier's ladder.
  for (std::uint64_t seed : {0x51u, 0x52u, 0x53u}) {
    DevicePoolConfig cfg = fleet_config();
    cfg.fault_plans.resize(2);
    cfg.fault_plans[1] = FaultPlan::from_seed(seed);
    DevicePool pool(cfg);

    for (const auto& family : families()) {
      const SccResult reference = single_device_reference(family.graph);
      for (unsigned k : {2u, 8u}) {
        ShardedOptions opts;
        opts.shards = k;
        const SccResult sharded = fleet::sharded_scc(family.graph, pool, opts);
        EXPECT_EQ(sharded.labels, reference.labels)
            << family.name << ": K=" << k << " seed=" << seed
            << " diverged under chaos on device-1";
      }
    }
  }
}

TEST(ShardedScc, ShardCountMayExceedPoolSize) {
  DevicePool pool(fleet_config(/*devices=*/2));
  const Digraph g = graph::cycle_chain(12, 6);
  const SccResult reference = single_device_reference(g);

  ShardedOptions opts;
  opts.shards = 8;  // 4 shards per device, sequential within each step
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.labels, reference.labels);
  EXPECT_EQ(sharded.metrics.shards, 8u);
}

TEST(ShardedScc, SingleShardRunsWholeGraphOnOneDevice) {
  DevicePool pool(fleet_config());
  const Digraph g = graph::grid_dag(10, 10);
  const SccResult reference = single_device_reference(g);

  ShardedOptions opts;
  opts.shards = 1;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.labels, reference.labels);
  EXPECT_EQ(sharded.metrics.shards, 1u);
  EXPECT_EQ(sharded.metrics.boundary_vertices, 0u);
}

TEST(ShardedScc, FleetMetricsReportBoundaryAndExchangeWork) {
  DevicePool pool(fleet_config());
  Rng rng(0x40710'01);
  const Digraph g = graph::random_digraph(150, 450, rng);

  ShardedOptions opts;
  opts.shards = 3;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok());
  // A dense random digraph cut three ways must have cross-shard edges and
  // must have taken at least one exchange round to reach quiescence.
  EXPECT_GT(sharded.metrics.boundary_vertices, 0u);
  EXPECT_GT(sharded.metrics.exchange_rounds, 0u);
  EXPECT_GT(sharded.metrics.edges_processed, 0u);
}

TEST(ShardedScc, CertificationOffStillMatchesReference) {
  DevicePool pool(fleet_config());
  const Digraph g = fig3_graph();
  const SccResult reference = single_device_reference(g);

  ShardedOptions opts;
  opts.shards = 2;
  opts.certify = false;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.labels, reference.labels);
  EXPECT_FALSE(sharded.metrics.certified);
}

TEST(ShardedScc, CallerSuppliedReverseHintIsAccepted) {
  DevicePool pool(fleet_config());
  Rng rng(0x40710'01);
  const Digraph g = graph::random_digraph(150, 450, rng);
  const Digraph reverse = g.reverse();
  const SccResult reference = single_device_reference(g);

  ShardedOptions opts;
  opts.shards = 3;
  opts.reverse_hint = &reverse;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.labels, reference.labels);
  EXPECT_TRUE(sharded.metrics.certified);
}

TEST(ShardedScc, EmptyGraph) {
  DevicePool pool(fleet_config());
  Digraph g(0, graph::EdgeList{});
  ShardedOptions opts;
  opts.shards = 4;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  EXPECT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.num_components, 0u);
}

// ---- Self-healing (DESIGN.md §14) -----------------------------------------

// A plan that stalls the fixpoint outright: every monotonic store deferred,
// forever. The afflicted shard keeps reporting movement while its healthy
// peers quiesce, so the sweep-budget trip blames exactly that device.
FaultPlan stall_plan() {
  FaultPlan p;
  p.seed = 0xFA170;
  p.delayed_visibility = true;
  p.store_defer_probability = 1.0;
  return p;
}

TEST(ShardedScc, FailoverRecoversFromPersistentlyFaultyDevice) {
  for (const auto& family : families()) {
    const SccResult reference = single_device_reference(family.graph);

    DevicePoolConfig cfg = fleet_config();
    cfg.fault_plans.resize(2);
    cfg.fault_plans[1] = stall_plan();
    DevicePool pool(cfg);

    ShardedOptions opts;
    opts.shards = 4;
    opts.checkpoint_exchanges = 2;
    opts.ecl.watchdog.max_phase2_rounds = 64;  // trip fast; fault-free needs far fewer
    // The stalled shard must reach the sweep-budget trip and fail over; a
    // slow sweep must not migrate it as a straggler first.
    opts.straggler.enabled = false;
    const SccResult sharded = fleet::sharded_scc(family.graph, pool, opts);

    ASSERT_TRUE(sharded.ok()) << family.name << ": " << sharded.error.message;
    EXPECT_EQ(sharded.labels, reference.labels)
        << family.name << ": labels diverged through failover";
    EXPECT_TRUE(sharded.metrics.certified) << family.name;
    EXPECT_GE(sharded.metrics.failovers, 1u) << family.name;
    EXPECT_GE(sharded.metrics.shards_rehomed, 1u) << family.name;
    EXPECT_GE(sharded.metrics.checkpoints_taken, 1u) << family.name;
    EXPECT_FALSE(sharded.metrics.serial_fallback)
        << family.name << ": failover should recover in-run, not via the ladder";
    EXPECT_GT(sharded.metrics.recovery_seconds, 0.0) << family.name;
  }
}

TEST(ShardedScc, FailoverExhaustionEscalatesToLadder) {
  // max_failovers = 0: the budget trip cannot be survived in-run, so the
  // run escalates to the certification ladder — and the ladder must still
  // deliver the reference labels (a fresh rerun draws a different launch
  // phase on the injector, but the plan here stalls EVERY launch, so the
  // ladder lands on serial Tarjan renamed to max-member IDs).
  DevicePoolConfig cfg = fleet_config();
  cfg.fault_plans.resize(2);
  cfg.fault_plans[1] = stall_plan();
  DevicePool pool(cfg);

  const Digraph g = graph::cycle_chain(12, 6);
  const SccResult reference = single_device_reference(g);

  ShardedOptions opts;
  opts.shards = 4;
  opts.max_failovers = 0;
  opts.ecl.watchdog.max_phase2_rounds = 64;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);

  EXPECT_EQ(sharded.metrics.failovers, 0u);
  EXPECT_EQ(sharded.labels, reference.labels)
      << "the ladder must still deliver reference labels when failover is off";
}

TEST(ShardedScc, StragglerIsFlaggedAndMigrated) {
  // Device 1 only suffers scheduling jitter: correct results, pathological
  // sweep latency. The straggler monitor must flag it against the healthy
  // median and migrate its shard preemptively — no checkpoint restore, no
  // failover, same labels.
  DevicePoolConfig cfg = fleet_config();
  cfg.fault_plans.resize(2);
  cfg.fault_plans[1].seed = 0x51099;
  cfg.fault_plans[1].scheduling_jitter = true;
  cfg.fault_plans[1].max_jitter_us = 3000.0;
  DevicePool pool(cfg);

  Rng rng(0x40710'01);
  const Digraph g = graph::random_digraph(150, 450, rng);
  const SccResult reference = single_device_reference(g);

  ShardedOptions opts;
  opts.shards = 4;
  opts.straggler.min_seconds = 1e-6;  // the families are tiny; drop the noise floor
  opts.straggler.median_multiple = 3.0;
  opts.straggler.patience = 1;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);

  ASSERT_TRUE(sharded.ok()) << sharded.error.message;
  EXPECT_EQ(sharded.labels, reference.labels);
  EXPECT_GE(sharded.metrics.stragglers_flagged, 1u);
  EXPECT_GE(sharded.metrics.straggler_migrations, 1u);
  EXPECT_EQ(sharded.metrics.failovers, 0u) << "migration is graceful, not a failover";
}

TEST(ShardedScc, CheckpointCadenceFollowsConfig) {
  DevicePool pool(fleet_config());
  Rng rng(0x40710'01);
  const Digraph g = graph::random_digraph(150, 450, rng);

  // Every Phase-1 join checkpoints; checkpoint_exchanges = 1 adds one per
  // moving exchange on top.
  ShardedOptions opts;
  opts.shards = 3;
  opts.checkpoint_exchanges = 1;
  const SccResult frequent = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(frequent.ok());
  EXPECT_GE(frequent.metrics.checkpoints_taken,
            frequent.metrics.outer_iterations);
  EXPECT_GT(frequent.metrics.checkpoint_seconds, 0.0);

  opts.checkpoint = false;
  const SccResult off = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.metrics.checkpoints_taken, 0u);
  EXPECT_EQ(off.metrics.checkpoint_seconds, 0.0);
  EXPECT_EQ(off.labels, frequent.labels);
}

TEST(ShardedScc, NoAdmittedDeviceServesAnywayAndSaysSo) {
  // With every pool device quarantined, a single shard serves on a
  // quarantined device by DECISION, not by fall-through — the result is
  // still certified and the metrics carry the last-resort flag.
  DevicePoolConfig cfg = fleet_config(2);
  cfg.health.breaker.window = 4;
  cfg.health.breaker.min_samples = 2;
  cfg.health.breaker.cooldown_seconds = 60.0;
  DevicePool pool(cfg);
  for (int i = 0; i < 4; ++i) {
    pool.record(0, service::FaultKind::kCertification);
    pool.record(1, service::FaultKind::kCertification);
  }
  ASSERT_FALSE(pool.allow(0));
  ASSERT_FALSE(pool.allow(1));

  const Digraph g = graph::grid_dag(10, 10);
  const SccResult reference = single_device_reference(g);

  ShardedOptions opts;
  opts.shards = 1;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.error.message;
  EXPECT_EQ(sharded.labels, reference.labels);
  EXPECT_TRUE(sharded.metrics.pool_last_resort);

  // Two shards apply the same rule.
  opts.shards = 2;
  const SccResult multi = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(multi.ok()) << multi.error.message;
  EXPECT_EQ(multi.labels, reference.labels);
  EXPECT_TRUE(multi.metrics.pool_last_resort);
}

TEST(ShardedScc, ConvergedRunReadmitsAProbationDevice) {
  // A device in probation that gets a shard keeps it through the run, and
  // the certified run records a success on every device that held a shard.
  DevicePoolConfig cfg = fleet_config(2);
  cfg.health.breaker.window = 4;
  cfg.health.breaker.min_samples = 2;
  cfg.health.breaker.cooldown_seconds = 0.001;
  DevicePool pool(cfg);
  for (int i = 0; i < 4; ++i) pool.record(1, service::FaultKind::kStall);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  Rng rng(0x40710'01);
  const Digraph g = graph::random_digraph(150, 450, rng);
  ShardedOptions opts;
  opts.shards = 2;
  opts.straggler.enabled = false;  // a slow sweep must not re-quarantine the probe
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);

  ASSERT_TRUE(sharded.ok()) << sharded.error.message;
  EXPECT_EQ(sharded.labels, single_device_reference(g).labels);
  EXPECT_EQ(sharded.metrics.failovers, 0u) << "the probation device was ejected";
  const auto snap = pool.health().snapshot();
  EXPECT_EQ(snap[1].health, service::BackendHealth::kHealthy);
  EXPECT_EQ(snap[0].faults[static_cast<std::size_t>(service::FaultKind::kNone)], 1u);
}

TEST(ShardedScc, AdmittedPoolDoesNotFlagLastResort) {
  DevicePool pool(fleet_config());
  const Digraph g = graph::grid_dag(10, 10);
  for (unsigned k : {1u, 2u}) {
    ShardedOptions opts;
    opts.shards = k;
    const SccResult sharded = fleet::sharded_scc(g, pool, opts);
    ASSERT_TRUE(sharded.ok());
    EXPECT_FALSE(sharded.metrics.pool_last_resort) << "K=" << k;
  }
}

// ---- shard_cuts partition properties --------------------------------------

TEST(ShardCuts, CutsAreMonotoneCompleteAndSized) {
  for (const auto& family : families()) {
    for (unsigned k : {1u, 2u, 3u, 8u}) {
      const auto cuts = fleet::shard_cuts(family.graph, k);
      ASSERT_EQ(cuts.size(), k + 1) << family.name;
      EXPECT_EQ(cuts.front(), 0u) << family.name;
      EXPECT_EQ(cuts.back(), family.graph.num_vertices()) << family.name;
      for (std::size_t i = 1; i < cuts.size(); ++i)
        EXPECT_LE(cuts[i - 1], cuts[i]) << family.name << " K=" << k;
    }
  }
}

TEST(ShardCuts, BalancesEdgesNotVertices) {
  // A lopsided graph: vertex 0 carries almost all edges. Edge-balanced
  // cuts must isolate the hub into a small vertex range rather than
  // splitting vertices evenly.
  graph::EdgeList e;
  const unsigned n = 100;
  for (unsigned v = 1; v < n; ++v) e.add(0, v);
  e.add(1, 2);
  e.add(2, 3);
  Digraph g(n, e);

  const auto cuts = fleet::shard_cuts(g, 2);
  ASSERT_EQ(cuts.size(), 3u);
  // Shard 0 owns the hub; an equal-vertex split would put the cut at 50,
  // but nearly all edges sit below vertex 1, so the cut lands far left.
  EXPECT_LT(cuts[1], n / 2);
}

TEST(ShardCuts, EdgelessGraphSplitsVerticesEvenly) {
  Digraph g(10, graph::EdgeList{});
  const auto cuts = fleet::shard_cuts(g, 2);
  ASSERT_EQ(cuts.size(), 3u);
  EXPECT_EQ(cuts[1], 5u);
  EXPECT_EQ(cuts[2], 10u);
}

TEST(ShardCuts, MoreShardsThanVerticesYieldsEmptyTailShards) {
  // K > n: valid non-decreasing cuts, the surplus shards own empty ranges,
  // and the engine still matches the reference on them.
  graph::EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);
  Digraph g(3, e);
  const auto cuts = fleet::shard_cuts(g, 8);
  ASSERT_EQ(cuts.size(), 9u);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), 3u);
  for (std::size_t i = 1; i < cuts.size(); ++i) EXPECT_LE(cuts[i - 1], cuts[i]);

  DevicePool pool(fleet_config());
  ShardedOptions opts;
  opts.shards = 8;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.error.message;
  EXPECT_EQ(sharded.labels, single_device_reference(g).labels);
  EXPECT_EQ(sharded.num_components, 1u);
}

TEST(ShardCuts, MoreShardsThanVerticesOnEdgelessGraph) {
  Digraph g(3, graph::EdgeList{});
  const auto cuts = fleet::shard_cuts(g, 8);
  ASSERT_EQ(cuts.size(), 9u);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), 3u);
  for (std::size_t i = 1; i < cuts.size(); ++i) EXPECT_LE(cuts[i - 1], cuts[i]);

  DevicePool pool(fleet_config());
  ShardedOptions opts;
  opts.shards = 8;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.error.message;
  EXPECT_EQ(sharded.num_components, 3u);
}

TEST(ShardCuts, SingleVertexShardsMatchReference) {
  // K = n: every shard owns exactly one vertex, every edge is a boundary
  // edge, and the fixpoint is pure exchange traffic — the hardest stitching
  // case, still bit-identical.
  const Digraph g = fig3_graph();
  const unsigned n = g.num_vertices();
  const auto cuts = fleet::shard_cuts(g, n);
  ASSERT_EQ(cuts.size(), static_cast<std::size_t>(n) + 1);
  EXPECT_EQ(cuts.back(), n);

  DevicePool pool(fleet_config());
  ShardedOptions opts;
  opts.shards = n;
  const SccResult sharded = fleet::sharded_scc(g, pool, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.error.message;
  EXPECT_EQ(sharded.labels, single_device_reference(g).labels);
}

TEST(ShardedScc, HighdiameterLeversPreserveLabelsAcrossShardCounts) {
  // §15 paths in the fleet: chain chasing runs per shard (chases stop at
  // shard boundaries) and the hash-bag frontier stays off at every K. The
  // stitched labels stay bit-identical to the single-device reference and
  // to Tarjan's max-member labels.
  DevicePool pool(fleet_config());
  for (const auto& family : families()) {
    const SccResult reference = single_device_reference(family.graph);
    ASSERT_TRUE(reference.ok()) << family.name;
    EXPECT_EQ(reference.labels, tarjan_max_labels(family.graph)) << family.name;
    for (unsigned k : {1u, 2u, 3u, 8u}) {
      ShardedOptions opts;
      opts.shards = k;
      const SccResult sharded = fleet::sharded_scc(family.graph, pool, opts);
      ASSERT_TRUE(sharded.ok()) << family.name << " K=" << k;
      EXPECT_EQ(sharded.labels, reference.labels)
          << family.name << ": K=" << k << " diverged from single-device labels";
      EXPECT_EQ(sharded.metrics.hashbag_rounds, 0u) << family.name << " K=" << k;
    }
  }
}

TEST(ShardedScc, ChainChasingBitIdenticalUnderSeededChaos) {
  // The §15 chaser joins the chaos differential: a recoverable fault plan on
  // device 1 must still stitch to the reference labels
  // (chases re-apply the same monotone rule; faulted stores retry or are
  // caught by the certifier ladder).
  for (std::uint64_t seed : {0x51u, 0x52u, 0x53u, 0x54u}) {
    DevicePoolConfig cfg = fleet_config();
    cfg.fault_plans.resize(2);
    cfg.fault_plans[1] = FaultPlan::from_seed(seed);
    DevicePool pool(cfg);

    for (const auto& family : families()) {
      const SccResult reference = single_device_reference(family.graph);
      for (unsigned k : {2u, 8u}) {
        ShardedOptions opts;
        opts.shards = k;
        const SccResult sharded = fleet::sharded_scc(family.graph, pool, opts);
        EXPECT_EQ(sharded.labels, reference.labels)
            << family.name << ": K=" << k << " seed=" << seed
            << " diverged under chaos with chain chasing on";
      }
    }
  }
}

}  // namespace
}  // namespace ecl::test

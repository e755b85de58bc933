// Solver differential suite (ctest label: perf).
//
// ECL-SCC's post-paper paths — chunked Phase-3 commits, frontier gating,
// padded signature slots, work stealing, equal edge spans, the gated hub
// reorder, chain chasing and the hash-bag sparse frontier — are the only
// code paths, and each is a pure performance transform. The check is
// therefore against ground truth: the solver's RAW labels must equal
// Tarjan's partition with every component named by its maximum member
// (tarjan_max_labels), on every family, fault-free and under seeded chaos
// plans. Raw-label identity holds because the max-ID labeling is a
// function of the graph alone: a chase only applies the monotone per-edge
// rule early, a sparse round visits a superset of the edges the gate would
// have moved, and a reordered solve renames every component back to its
// maximum ORIGINAL member.
//
// Small graphs rarely reach the adaptive paths on their own, so tuning
// values force them: chain_density > 1 chases from the first sub-m round,
// hashbag_density = 1 sends every eligible round down the sparse path, and
// chain_cap bounds are pinned on the deepest chain family. Both paths read
// the worklist from the CSR through Phase 1's cluster keys (DESIGN.md §15),
// so one cross forces them together in each worklist regime the keys must
// reproduce, fault-free and under chaos plans whose replayed Phase-1
// blocks must not overwrite a key. The hub gate is checked both ways:
// rmat_10 (out-degree CV 2.72) must take the reorder, a mesh-like family
// must not.
//
// The priority switch (DESIGN.md §16) is checked the same way: on two deep
// mobius-strip sweep graphs, where vertex-ID order stalls, the run must
// switch to its random order and still return max-member labels, also
// under chaos plans and across a checkpoint resume; everywhere else, and
// under the two options that forbid it, it must not switch.
//
// FB-Trim names each component after its pivot, so it is checked for
// partition identity on every family.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/test_graphs.hpp"
#include "core/ecl_omp.hpp"
#include "core/ecl_scc.hpp"
#include "core/fb_trim.hpp"
#include "core/registry.hpp"
#include "core/tarjan.hpp"
#include "device/fault.hpp"
#include "graph/edge_list.hpp"
#include "mesh/generators.hpp"
#include "mesh/ordinates.hpp"
#include "mesh/sweep_graph.hpp"

namespace ecl::test {
namespace {

using device::FaultPlan;
using scc::EclOptions;
using scc::SccResult;

const NamedGraph& named(const std::vector<NamedGraph>& graphs, const std::string& name) {
  for (const auto& g : graphs)
    if (g.name == name) return g;
  throw std::logic_error("unknown test graph " + name);
}

/// The hub-gate pair from the shared cross-check set: the one graph there
/// whose out-degree skew admits the reorder, and a mesh-like one that
/// never does.
const std::vector<NamedGraph>& cross_check_graphs() {
  static const std::vector<NamedGraph> graphs = random_graphs();
  return graphs;
}
const NamedGraph& rmat_10() { return named(cross_check_graphs(), "rmat_10"); }
const NamedGraph& mesh_like() { return named(cross_check_graphs(), "profile_mesh_like"); }

/// Small families on which the tuning values can force every adaptive path.
std::vector<NamedGraph> families() {
  std::vector<NamedGraph> fs;
  fs.push_back({"cycle_chain_12x6", graph::cycle_chain(12, 6)});
  fs.push_back({"grid_dag_10x10", graph::grid_dag(10, 10)});
  fs.push_back({"grid_dag_12x12", graph::grid_dag(12, 12)});
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
  {
    Rng rng(0x40710'03);
    graph::SccProfile profile;
    profile.num_vertices = 400;
    profile.giant_fraction = 0.5;
    profile.power_law = true;
    fs.push_back({"powerlaw_400", graph::scc_profile_graph(profile, rng)});
  }
  return fs;
}

/// Chain-heavy boundary families aimed specifically at the chaser's
/// termination cases.
std::vector<NamedGraph> chain_families() {
  std::vector<NamedGraph> fs;
  {
    // Pure directed cycle longer than a small chain_cap: a chase entering
    // the cycle must stop at the budget or the one-lap guard.
    EdgeList e;
    for (vid v = 0; v < 200; ++v) e.add(v, (v + 1) % 200);
    fs.push_back({"cycle_200", Digraph(200, e)});
  }
  {
    // Path of 200 edges (every interior vertex degree-1 both ways) feeding
    // a small cycle: the deepest possible chain for the budget to cut.
    EdgeList e;
    for (vid v = 0; v < 200; ++v) e.add(v, v + 1);
    for (vid v = 200; v < 205; ++v) e.add(v, v + 1);
    e.add(205, 200);
    fs.push_back({"path_200_into_cycle", Digraph(206, e)});
  }
  {
    // Self-loops on a path: succ/pred maps see the loop edge and the path
    // edge, so every vertex is kMany — the chaser must simply decline.
    EdgeList e;
    for (vid v = 0; v < 50; ++v) e.add(v, v);
    for (vid v = 0; v + 1 < 50; ++v) e.add(v, v + 1);
    fs.push_back({"self_loop_path_50", Digraph(50, e)});
  }
  {
    // Chain of 2-cycles: u <-> u+1 pairs linked in a path. Forward and
    // backward chases meet their own starts after one hop.
    EdgeList e;
    for (vid v = 0; v + 1 < 60; v += 2) {
      e.add(v, v + 1);
      e.add(v + 1, v);
      if (v + 2 < 60) e.add(v + 1, v + 2);
    }
    fs.push_back({"two_cycle_chain_30", Digraph(60, e)});
  }
  return fs;
}

/// Everything: the small families, the hub-gate pair, and the
/// chain-boundary families.
std::vector<NamedGraph> all_families() {
  std::vector<NamedGraph> fs = families();
  fs.push_back(rmat_10());
  fs.push_back(mesh_like());
  for (auto& f : chain_families()) fs.push_back(std::move(f));
  return fs;
}

/// Sweep graphs on which vertex-ID order stalls: mobius_strip(4000) at
/// ordinates 2 and 3 of six (n = 3,927). After iteration 3, element order
/// labels only a few percent of the remaining vertices per iteration.
std::vector<NamedGraph> switching_families() {
  const mesh::Mesh strip = mesh::mobius_strip(4000);
  const auto ordinates = mesh::fibonacci_ordinates(6);
  std::vector<NamedGraph> fs;
  fs.push_back({"mobius_4000_ord2", mesh::build_sweep_graph(strip, ordinates[2])});
  fs.push_back({"mobius_4000_ord3", mesh::build_sweep_graph(strip, ordinates[3])});
  return fs;
}

device::DeviceProfile solver_profile(FaultPlan plan = {}) {
  device::DeviceProfile profile = device::tiny_profile();  // zero launch overhead
  profile.fault_plan = plan;
  return profile;
}

TEST(SolverDifferential, DefaultMatchesTarjanMaxLabelsBitForBit) {
  for (const auto& family : all_families()) {
    device::Device dev(solver_profile(), /*workers=*/4);
    const SccResult r = scc::ecl_scc(family.graph, dev);
    ASSERT_TRUE(r.ok()) << family.name << ": " << r.error.message;
    EXPECT_EQ(r.labels, tarjan_max_labels(family.graph)) << family.name;
    EXPECT_EQ(r.num_components, scc::tarjan(family.graph).num_components) << family.name;
    EXPECT_EQ(r.metrics.edges_dropped, 0u) << family.name;
  }
}

TEST(SolverDifferential, SeededFaultPlansMatchTarjanMaxLabels) {
  // The default stall policy completes every labeling (serial fallback keeps
  // the max-ID naming), so raw labels stay comparable even when a plan
  // trips the watchdog.
  for (const auto& family : all_families()) {
    const std::vector<vid> oracle = tarjan_max_labels(family.graph);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const FaultPlan plan = FaultPlan::from_seed(seed);
      device::Device dev(solver_profile(plan), /*workers=*/4);
      const SccResult r = scc::ecl_scc(family.graph, dev);
      EXPECT_EQ(r.labels, oracle) << family.name << " " << plan.describe();
    }
  }
}

TEST(SolverDifferential, EclOmpMatchesTarjanMaxLabels) {
  for (const auto& family : all_families()) {
    const SccResult r = scc::ecl_omp(family.graph);
    ASSERT_TRUE(r.ok()) << family.name;
    EXPECT_EQ(r.labels, tarjan_max_labels(family.graph)) << family.name;
  }
}

TEST(SolverDifferential, HubGateFiresOnSkewedInputOnly) {
  device::Device dev(solver_profile(), /*workers=*/4);
  const SccResult skewed = scc::ecl_scc(rmat_10().graph, dev);
  ASSERT_TRUE(skewed.ok());
  EXPECT_TRUE(skewed.metrics.hub_reorder_applied) << "rmat_10 must take the reorder";
  EXPECT_EQ(skewed.labels, tarjan_max_labels(rmat_10().graph));

  const SccResult mesh = scc::ecl_scc(mesh_like().graph, dev);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh.metrics.hub_reorder_applied) << "the gate must decline a mesh-like graph";
  EXPECT_EQ(mesh.labels, tarjan_max_labels(mesh_like().graph));
}

TEST(SolverDifferential, GateSkipsEdgesAndCountsThem) {
  // On a deep DAG the gate must actually fire (quiescent regions appear as
  // the fixpoint spreads) and the savings must be visible in the metrics.
  // One worker keeps the round count deterministic (see the forced-sparse
  // test below).
  device::Device dev(solver_profile(), /*workers=*/1);
  const SccResult r = scc::ecl_scc(graph::grid_dag(12, 12), dev);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.metrics.edges_skipped, 0u);
  EXPECT_GT(r.metrics.frontier_rounds, 0u);
}

TEST(SolverDifferential, InBlockPassesVisitFewEdgesPerMove) {
  // From its second pass on, an in-block Phase-2 pass visits only edges
  // whose endpoints moved since the block's previous pass began, and dense
  // passes alternate direction (DESIGN.md §10). On the deep sweep graphs
  // that keeps Phase 2 within 4 edge visits per visit that moves a
  // signature, where passes that re-scan the whole span pay 7 to 11. One
  // worker keeps the counts deterministic.
  for (const auto& family : switching_families()) {
    device::Device dev(solver_profile(), /*workers=*/1);
    const SccResult r = scc::ecl_scc(family.graph, dev);
    ASSERT_TRUE(r.ok()) << family.name << ": " << r.error.message;
    EXPECT_EQ(r.labels, tarjan_max_labels(family.graph)) << family.name;
    ASSERT_GT(r.metrics.edges_moved, 0u) << family.name;
    EXPECT_LE(r.metrics.edges_processed, 4 * r.metrics.edges_moved) << family.name;
  }
}

TEST(SolverDifferential, Phase3RemovalsIdenticalAcrossSchedules) {
  // Worker count and block order change which block removes an edge, never
  // WHICH edges are removed or how many outer iterations the fixpoint takes.
  for (const auto& family : families()) {
    device::Device one(solver_profile(), /*workers=*/1);
    const SccResult base = scc::ecl_scc(family.graph, one);
    ASSERT_TRUE(base.ok()) << family.name;
    device::DeviceProfile reversed = solver_profile();
    reversed.reverse_block_order = true;
    device::Device four(reversed, /*workers=*/4);
    const SccResult r = scc::ecl_scc(family.graph, four);
    ASSERT_TRUE(r.ok()) << family.name;
    EXPECT_EQ(r.labels, base.labels) << family.name;
    EXPECT_EQ(r.metrics.edges_removed, base.metrics.edges_removed) << family.name;
    EXPECT_EQ(r.metrics.outer_iterations, base.metrics.outer_iterations) << family.name;
  }
}

TEST(SolverDifferential, ForcedChaserTerminatesOnBoundaryFamilies) {
  for (const auto& family : chain_families()) {
    device::Device dev(solver_profile(), /*workers=*/4);
    EclOptions opts;
    opts.chain_density = 2.0;  // force chases so the boundary cases run
    const SccResult r = scc::ecl_scc(family.graph, dev, opts);
    ASSERT_TRUE(r.ok()) << family.name;
    EXPECT_EQ(r.labels, tarjan_max_labels(family.graph)) << family.name;
    EXPECT_LE(r.metrics.max_chain_len, opts.chain_cap) << family.name;
  }
}

TEST(SolverDifferential, ForcedChaserRecordsCollapsedChains) {
  // chain_density >= 1 forces a chase in every round whose active count is
  // below m (round-level adaptivity would otherwise let a graph this small
  // converge before the chaser arms).
  const auto family = chain_families()[1];  // path_200_into_cycle
  device::Device dev(solver_profile(), /*workers=*/4);
  EclOptions forced;
  forced.chain_density = 2.0;
  const SccResult r = scc::ecl_scc(family.graph, dev, forced);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.labels, tarjan_max_labels(family.graph));
  EXPECT_GT(r.metrics.chains_collapsed, 0u);
  EXPECT_GT(r.metrics.max_chain_len, 0u);
  EXPECT_GE(r.metrics.chain_steps, r.metrics.max_chain_len);
}

TEST(SolverDifferential, ChainCapBoundsEveryChase) {
  // Tight caps on the deepest chain family: the chaser must respect 1 and
  // the exact chain length, and labels stay pinned either way.
  const auto family = chain_families()[1];  // path_200_into_cycle
  const std::vector<vid> oracle = tarjan_max_labels(family.graph);
  device::Device dev(solver_profile(), /*workers=*/4);
  for (std::uint32_t cap : {1u, 2u, 63u, 64u, 65u, 1024u}) {
    EclOptions opts;
    opts.chain_cap = cap;
    opts.chain_density = 2.0;  // force the chaser on this small family
    const SccResult r = scc::ecl_scc(family.graph, dev, opts);
    ASSERT_TRUE(r.ok()) << "cap=" << cap;
    EXPECT_EQ(r.labels, oracle) << "cap=" << cap;
    EXPECT_LE(r.metrics.max_chain_len, cap) << "cap=" << cap;
  }
}

TEST(SolverDifferential, ForcedSparseRoundsMatchTarjanMaxLabels) {
  // hashbag_density = 1.0 sends every eligible round through the sparse
  // path (any frontier is below 100% of the worklist), so the CSR gather
  // itself is exercised, not just the fallback. One
  // worker keeps the round count deterministic: with several, a lucky
  // block order can converge these small graphs in the two dense rounds
  // before a sparse streak can start.
  for (const auto& family : families()) {
    device::Device dev(solver_profile(), /*workers=*/1);
    EclOptions forced;
    forced.hashbag_density = 1.0;
    const SccResult r = scc::ecl_scc(family.graph, dev, forced);
    ASSERT_TRUE(r.ok()) << family.name;
    EXPECT_EQ(r.labels, tarjan_max_labels(family.graph)) << family.name;
    EXPECT_GT(r.metrics.hashbag_rounds, 0u)
        << family.name << ": forced density never took the sparse path";
  }
}

/// The two worklist regimes the cluster-key membership rule (DESIGN.md
/// §15) must reproduce: default, and completed SCCs' edges kept with
/// remove_scc_edges off.
std::vector<std::pair<std::string, EclOptions>> membership_modes() {
  EclOptions forced;
  forced.hashbag_density = 1.0;  // every eligible round goes sparse
  forced.chain_density = 2.0;    // every round below m chases
  EclOptions keep_edges = forced;
  keep_edges.remove_scc_edges = false;
  return {{"default", forced}, {"keep_scc_edges", keep_edges}};
}

TEST(SolverDifferential, ForcedSparseAndChasePathsMatchTarjanInEveryModeUnderChaos) {
  // Sparse rounds and chases read the worklist from the CSR through the
  // cluster keys Phase 1 records. Phase 1 is an idempotent launch, so the
  // chaos device replays its blocks; a replay must not record the
  // signatures its first run has just reset.
  std::vector<NamedGraph> inputs = families();
  const std::size_t small_families = inputs.size();
  for (auto& f : chain_families()) inputs.push_back(std::move(f));
  for (const auto& [mode, opts] : membership_modes()) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const NamedGraph& family = inputs[i];
      const std::vector<vid> oracle = tarjan_max_labels(family.graph);
      for (std::uint64_t seed = 0; seed <= 16; ++seed) {
        const FaultPlan plan = seed == 0 ? FaultPlan{} : FaultPlan::from_seed(seed);
        device::Device dev(solver_profile(plan), /*workers=*/seed == 0 ? 1 : 4);
        const SccResult r = scc::ecl_scc(family.graph, dev, opts);
        const std::string where = family.name + " " + mode + " " + plan.describe();
        EXPECT_EQ(r.labels, oracle) << where;
        if (seed != 0) continue;
        // Fault-free, one worker: the forced paths must really have run.
        // Every input chases; the six small families also go sparse (a
        // lone chase can settle a chain family before a sparse streak).
        EXPECT_GT(r.metrics.chains_collapsed, 0u) << where;
        if (i < small_families) {
          EXPECT_GT(r.metrics.hashbag_rounds, 0u) << where;
        }
      }
    }
  }
}

TEST(SolverDifferential, ForcedSparseAndChasePathsSurviveResume) {
  // Cluster keys are not snapshotted: every resume stays in the iteration
  // whose Phase 1 recorded the live keys. One sweep per Phase-2 call makes
  // every iteration that needs a second sweep trip after each sweep and
  // resume from the live signatures that sweep left.
  for (const auto& family : switching_families()) {
    EclOptions opts = membership_modes().front().second;
    opts.watchdog.max_phase2_rounds = 1;
    opts.checkpoint.max_resumes = 1'000'000;
    device::Device dev(solver_profile(), /*workers=*/4);
    const SccResult r = scc::ecl_scc(family.graph, dev, opts);
    ASSERT_TRUE(r.ok()) << family.name << ": " << r.error.message;
    EXPECT_GE(r.metrics.resumes, 1u) << family.name;
    EXPECT_FALSE(r.metrics.serial_fallback) << family.name;
    EXPECT_EQ(r.labels, tarjan_max_labels(family.graph)) << family.name;
  }
}

TEST(SolverDifferential, StalledSweepsSwitchPriorityOrderAndKeepLabels) {
  for (const auto& family : switching_families()) {
    const std::vector<vid> oracle = tarjan_max_labels(family.graph);
    device::Device dev(solver_profile(), /*workers=*/4);
    const SccResult r = scc::ecl_scc(family.graph, dev);
    ASSERT_TRUE(r.ok()) << family.name << ": " << r.error.message;
    EXPECT_GT(r.metrics.priority_switch_iteration, 0u) << family.name;
    EXPECT_EQ(r.labels, oracle) << family.name;

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const FaultPlan plan = FaultPlan::from_seed(seed);
      device::Device chaos(solver_profile(plan), /*workers=*/4);
      EXPECT_EQ(scc::ecl_scc(family.graph, chaos).labels, oracle)
          << family.name << " " << plan.describe();
    }

    const SccResult dense = scc::run_algorithm_on("ecl-loadbalance", family.graph, dev);
    ASSERT_TRUE(dense.ok()) << family.name;
    EXPECT_EQ(dense.labels, oracle) << family.name << " ecl-loadbalance";
  }
}

TEST(SolverDifferential, ResumeAfterPrioritySwitchKeepsLabels) {
  // A one-sweep Phase-2 budget trips the watchdog in every iteration that
  // needs a second sweep, the switched ones included; each trip resumes
  // from the live signatures, which carry the random order, so the resumed
  // sweeps must read them through the same π⁻¹.
  for (const auto& family : switching_families()) {
    EclOptions opts;
    opts.watchdog.max_phase2_rounds = 1;
    opts.checkpoint.max_resumes = 1'000'000;
    device::Device dev(solver_profile(), /*workers=*/4);
    const SccResult r = scc::ecl_scc(family.graph, dev, opts);
    ASSERT_TRUE(r.ok()) << family.name << ": " << r.error.message;
    EXPECT_GT(r.metrics.priority_switch_iteration, 0u) << family.name;
    EXPECT_GE(r.metrics.resumes, 1u) << family.name;
    EXPECT_FALSE(r.metrics.serial_fallback) << family.name;
    EXPECT_EQ(r.labels, tarjan_max_labels(family.graph)) << family.name;
  }
}

TEST(SolverDifferential, PrioritySwitchStaysOffWhereItIsNotDue) {
  device::Device dev(solver_profile(), /*workers=*/4);
  for (const auto& family : all_test_graphs()) {
    const SccResult r = scc::ecl_scc(family.graph, dev);
    ASSERT_TRUE(r.ok()) << family.name;
    EXPECT_EQ(r.metrics.priority_switch_iteration, 0u) << family.name;
  }
  // The option that forbids the switch, on graphs where it is due.
  for (const auto& family : switching_families()) {
    const std::vector<vid> oracle = tarjan_max_labels(family.graph);
    EclOptions keep_edges;
    keep_edges.remove_scc_edges = false;
    const SccResult kept = scc::ecl_scc(family.graph, dev, keep_edges);
    ASSERT_TRUE(kept.ok()) << family.name;
    EXPECT_EQ(kept.metrics.priority_switch_iteration, 0u) << family.name << " keep edges";
    EXPECT_EQ(kept.labels, oracle) << family.name << " keep edges";
  }
}

TEST(SolverDifferential, FbOptionCombosMatchTarjanPartitions) {
  // FB-Trim names components after their pivots, so it is checked against
  // Tarjan's partition rather than its labels.
  device::Device dev(solver_profile(), /*workers=*/4);
  for (const auto& family : all_families()) {
    const SccResult oracle = scc::tarjan(family.graph);
    const SccResult r = scc::fb_trim(family.graph, dev);
    ASSERT_TRUE(r.ok()) << family.name;
    EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels)) << family.name;
  }
}

}  // namespace
}  // namespace ecl::test

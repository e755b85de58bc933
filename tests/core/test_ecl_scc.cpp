// The optimized parallel ECL-SCC must agree with Tarjan under EVERY
// combination of the four optimization toggles (Fig. 14's ablation space),
// on multiple device profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/test_graphs.hpp"
#include "core/ecl_scc.hpp"
#include "core/fb_trim.hpp"
#include "core/propagate.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"
#include "device/fault.hpp"
#include "device/signature_store.hpp"

namespace ecl::test {
namespace {

using scc::EclOptions;

struct OptionCase {
  EclOptions opts;
  std::string name;
};

std::vector<OptionCase> all_option_combinations() {
  std::vector<OptionCase> cases;
  for (int bits = 0; bits < 16; ++bits) {
    EclOptions o;
    o.async_phase2 = bits & 1;
    o.remove_scc_edges = bits & 2;
    o.path_compression = bits & 4;
    o.persistent_threads = bits & 8;
    std::string name;
    name += o.async_phase2 ? "async_" : "sync_";
    name += o.remove_scc_edges ? "rm_" : "keep_";
    name += o.path_compression ? "pc_" : "nopc_";
    name += o.persistent_threads ? "pt_" : "nopt_";
    name += "racy";  // the paper's atomic-free monotonic store
    cases.push_back({o, name});
  }
  return cases;
}

class EclOptionSweep : public ::testing::TestWithParam<OptionCase> {};

TEST_P(EclOptionSweep, MatchesTarjanOnRepresentativeGraphs) {
  const EclOptions& opts = GetParam().opts;
  Rng rng(2024);
  std::vector<NamedGraph> graphs = structured_graphs();
  graphs.push_back({"er_dense", graph::random_digraph(150, 600, rng)});
  graphs.push_back({"er_sparse", graph::random_digraph(150, 150, rng)});

  for (const auto& g : graphs) {
    const auto oracle = scc::tarjan(g.graph);
    const auto r = scc::ecl_scc(g.graph, opts);
    ASSERT_EQ(r.num_components, oracle.num_components) << g.name;
    ASSERT_TRUE(scc::same_partition(r.labels, oracle.labels)) << g.name;
    ASSERT_TRUE(scc::verify_max_id_labels(r.labels).ok) << g.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllToggleCombinations, EclOptionSweep,
                         ::testing::ValuesIn(all_option_combinations()),
                         [](const ::testing::TestParamInfo<OptionCase>& info) {
                           return info.param.name;
                         });

TEST(EclScc, WorksOnTinyDeviceProfile) {
  // 2 SMs, 32-thread blocks: exercises grid-stride remainder handling.
  device::Device dev(device::tiny_profile());
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = graph::random_digraph(200, 500, rng);
    const auto oracle = scc::tarjan(g);
    const auto r = scc::ecl_scc(g, dev);
    EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels));
  }
}

TEST(EclScc, TitanVAndA100ProfilesAgree) {
  device::Device titan(device::titan_v_profile());
  device::Device a100(device::a100_profile());
  const auto g = fig3_graph();
  const auto r1 = scc::ecl_scc(g, titan);
  const auto r2 = scc::ecl_scc(g, a100);
  EXPECT_TRUE(scc::same_partition(r1.labels, r2.labels));
}

TEST(EclScc, AsyncModeReducesKernelLaunches) {
  // §3.3: the asynchronous Phase-2 kernel cuts launch count substantially
  // on inputs where propagation iterates many times (deep chains).
  const auto g = graph::cycle_chain(64, 20);
  EclOptions sync_opts;
  sync_opts.async_phase2 = false;
  EclOptions async_opts;
  async_opts.async_phase2 = true;

  device::Device dev_sync(device::a100_profile());
  device::Device dev_async(device::a100_profile());
  const auto sync_result = scc::ecl_scc(g, dev_sync, sync_opts);
  const auto async_result = scc::ecl_scc(g, dev_async, async_opts);
  EXPECT_LT(async_result.metrics.kernel_launches, sync_result.metrics.kernel_launches);
  EXPECT_TRUE(scc::same_partition(sync_result.labels, async_result.labels));
}

TEST(EclScc, ConvergedGraphSkipsEmptyLaunches) {
  // An edgeless graph converges immediately: Phase 2 and Phase 3 have zero
  // edges, blocks_for(0) is a zero grid, and a zero-grid launch is a no-op
  // (DESIGN.md §11). Only Phase 1 and the detect kernel may launch.
  device::Device dev(device::a100_profile());
  const auto g = graph::Digraph(64, {});
  const auto r = scc::ecl_scc(g, dev);
  EXPECT_EQ(r.num_components, 64u);
  EXPECT_EQ(r.metrics.outer_iterations, 1u);
  EXPECT_EQ(r.metrics.kernel_launches, 2u);  // phase1 + detect, nothing else
}

TEST(EclScc, PathCompressionReducesPropagationRounds) {
  // A long cycle is the worst case for plain propagation (c in O(d c |E|));
  // compression traverses it in ~log(c) rounds (§3.3). Compare in sync mode
  // where propagation_rounds directly counts fixpoint sweeps.
  const auto g = graph::cycle_graph(4096);
  EclOptions base;
  base.async_phase2 = false;
  base.path_compression = false;
  EclOptions compressed = base;
  compressed.path_compression = true;

  const auto plain = scc::ecl_scc(g, base);
  const auto fast = scc::ecl_scc(g, compressed);
  EXPECT_LT(fast.metrics.propagation_rounds, plain.metrics.propagation_rounds / 4)
      << "path compression should cut rounds by far more than 4x on a long cycle";
}

TEST(EclScc, RemoveSccEdgesShrinksWorkload) {
  // On a graph that is one big SCC plus a tail, removing completed-SCC
  // edges empties the worklist after the first iteration.
  graph::EdgeList e;
  for (graph::vid v = 0; v < 50; ++v) e.add(v, (v + 1) % 50);
  e.add(10, 50);  // tail
  e.add(50, 51);
  const graph::Digraph g(52, e);

  EclOptions with_rm;
  with_rm.remove_scc_edges = true;
  EclOptions without_rm;
  without_rm.remove_scc_edges = false;

  const auto a = scc::ecl_scc(g, with_rm);
  const auto b = scc::ecl_scc(g, without_rm);
  EXPECT_TRUE(scc::same_partition(a.labels, b.labels));
  EXPECT_GE(a.metrics.edges_removed, b.metrics.edges_removed);
  EXPECT_LE(a.metrics.edges_processed, b.metrics.edges_processed);
}

TEST(EclScc, StoresThatReportMovementStampThePassMark) {
  // The in-block pass filter (DESIGN.md §10) trusts every store that
  // reports movement to stamp its owner's pass mark with the view's tick,
  // a deferred store included; a view with tick 0 (the fleet's K > 1
  // kernels) stamps nothing, and a lost store reports no movement.
  device::SignatureStore sigs(3);
  scc::detail::SigView view{sigs};
  view.tick = 7;
  EXPECT_TRUE(scc::detail::store_max(view, sigs.vin(0), 0, 5, /*round=*/2));
  EXPECT_EQ(sigs.mark_of(0), 7u);
  EXPECT_EQ(sigs.epoch_of(0), 2u);
  view.tick = 8;
  EXPECT_FALSE(scc::detail::store_max(view, sigs.vin(0), 0, 4, 3));
  EXPECT_EQ(sigs.mark_of(0), 7u) << "a store that moves nothing stamps nothing";

  view.tick = 0;
  EXPECT_TRUE(scc::detail::store_max(view, sigs.vout(1), 1, 5, 0));
  EXPECT_EQ(sigs.mark_of(1), 0u);

  device::FaultPlan plan;
  plan.delayed_visibility = true;
  plan.store_defer_probability = 1.0;
  device::FaultInjector fault(plan);
  scc::detail::SigView deferring{sigs, &fault};
  deferring.tick = 9;
  EXPECT_TRUE(scc::detail::store_max(deferring, sigs.vout(2), 2, 5, 4));
  EXPECT_EQ(sigs.vout(2).load(), 0u) << "a deferred store does not land";
  EXPECT_EQ(sigs.mark_of(2), 9u);

  device::FaultPlan lossy;
  lossy.lost_update = true;
  lossy.store_lose_probability = 1.0;
  device::FaultInjector loser(lossy);
  scc::detail::SigView losing{sigs, &loser};
  losing.tick = 10;
  EXPECT_FALSE(scc::detail::store_max(losing, sigs.vout(1), 1, 6, 5));
  EXPECT_EQ(sigs.vout(1).load(), 5u) << "a lost store does not land";
  EXPECT_EQ(sigs.epoch_of(1), 0u) << "a lost store stamps no epoch";
  EXPECT_EQ(sigs.mark_of(1), 0u) << "a lost store stamps no pass mark";
}

TEST(EclScc, MetricsAreConsistent) {
  const auto g = fig3_graph();
  const auto r = scc::ecl_scc(g);
  EXPECT_GE(r.metrics.outer_iterations, 1u);
  EXPECT_GE(r.metrics.propagation_rounds, r.metrics.outer_iterations);
  EXPECT_GT(r.metrics.kernel_launches, 0u);
  EXPECT_GT(r.metrics.edges_processed, 0u);
  // All 15 edges are eventually dropped (cross-SCC) or retired (intra-SCC).
  EXPECT_LE(r.metrics.edges_removed, g.num_edges());
}

TEST(EclScc, GuardTriggersOnImpossibleBudget) {
  scc::EclOptions opts;
  opts.max_outer_iterations = 1;
  // fig3 needs >= 2 outer iterations, so the guard must fire — reported as
  // a structured error, with the serial fallback completing the labeling.
  const auto r = scc::ecl_scc(fig3_graph(), opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, scc::SccStatus::kIterationGuard);
  EXPECT_TRUE(r.metrics.serial_fallback);
  EXPECT_GT(r.metrics.fallback_vertices, 0u);
  const auto oracle = scc::tarjan(fig3_graph());
  EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels));
  EXPECT_EQ(r.num_components, oracle.num_components);
}

TEST(EclScc, GuardWithReturnErrorPolicyLeavesPartialLabels) {
  scc::EclOptions opts;
  opts.max_outer_iterations = 1;
  opts.stall_policy = scc::StallPolicy::kReturnError;
  const auto r = scc::ecl_scc(fig3_graph(), opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, scc::SccStatus::kIterationGuard);
  EXPECT_FALSE(r.metrics.serial_fallback);
  EXPECT_EQ(r.num_components, 0u);
}

TEST(EclScc, EmptyAndTinyGraphs) {
  EXPECT_EQ(scc::ecl_scc(graph::Digraph(0, graph::EdgeList{})).num_components, 0u);
  const auto single = scc::ecl_scc(graph::Digraph(1, graph::EdgeList{}));
  EXPECT_EQ(single.num_components, 1u);
  EXPECT_EQ(single.labels[0], 0u);
}

TEST(EclScc, AllOptimizationsOffStillCorrect) {
  const auto opts = scc::ecl_all_optimizations_off();
  EXPECT_FALSE(opts.async_phase2);
  EXPECT_FALSE(opts.remove_scc_edges);
  EXPECT_FALSE(opts.path_compression);
  EXPECT_FALSE(opts.persistent_threads);
  Rng rng(77);
  const auto g = graph::random_digraph(300, 900, rng);
  const auto oracle = scc::tarjan(g);
  EXPECT_TRUE(scc::same_partition(scc::ecl_scc(g, opts).labels, oracle.labels));
}

TEST(EclScc, DeterministicAcrossRunsOnSameDevice) {
  // The final labels are determined by the graph alone (max member IDs),
  // regardless of racing schedules.
  Rng rng(123);
  const auto g = graph::random_digraph(400, 1200, rng);
  const auto first = scc::ecl_scc(g);
  for (int i = 0; i < 3; ++i) {
    const auto again = scc::ecl_scc(g);
    EXPECT_EQ(first.labels, again.labels);
  }
}

}  // namespace
}  // namespace ecl::test

// ---- failure injection: adversarial block scheduling ----------------------

namespace ecl::test {
namespace {

TEST(EclScc, CorrectUnderReversedBlockScheduling) {
  device::DeviceProfile profile = device::a100_profile();
  profile.launch_overhead_us = 0.0;
  profile.reverse_block_order = true;
  device::Device adversarial(profile);
  Rng rng(909);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = graph::random_digraph(300, 900, rng);
    const auto oracle = scc::tarjan(g);
    EXPECT_TRUE(scc::same_partition(scc::ecl_scc(g, adversarial).labels, oracle.labels));
  }
}

TEST(FbTrimInjection, CorrectUnderReversedBlockScheduling) {
  device::DeviceProfile profile = device::a100_profile();
  profile.launch_overhead_us = 0.0;
  profile.reverse_block_order = true;
  device::Device adversarial(profile);
  Rng rng(910);
  const auto g = graph::random_digraph(300, 900, rng);
  const auto oracle = scc::tarjan(g);
  EXPECT_TRUE(scc::same_partition(scc::fb_trim(g, adversarial, {}).labels, oracle.labels));
}

}  // namespace
}  // namespace ecl::test

namespace ecl::test {
namespace {

TEST(EclScc, PhaseTimingBreakdownIsPopulated) {
  Rng rng(4242);
  const auto g = graph::random_digraph(2000, 8000, rng);
  // One preempted launch can stretch either phase of a single solve; the
  // smallest time over a few solves is each phase's own cost.
  double phase1 = std::numeric_limits<double>::infinity();
  double phase2 = phase1;
  for (int run = 0; run < 5; ++run) {
    const auto r = scc::ecl_scc(g);
    EXPECT_GT(r.metrics.phase1_seconds, 0.0);
    EXPECT_GT(r.metrics.phase2_seconds, 0.0);
    EXPECT_GT(r.metrics.phase3_seconds, 0.0);
    phase1 = std::min(phase1, r.metrics.phase1_seconds);
    phase2 = std::min(phase2, r.metrics.phase2_seconds);
  }
  // §3.3: Phase 2 "is the most performance critical code".
  EXPECT_GT(phase2, phase1);
}

}  // namespace
}  // namespace ecl::test

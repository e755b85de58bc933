// Direct tests of the paper's §3.2 guarantees: which SCCs an outer
// iteration detects — and which edges Phase 3 removes — is fully
// determined by the vertex-ID layout, so adversarial relabelings give
// exact, closed-form iteration counts. Deriving them:
//
//  * v_in converges to the max ID over ancestors-and-self, v_out to the
//    max over descendants-and-self;
//  * an edge survives Phase 3 iff BOTH endpoint signatures match, so a
//    cluster splits wherever a prefix/suffix maximum changes — clusters
//    fragment much faster than "one max SCC per iteration" suggests.

#include <gtest/gtest.h>

#include <numeric>

#include "common/test_graphs.hpp"
#include "core/ecl_scc.hpp"
#include "core/ecl_serial.hpp"
#include "graph/permute.hpp"

namespace ecl::test {
namespace {

using graph::vid;

graph::Digraph relabeled_chain(vid k, vid len, const std::vector<vid>& perm) {
  return graph::apply_permutation(graph::cycle_chain(k, len), perm);
}

TEST(EclGuarantees, DisjointCyclesConvergeInOneIteration) {
  // Every SCC is the max SCC of its own (singleton) cluster: one iteration.
  graph::EdgeList e;
  for (vid c = 0; c < 20; ++c) {
    const vid base = c * 6;
    for (vid i = 0; i < 6; ++i) e.add(base + i, base + (i + 1) % 6);
  }
  const graph::Digraph g(120, e);
  const auto r = scc::ecl_serial(g);
  EXPECT_EQ(r.metrics.outer_iterations, 1u);
  EXPECT_EQ(r.num_components, 20u);
}

TEST(EclGuarantees, IncreasingIdChainTakesExactlyTwoIterations) {
  // IDs increase along the SCC chain: v_out is the global max everywhere
  // (equal), but v_in is each SCC's own max (distinct), so Phase 3 removes
  // EVERY bridge in iteration 1; iteration 2 detects all isolated SCCs.
  constexpr vid k = 12;
  constexpr vid len = 3;
  std::vector<vid> identity(k * len);
  std::iota(identity.begin(), identity.end(), 0);
  const auto r = scc::ecl_serial(relabeled_chain(k, len, identity));
  EXPECT_EQ(r.metrics.outer_iterations, 2u);
  EXPECT_EQ(r.num_components, k);
}

TEST(EclGuarantees, DecreasingIdChainTakesExactlyTwoIterations) {
  // Mirror image: v_in is the global max everywhere, v_out is each SCC's
  // own max — again every bridge dies in iteration 1.
  constexpr vid k = 12;
  constexpr vid len = 3;
  std::vector<vid> reversed(k * len);
  for (vid v = 0; v < k * len; ++v) reversed[v] = k * len - 1 - v;
  const auto r = scc::ecl_serial(relabeled_chain(k, len, reversed));
  EXPECT_EQ(r.metrics.outer_iterations, 2u);
  EXPECT_EQ(r.num_components, k);
}

/// Path v0 -> v1 -> ... -> v_{k-1} with IDs (k-1, 0, 1, ..., k-2): the
/// global max sits at the head and the rest increase.
graph::Digraph max_at_head_path(vid k) {
  std::vector<vid> perm(k);
  perm[0] = k - 1;
  for (vid v = 1; v < k; ++v) perm[v] = v - 1;
  return graph::apply_permutation(graph::path_graph(k), perm);
}

TEST(EclGuarantees, MaxAtHeadPathTakesExactlyThreeIterations) {
  // Iteration 1: v_in == global max everywhere, v_out == global max only
  // at the head -> only the head is detected and only its out-edge is
  // removed. Iteration 2: the remainder is an increasing chain -> all its
  // edges are removed, only its last vertex detected... plus the rest in
  // iteration 3. Exact count: 3.
  const auto r = scc::ecl_serial(max_at_head_path(40));
  EXPECT_EQ(r.metrics.outer_iterations, 3u);
  EXPECT_EQ(r.num_components, 40u);
}

TEST(EclGuarantees, RandomIdsStayNearLogarithmic) {
  // §3: random vertex IDs fragment the cluster at every prefix/suffix
  // maximum, giving ~log(d) iterations on a depth-64 chain.
  constexpr vid k = 64;
  Rng rng(2718);
  std::uint64_t total = 0;
  std::uint64_t worst = 0;
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto perm = graph::random_permutation(k * 2, rng);
    const auto g = relabeled_chain(k, 2, perm);
    const auto iters = scc::ecl_serial(g).metrics.outer_iterations;
    total += iters;
    worst = std::max(worst, iters);
  }
  EXPECT_LT(total / double(kTrials), 10.0);
  EXPECT_LE(worst, 16u);
  EXPECT_GE(total, 2u * kTrials) << "chains always need at least 2 iterations";
}

TEST(EclGuarantees, ParallelVersionMatchesIterationModel) {
  // The optimized device implementation obeys the same outer-iteration
  // semantics as Algorithm 1 on the closed-form layouts.
  constexpr vid k = 10;
  constexpr vid len = 2;
  std::vector<vid> identity(k * len);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(scc::ecl_scc(relabeled_chain(k, len, identity)).metrics.outer_iterations, 2u);
  EXPECT_EQ(scc::ecl_scc(max_at_head_path(30)).metrics.outer_iterations, 3u);
}

}  // namespace
}  // namespace ecl::test

#include <gtest/gtest.h>

#include "common/test_graphs.hpp"
#include "core/fb_trim.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"

namespace ecl::test {
namespace {

using scc::FbOptions;

TEST(FbTrim, MatchesTarjanWithAllTrimCombinations) {
  Rng rng(31);
  std::vector<NamedGraph> graphs = structured_graphs();
  graphs.push_back({"er", graph::random_digraph(200, 600, rng)});

  for (int bits = 0; bits < 4; ++bits) {
    FbOptions opts;
    opts.trim1 = bits & 1;
    opts.trim2 = bits & 2;
    for (const auto& g : graphs) {
      const auto oracle = scc::tarjan(g.graph);
      const auto r = scc::fb_trim(g.graph, opts);
      ASSERT_TRUE(scc::same_partition(r.labels, oracle.labels))
          << g.name << " trims=" << bits;
    }
  }
}

TEST(FbTrim, Fig1PivotDecomposition) {
  // Fig. 1's example: the SCC {0,1,2} plus forward-only, backward-only,
  // and unreachable remainders must all be separated correctly.
  const auto g = fig1_graph();
  const auto r = scc::fb_trim(g);
  const auto oracle = scc::tarjan(g);
  EXPECT_EQ(r.num_components, oracle.num_components);
  EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels));
}

TEST(FbTrim, PureTrimGraphNeedsNoBfs) {
  // A DAG is fully consumed by iterated Trim-1: zero BFS levels.
  const auto r = scc::fb_trim(graph::grid_dag(16, 16));
  EXPECT_EQ(r.num_components, 256u);
  EXPECT_EQ(r.metrics.edges_processed, 0u) << "BFS ran on a fully trimmable graph";
}

TEST(FbTrim, TrimDisabledStillCorrectOnDag) {
  FbOptions opts;
  opts.trim1 = opts.trim2 = false;
  const auto r = scc::fb_trim(graph::grid_dag(8, 8), opts);
  EXPECT_EQ(r.num_components, 64u);
}

TEST(FbTrim, DeepDagNeedsManyRoundsWithoutTrim) {
  // The motivating weakness (§1): FB without trimming peels one pivot SCC
  // per color per round; a path decomposes slowly compared to ECL-SCC.
  FbOptions no_trim;
  no_trim.trim1 = no_trim.trim2 = false;
  const auto slow = scc::fb_trim(graph::path_graph(64), no_trim);
  const auto fast = scc::fb_trim(graph::path_graph(64));
  EXPECT_GT(slow.metrics.outer_iterations, fast.metrics.outer_iterations);
  EXPECT_EQ(slow.num_components, 64u);
}

TEST(FbTrim, GiantSccDetectedInOneRound) {
  // FB's favorable case: one SCC containing everything, named after
  // GPU-SCC's pivot, the largest vertex ID.
  const auto r = scc::fb_trim(graph::cycle_graph(512));
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.metrics.outer_iterations, 1u);
  for (graph::vid v = 0; v < 512; ++v) ASSERT_EQ(r.labels[v], 511u) << "vertex " << v;
}

TEST(FbTrim, LabelsArePivotsOrTrimMaxima) {
  // Every label must be a member of its own class (pivot or max member).
  Rng rng(64);
  const auto g = graph::random_digraph(300, 900, rng);
  const auto r = scc::fb_trim(g);
  for (graph::vid v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(r.labels[v], g.num_vertices());
    ASSERT_EQ(r.labels[r.labels[v]], r.labels[v]) << "label not in its own class";
  }
}

TEST(FbTrim, WorksOnTinyDevice) {
  device::Device dev(device::tiny_profile());
  const auto g = fig3_graph();
  const auto oracle = scc::tarjan(g);
  EXPECT_TRUE(scc::same_partition(scc::fb_trim(g, dev, {}).labels, oracle.labels));
}

}  // namespace
}  // namespace ecl::test

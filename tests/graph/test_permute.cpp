#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/test_graphs.hpp"
#include "graph/generators.hpp"
#include "graph/permute.hpp"

namespace ecl::test {
namespace {

using graph::vid;

TEST(Permute, RandomPermutationIsAPermutation) {
  Rng rng(1);
  const auto perm = graph::random_permutation(100, rng);
  std::vector<vid> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (vid i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Permute, ApplyPreservesEdges) {
  Rng rng(2);
  const auto g = graph::cycle_graph(20);
  const auto perm = graph::random_permutation(20, rng);
  const auto h = graph::apply_permutation(g, perm);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (vid u = 0; u < 20; ++u)
    for (vid v : g.out_neighbors(u)) EXPECT_TRUE(h.has_edge(perm[u], perm[v]));
}

TEST(Permute, IdentityPermutationIsNoop) {
  const auto g = graph::grid_dag(4, 4);
  std::vector<vid> identity(16);
  std::iota(identity.begin(), identity.end(), 0);
  const auto h = graph::apply_permutation(g, identity);
  EXPECT_EQ(std::vector<vid>(h.targets().begin(), h.targets().end()),
            std::vector<vid>(g.targets().begin(), g.targets().end()));
}

TEST(Permute, ReverseCommutesWithPermutation) {
  // The service derives the hub-reordered solve graph's reverse by
  // permuting the graph's reverse; it must be the permuted graph's reverse
  // in offsets and targets.
  const auto same_csr = [](const graph::Digraph& a, const graph::Digraph& b) {
    return std::ranges::equal(a.offsets(), b.offsets()) &&
           std::ranges::equal(a.targets(), b.targets());
  };
  std::vector<std::pair<NamedGraph, std::vector<vid>>> cases;
  Rng rng(5);
  for (auto& family : all_test_graphs()) {
    if (family.name == "rmat_10") {
      std::vector<vid> hub = graph::hub_clustering_permutation(family.graph);
      ASSERT_FALSE(hub.empty());
      cases.emplace_back(family, std::move(hub));
    }
    if (family.name == "empty" || family.name == "fig3" || family.name == "cycle_chain_20x5" ||
        family.name == "rmat_10" || family.name == "profile_giant") {
      std::vector<vid> perm = graph::random_permutation(family.graph.num_vertices(), rng);
      cases.emplace_back(std::move(family), std::move(perm));
    }
  }
  ASSERT_EQ(cases.size(), 6u);
  for (const auto& [family, perm] : cases) {
    const graph::Digraph& g = family.graph;
    EXPECT_TRUE(same_csr(graph::apply_permutation(g.reverse(), perm),
                         graph::apply_permutation(g, perm).reverse()))
        << family.name;
  }
}

TEST(Permute, SizeMismatchThrows) {
  const auto g = graph::path_graph(5);
  std::vector<vid> bad(3, 0);
  EXPECT_THROW((void)graph::apply_permutation(g, bad), std::invalid_argument);
}

TEST(Permute, RandomlyPermuteReturnsConsistentPair) {
  Rng rng(3);
  const auto g = graph::path_graph(30);
  const auto [h, perm] = graph::randomly_permute(g, rng);
  for (vid v = 0; v + 1 < 30; ++v) EXPECT_TRUE(h.has_edge(perm[v], perm[v + 1]));
}

TEST(Permute, InvertPermutationRoundTrips) {
  Rng rng(4);
  const auto perm = graph::random_permutation(64, rng);
  const auto inv = graph::invert_permutation(perm);
  for (vid v = 0; v < 64; ++v) {
    EXPECT_EQ(inv[perm[v]], v);
    EXPECT_EQ(perm[inv[v]], v);
  }
}

TEST(Permute, HubClusteringIsIdentityOnUniformGraphs) {
  // Every vertex of a cycle has total degree 2: no hubs, nothing to move,
  // and the function signals "identity" with an empty vector so callers can
  // skip the graph rebuild entirely.
  EXPECT_TRUE(graph::hub_clustering_permutation(graph::cycle_graph(50)).empty());
  EXPECT_TRUE(graph::hub_clustering_permutation(graph::Digraph(10, {})).empty());
}

TEST(Permute, HubClusteringMovesHubsToTopIds) {
  // A star: vertex 0 points at 1..40 and each points back. Vertex 0's total
  // degree (80) is far above the mean, so it must receive the TOP vertex ID.
  const vid n = 41;
  graph::EdgeList edges;
  for (vid v = 1; v < n; ++v) {
    edges.add(0, v);
    edges.add(v, 0);
  }
  const auto g = graph::Digraph(n, edges);
  const auto perm = graph::hub_clustering_permutation(g);
  ASSERT_EQ(perm.size(), n);
  EXPECT_EQ(perm[0], n - 1);

  // And it is a valid permutation: non-hubs keep their relative order.
  std::vector<vid> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (vid i = 0; i < n; ++i) ASSERT_EQ(sorted[i], i);
  for (vid v = 1; v + 1 < n; ++v) EXPECT_LT(perm[v], perm[v + 1]);
}

TEST(Permute, HubClusteringOrdersHubsByDegreeDescending) {
  // Two hubs of different fan-out on a sea of low-degree vertices: the
  // bigger hub must land on the bigger ID, clustering the hottest signature
  // slots at the very top of the ID range.
  const vid n = 60;
  graph::EdgeList edges;
  for (vid v = 10; v < n; ++v) edges.add(3, v);  // fan-out 50
  for (vid v = 20; v < n; ++v) edges.add(7, v);  // fan-out 40
  const auto g = graph::Digraph(n, edges);
  const auto perm = graph::hub_clustering_permutation(g);
  ASSERT_EQ(perm.size(), n);
  EXPECT_EQ(perm[3], n - 1);
  EXPECT_EQ(perm[7], n - 2);
}

}  // namespace
}  // namespace ecl::test

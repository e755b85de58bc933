#ifndef ECL_TESTS_COMMON_TEST_GRAPHS_HPP
#define ECL_TESTS_COMMON_TEST_GRAPHS_HPP

// Shared graph fixtures for the test suite: the paper's illustrative
// examples and a family of structured/random graphs with known SCC
// decompositions.

#include <algorithm>
#include <string>
#include <vector>

#include "core/tarjan.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace ecl::test {

using graph::Digraph;
using graph::EdgeList;
using graph::vid;

/// A 12-vertex, 15-edge graph in the spirit of the paper's Fig. 3: two
/// mutually unreachable clusters, a chain of SCCs in each.
///
/// Cluster 1: {0} -> {2,7} -> {5} -> {1,4,9}     (max SCC rooted at 9)
/// Cluster 2: {3,6} -> {10} -> {8,11}            (max SCC rooted at 11)
inline Digraph fig3_graph() {
  EdgeList e;
  // cluster 1
  e.add(2, 7);
  e.add(7, 2);
  e.add(0, 2);
  e.add(7, 5);
  e.add(2, 5);
  e.add(5, 9);
  e.add(9, 4);
  e.add(4, 1);
  e.add(1, 9);
  // cluster 2
  e.add(3, 6);
  e.add(6, 3);
  e.add(3, 10);
  e.add(10, 11);
  e.add(11, 8);
  e.add(8, 11);
  return Digraph(12, e);
}

/// Expected components of fig3_graph(), keyed by max member ID.
inline std::vector<std::vector<vid>> fig3_components() {
  return {{0}, {2, 7}, {5}, {1, 4, 9}, {3, 6}, {10}, {8, 11}};
}

/// The Fig. 1 example graph used to illustrate Forward-Backward: a graph
/// where pivot 0's SCC is {0, 1, 2} with forward-only, backward-only, and
/// unreachable remainders.
inline Digraph fig1_graph() {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);  // pivot SCC {0,1,2}
  e.add(2, 3);
  e.add(3, 4);  // forward-only chain
  e.add(5, 0);
  e.add(6, 5);  // backward-only chain
  e.add(7, 8);  // unreachable pair
  return Digraph(9, e);
}

/// Small SCC patterns from Fig. 2: size-1, size-2, and size-3 components
/// hanging off a host graph.
inline Digraph fig2_graph() {
  EdgeList e;
  // (a) size-1: vertex 0 feeding into the rest
  e.add(0, 1);
  // (b) size-2: 1 <-> 2
  e.add(1, 2);
  e.add(2, 1);
  // (c) size-3 ring: 3 -> 4 -> 5 -> 3, entered from 2
  e.add(2, 3);
  e.add(3, 4);
  e.add(4, 5);
  e.add(5, 3);
  return Digraph(6, e);
}

/// Named deterministic graph family used by parameterized cross-checks.
struct NamedGraph {
  std::string name;
  Digraph graph;
};

inline std::vector<NamedGraph> structured_graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"empty", Digraph(0, EdgeList{})});
  graphs.push_back({"single_vertex", Digraph(1, EdgeList{})});
  {
    EdgeList e;
    e.add(0, 0);
    graphs.push_back({"self_loop", Digraph(1, e)});
  }
  {
    EdgeList e;
    e.add(0, 1);
    e.add(1, 0);
    graphs.push_back({"two_cycle", Digraph(2, e)});
  }
  graphs.push_back({"path_16", graph::path_graph(16)});
  graphs.push_back({"path_257", graph::path_graph(257)});
  graphs.push_back({"cycle_16", graph::cycle_graph(16)});
  graphs.push_back({"cycle_1000", graph::cycle_graph(1000)});
  graphs.push_back({"clique_8", graph::bidirectional_clique(8)});
  graphs.push_back({"grid_9x9", graph::grid_dag(9, 9)});
  graphs.push_back({"cycle_chain_20x5", graph::cycle_chain(20, 5)});
  graphs.push_back({"cycle_chain_100x1", graph::cycle_chain(100, 1)});
  graphs.push_back({"fig1", fig1_graph()});
  graphs.push_back({"fig2", fig2_graph()});
  graphs.push_back({"fig3", fig3_graph()});
  return graphs;
}

/// Random digraphs across a density sweep (deterministic seeds).
inline std::vector<NamedGraph> random_graphs() {
  std::vector<NamedGraph> graphs;
  Rng rng(0xec1'5cc);
  for (vid n : {20u, 100u, 500u}) {
    for (double density : {0.5, 1.0, 2.0, 4.0}) {
      const auto m = static_cast<graph::eid>(density * n);
      graphs.push_back({"er_n" + std::to_string(n) + "_m" + std::to_string(m),
                        graph::random_digraph(n, m, rng)});
    }
  }
  graphs.push_back({"rmat_10", graph::rmat(10, 4.0, rng)});
  {
    graph::SccProfile p;
    p.num_vertices = 600;
    p.giant_fraction = 0.6;
    p.size2_sccs = 20;
    p.mid_sccs = 5;
    p.dag_depth = 8;
    graphs.push_back({"profile_giant", graph::scc_profile_graph(p, rng)});
  }
  {
    graph::SccProfile p;
    p.num_vertices = 500;
    p.giant_fraction = 0.0;
    p.size2_sccs = 60;
    p.mid_sccs = 0;
    p.dag_depth = 40;
    p.power_law = false;
    p.avg_degree = 3.0;
    graphs.push_back({"profile_mesh_like", graph::scc_profile_graph(p, rng)});
  }
  return graphs;
}

inline std::vector<NamedGraph> all_test_graphs() {
  auto graphs = structured_graphs();
  for (auto& g : random_graphs()) graphs.push_back(std::move(g));
  return graphs;
}

/// Ground truth in ECL-SCC's naming: Tarjan's partition with every
/// component renamed to its maximum member (§3.2.1), so a solver's raw
/// labels can be compared with it bit for bit.
inline std::vector<vid> tarjan_max_labels(const Digraph& g) {
  const scc::SccResult oracle = scc::tarjan(g);
  std::vector<vid> top(oracle.num_components, 0);
  for (vid v = 0; v < g.num_vertices(); ++v)
    top[oracle.labels[v]] = std::max(top[oracle.labels[v]], v);
  std::vector<vid> labels(g.num_vertices());
  for (vid v = 0; v < g.num_vertices(); ++v) labels[v] = top[oracle.labels[v]];
  return labels;
}

}  // namespace ecl::test

#endif  // ECL_TESTS_COMMON_TEST_GRAPHS_HPP

#ifndef ECL_GRAPH_DEGREE_STATS_HPP
#define ECL_GRAPH_DEGREE_STATS_HPP

// Degree-distribution statistics: the property that separates the paper's
// two workload classes. Mesh graphs have near-constant degree (max <= 5);
// power-law graphs have heavy-tailed distributions with hub vertices
// (Table 3: max in-degree up to 1.29M).

#include <vector>

#include "graph/digraph.hpp"

namespace ecl::graph {

struct DegreeStats {
  eid min_out = 0;
  eid max_out = 0;
  eid max_in = 0;
  double avg = 0.0;
  double stddev_out = 0.0;
  /// Log2-binned out-degree histogram: bucket b counts vertices with
  /// degree in [2^b, 2^(b+1)); bucket 0 also counts degree-0 and 1.
  std::vector<vid> log2_histogram;
  /// Heavy-tail indicator: max out-degree divided by average degree. Mesh
  /// graphs sit near 1-2; power-law graphs reach into the hundreds.
  double hub_ratio = 0.0;
};

DegreeStats compute_degree_stats(const Digraph& g);

/// Out-degree-only variant: identical to `compute_degree_stats` except
/// `max_in` stays 0. Out-degrees are CSR offset differences, so this is a
/// single sequential O(n) pass with no per-edge work — cheap enough to run
/// as a per-solve pre-scan (the solver's hub-reorder gate), where the full
/// version's in-degree pass (O(m) random-access increments plus an O(n)
/// allocation) costs a measurable fraction of a small graph's solve time.
DegreeStats compute_out_degree_stats(const Digraph& g);

/// Heuristic classifier used by examples/diagnostics: true when the degree
/// distribution looks heavy-tailed (hub_ratio above `threshold`).
bool looks_power_law(const DegreeStats& stats, double threshold = 8.0);

}  // namespace ecl::graph

#endif  // ECL_GRAPH_DEGREE_STATS_HPP

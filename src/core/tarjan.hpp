#ifndef ECL_CORE_TARJAN_HPP
#define ECL_CORE_TARJAN_HPP

// Tarjan's sequential SCC algorithm (1972): the linear-time oracle the
// paper verifies every ECL-SCC run against (§4). Implemented iteratively
// with an explicit DFS stack so deep mesh graphs cannot overflow the call
// stack.

#include "core/result.hpp"

namespace ecl::scc {

/// Runs Tarjan's algorithm. Labels are dense component indices in reverse
/// topological discovery order (a component is numbered when popped).
SccResult tarjan(const Digraph& g);

/// The serial completion behind every fallback: runs Tarjan on the subgraph
/// induced by the vertices `result.labels` leaves unlabelled
/// (graph::kInvalidVid; labels shorter than g count as unlabelled at the
/// tail) and names each of its classes by its largest member, the ECL-SCC
/// naming (§3.2.1). The labelled vertices must form a union of whole
/// classes, as every solver's partial labeling does, so the residual solves
/// on its own. Sets num_components over the whole labeling, and
/// metrics.serial_fallback and fallback_vertices (the residual's size).
void complete_with_tarjan(const Digraph& g, SccResult& result);

}  // namespace ecl::scc

#endif  // ECL_CORE_TARJAN_HPP

#include "core/tarjan.hpp"

#include <algorithm>
#include <optional>

#include "graph/condensation.hpp"
#include "graph/subgraph.hpp"

namespace ecl::scc {

SccResult tarjan(const Digraph& g) {
  const vid n = g.num_vertices();
  constexpr vid kUnvisited = graph::kInvalidVid;

  SccResult result;
  result.labels.assign(n, kUnvisited);

  std::vector<vid> index(n, kUnvisited);
  std::vector<vid> lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<vid> scc_stack;

  // Explicit DFS frame: vertex + position within its adjacency row.
  struct Frame {
    vid v;
    eid next_edge;
  };
  std::vector<Frame> dfs;

  vid next_index = 0;
  vid next_component = 0;

  for (vid root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = 1;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const vid v = frame.v;
      const auto row = g.out_neighbors(v);

      if (frame.next_edge < row.size()) {
        const vid w = row[frame.next_edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = 1;
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        dfs.pop_back();
        if (!dfs.empty()) {
          const vid parent = dfs.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          // v is the root of an SCC: pop the component.
          for (;;) {
            const vid w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = 0;
            result.labels[w] = next_component;
            if (w == v) break;
          }
          ++next_component;
        }
      }
    }
  }

  result.num_components = next_component;
  return result;
}

void complete_with_tarjan(const Digraph& g, SccResult& result) {
  const vid n = g.num_vertices();
  result.labels.resize(n, graph::kInvalidVid);
  std::vector<std::uint8_t> active(n, 0);
  std::uint64_t residual = 0;
  for (vid v = 0; v < n; ++v) {
    if (result.labels[v] == graph::kInvalidVid) {
      active[v] = 1;
      ++residual;
    }
  }
  result.metrics.serial_fallback = true;
  result.metrics.fallback_vertices = residual;
  if (residual != 0) {
    // A wholly unlabelled graph is solved in place, not copied.
    std::optional<graph::Subgraph> sub;
    if (residual < n) sub.emplace(graph::induced_subgraph(g, active));
    const auto parent = [&sub](vid i) { return sub ? sub->to_parent[i] : i; };
    const SccResult serial = tarjan(sub ? sub->graph : g);
    const vid local = static_cast<vid>(serial.labels.size());
    std::vector<vid> top(serial.num_components, 0);
    for (vid i = 0; i < local; ++i)
      top[serial.labels[i]] = std::max(top[serial.labels[i]], parent(i));
    for (vid i = 0; i < local; ++i) result.labels[parent(i)] = top[serial.labels[i]];
  }
  std::vector<vid> dense(result.labels.begin(), result.labels.end());
  result.num_components = graph::normalize_labels(dense);
}

}  // namespace ecl::scc

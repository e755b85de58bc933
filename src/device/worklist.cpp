#include "device/worklist.hpp"

namespace ecl::device {

EdgeWorklist::EdgeWorklist(const graph::Digraph& g) {
  allocate(g.num_edges());
  graph::Edge* out = buffers_[0].get();
  for (graph::vid u = 0; u < g.num_vertices(); ++u)
    for (graph::vid v : g.out_neighbors(u)) *out++ = {u, v};
}

EdgeWorklist::EdgeWorklist(std::span<const graph::Edge> edges) {
  allocate(edges.size());
  std::copy(edges.begin(), edges.end(), buffers_[0].get());
}

void EdgeWorklist::allocate(std::size_t capacity) {
  buffers_[0] = std::make_unique_for_overwrite<graph::Edge[]>(capacity);
  buffers_[1] = std::make_unique_for_overwrite<graph::Edge[]>(capacity);
  capacity_ = capacity;
  size_.store(capacity, std::memory_order_relaxed);
}

}  // namespace ecl::device

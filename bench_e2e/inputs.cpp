#include "inputs.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/degree_stats.hpp"
#include "graph/generators.hpp"
#include "mesh/ordinates.hpp"
#include "mesh/suite.hpp"
#include "mesh/sweep_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace ecl::e2e {

graph::Digraph power_law_graph(const bench::PowerLawSpec& spec, std::uint64_t seed) {
  // Same profile as bench::power_law_graph (src/bench_support/workloads.cpp);
  // the seed-0 identity is checked by the smoke run.
  const auto n = static_cast<graph::vid>(scaled(spec.paper_vertices, 512));
  graph::SccProfile profile;
  profile.num_vertices = n;
  profile.avg_degree = spec.avg_degree;
  profile.giant_fraction = spec.giant_fraction;
  profile.size2_sccs = static_cast<graph::vid>(spec.size2_fraction * n);
  profile.mid_sccs = static_cast<graph::vid>(spec.mid_fraction * n);
  profile.dag_depth =
      static_cast<graph::vid>(std::min<std::size_t>(spec.dag_depth, n / 4 + 1));
  profile.power_law = true;

  std::uint64_t name_seed = 0x7ab1e3;
  for (char c : spec.name) name_seed = name_seed * 131 + static_cast<unsigned char>(c);
  if (seed != 0) {
    std::uint64_t state = name_seed ^ seed;
    name_seed = splitmix64(state);
  }
  Rng rng(name_seed);
  return graph::scc_profile_graph(profile, rng);
}

graph::Digraph skewed_power_law_graph(const bench::PowerLawSpec& spec, std::uint64_t seed) {
  graph::Digraph best;
  double best_cv = -1.0;
  std::uint64_t candidate = seed;
  std::uint64_t state = seed;
  for (int i = 0; i < 16; ++i, candidate = splitmix64(state)) {
    graph::Digraph g = power_law_graph(spec, candidate);
    const graph::DegreeStats s = graph::compute_out_degree_stats(g);
    const double cv = s.avg > 0.0 ? s.stddev_out / s.avg : 0.0;
    if (cv >= kHubGateCv) return g;
    if (cv > best_cv) {
      best_cv = cv;
      best = std::move(g);
    }
  }
  return best;
}

bench::PowerLawSpec power_law_spec(const std::string& name) {
  for (auto& spec : bench::power_law_specs())
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown power-law stand-in: " + name);
}

graph::Digraph mesh_ordinate_graph(const std::string& group, unsigned ordinate) {
  const auto suite = mesh::large_mesh_suite();
  const mesh::MeshGroup* g = mesh::find_group(suite, group);
  if (g == nullptr) throw std::invalid_argument("unknown mesh group: " + group);
  const auto ordinates = mesh::fibonacci_ordinates(bench::effective_ordinates(*g));
  if (ordinate >= ordinates.size())
    throw std::invalid_argument(group + ": ordinate " + std::to_string(ordinate) +
                                " out of " + std::to_string(ordinates.size()));
  return mesh::build_sweep_graph(g->generate_scaled(), ordinates[ordinate]);
}

}  // namespace ecl::e2e

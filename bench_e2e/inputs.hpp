#ifndef ECL_BENCH_E2E_INPUTS_HPP
#define ECL_BENCH_E2E_INPUTS_HPP

// Seeded input generation for the end-to-end benchmark.

#include <cstdint>
#include <string>

#include "bench_support/workloads.hpp"
#include "graph/digraph.hpp"

namespace ecl::e2e {

/// The Table 3 stand-in of bench::power_law_graph with a workload seed
/// mixed into its per-name seed. Seed 0 reproduces bench::power_law_graph
/// bit for bit.
graph::Digraph power_law_graph(const bench::PowerLawSpec& spec, std::uint64_t seed);

/// Out-degree coefficient of variation from which the solver's degree-skew
/// gate applies the hub permutation (hub_reorder_profitable in
/// src/core/ecl_scc.cpp).
inline constexpr double kHubGateCv = 1.75;

/// power_law_graph for the first of up to 16 candidate seeds, starting at
/// `seed`, whose graph lies on the skewed side of the hub gate (out-degree
/// CV >= kHubGateCv); the most skewed candidate when none does, as at toy
/// scales. Whether the generator's heaviest hub lands in the planted giant
/// component flips the wikipedia stand-in's CV between about 1.5 and 1.9,
/// and graphs below the gate solve 20-50% slower through the other path,
/// so without this the seed would pick the code path. Seed 0 is skewed at
/// ECL_SCALE=0.02, where it still reproduces bench::power_law_graph.
graph::Digraph skewed_power_law_graph(const bench::PowerLawSpec& spec, std::uint64_t seed);

/// Looks a Table 3 stand-in up by name; throws std::invalid_argument.
bench::PowerLawSpec power_law_spec(const std::string& name);

/// Sweep graph of one ordinate of a Table 2 (large) mesh group at
/// ECL_SCALE, out of the group's ECL_MAX_ORDINATES-capped ordinate set.
/// Mesh geometry is seed-free. Throws std::invalid_argument.
graph::Digraph mesh_ordinate_graph(const std::string& group, unsigned ordinate);

}  // namespace ecl::e2e

#endif  // ECL_BENCH_E2E_INPUTS_HPP

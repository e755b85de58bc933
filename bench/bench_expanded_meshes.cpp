// Regenerates §5.1.4 (expanded meshes): the first ordinate of twist-hex
// and large toroid-hex replicated 10x (chained copies, exactly 10|V| - 9
// vertices as in the paper), comparing ECL-SCC on the A100 profile with
// GPU-SCC and iSpan.
//
// Paper expectations: on expanded twist-hex (one giant SCC) ECL-SCC is
// ~1.4x faster than iSpan (GPU-SCC crashed at this size); on expanded
// toroid-hex (15.6M tiny SCCs) ECL-SCC is 78.5x faster than GPU-SCC and
// iSpan times out (> 3 hours).

#include "bench_common.hpp"
#include "mesh/ordinates.hpp"
#include "mesh/replicate.hpp"
#include "mesh/suite.hpp"
#include "mesh/sweep_graph.hpp"

namespace {

using namespace ecl;
using namespace ecl::bench;

Workload expanded_workload(const char* group_name) {
  const auto suite = mesh::large_mesh_suite();
  const auto* group = mesh::find_group(suite, group_name);
  const auto m = group->generate_scaled();
  const auto omega = mesh::fibonacci_ordinates(group->num_ordinates).front();
  Workload wl;
  wl.name = std::string("expanded-") + group_name;
  wl.graphs.push_back(mesh::replicate_chain(mesh::build_sweep_graph(m, omega), 10));
  return wl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto columns = paper_columns();
  register_workload_benchmarks("Expanded", expanded_workload("twist-hex"), columns);
  register_workload_benchmarks("Expanded", expanded_workload("toroid-hex"), columns);

  return run_and_report(
      argc, argv, "Sec 5.1.4: expanded (10x) meshes", "Sec 5.1.4: expanded meshes",
      {
          {"expanded toroid-hex: ECL-SCC vs GPU-SCC (A100)", "ECL-SCC A100", "GPU-SCC A100",
           78.5, "expanded-toroid-hex"},
          {"expanded twist-hex: ECL-SCC A100 vs iSpan Xeon", "ECL-SCC A100", "iSpan Xeon", 1.4,
           "expanded-twist-hex"},
      });
}

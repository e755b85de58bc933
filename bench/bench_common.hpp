#ifndef ECL_BENCH_COMMON_HPP
#define ECL_BENCH_COMMON_HPP

// Glue between the bench_support harness and google-benchmark: one
// registered benchmark per (workload, column), fixed iteration counts
// (ECL_RUNS, matching the paper's median-of-N methodology), verification
// against Tarjan outside the timed region, and a shared reporting main.

#include <string>
#include <utility>
#include <vector>

#include "bench_support/harness.hpp"
#include "bench_support/workloads.hpp"

namespace ecl::bench {

/// Registers `prefix/<workload>/<column>` benchmarks for every column.
void register_workload_benchmarks(const std::string& prefix, const Workload& workload,
                                  const std::vector<Column>& columns);

/// Named pair of columns whose geomean throughput ratio is a headline
/// number of the paper (e.g. ECL-SCC A100 over GPU-SCC A100 for Fig. 6).
struct Headline {
  std::string description;  ///< e.g. "Fig 6: ECL-SCC vs GPU-SCC on A100"
  std::string numerator;
  std::string denominator;
  double paper_factor;  ///< the factor the paper reports
  /// The one workload the headline covers; empty means the geomean over
  /// every workload of the table.
  std::string workload = {};
};

/// Runs the registered benchmarks and prints the runtime table (Tables
/// 5-7 shape), the throughput figure (Figures 5-13 shape), and the
/// headline speedups with their paper values. Returns the process exit
/// code.
int run_and_report(int argc, char** argv, const std::string& table_title,
                   const std::string& figure_title, const std::vector<Headline>& headlines);

}  // namespace ecl::bench

#endif  // ECL_BENCH_COMMON_HPP

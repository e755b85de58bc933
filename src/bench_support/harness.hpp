#ifndef ECL_BENCH_SUPPORT_HARNESS_HPP
#define ECL_BENCH_SUPPORT_HARNESS_HPP

// Shared benchmark harness: the six algorithm "columns" of the paper's
// Tables 5-7 (ECL-SCC and GPU-SCC on two simulated GPUs, iSpan with two CPU
// thread configurations), result recording, and paper-style table/figure
// rendering (runtime tables + throughput charts with geometric means and
// the headline speedup factors).

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "graph/digraph.hpp"

namespace ecl::bench {

/// One column of Tables 5-7.
struct Column {
  std::string name;       ///< e.g. "ECL-SCC A100"
  std::string algorithm;  ///< "ecl", "gpu-scc", or "ispan" (for grouping)
  std::string device;     ///< "titanv", "a100", "ryzen", "xeon"
  scc::SccAlgorithm run;
};

/// ECL-SCC and GPU-SCC (FB-Trim) on both simulated device profiles.
std::vector<Column> gpu_columns();

/// iSpan with the paper's two CPU configurations (16- and 32-core hosts;
/// thread counts are requests — the container may have fewer cores).
std::vector<Column> cpu_columns();

/// All six paper columns, in table order.
std::vector<Column> paper_columns();

/// A named set of graphs timed as one unit (a mesh group across its
/// ordinates, or a single power-law graph).
struct Workload {
  std::string name;
  std::vector<graph::Digraph> graphs;

  std::uint64_t total_vertices() const;
  std::uint64_t total_edges() const;
};

/// Collected measurements of one bench binary.
class ResultTable {
 public:
  /// Records the average per-graph runtime of `column` on `workload`.
  void record(const std::string& workload, const std::string& column, double seconds,
              std::uint64_t vertices);

  /// Runtime table in the shape of Tables 5-7 (seconds, one row per
  /// workload, one column per algorithm).
  std::string render_runtime_table(const std::string& title) const;

  /// Throughput chart in the shape of Figures 5-13 (Mvertices/s, one row
  /// per workload, plus a geometric-mean row).
  std::string render_throughput_figure(const std::string& title) const;

  /// Headline factor: geomean throughput of column a / column b over every
  /// workload, or over `workload` alone when it is non-empty.
  double geomean_speedup(const std::string& column_a, const std::string& column_b,
                         const std::string& workload = {}) const;

  bool empty() const { return rows_.empty(); }
  std::vector<std::string> workload_names() const;
  std::vector<std::string> column_names() const;

  /// Seconds recorded for (workload, column); -1 when absent.
  double seconds(const std::string& workload, const std::string& column) const;

 private:
  struct Entry {
    std::string workload;
    std::string column;
    double seconds = 0.0;
    std::uint64_t vertices = 0;
  };
  std::vector<Entry> rows_;
};

/// Per-binary global result sink (bench mains print it after the run).
ResultTable& results();

/// Times `column` on every graph of `workload` (bench_runs() repetitions,
/// median), verifies each result against Tarjan, records the average
/// per-graph seconds into results(), and returns those seconds.
/// Throws std::runtime_error on a verification failure.
double measure_column(const Workload& workload, const Column& column);

}  // namespace ecl::bench

#endif  // ECL_BENCH_SUPPORT_HARNESS_HPP

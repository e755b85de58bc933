#include "bench_support/harness.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/ecl_scc.hpp"
#include "core/fb_trim.hpp"
#include "core/ispan.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"
#include "support/env.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"

namespace ecl::bench {
namespace {

device::Device& titanv_device() {
  static device::Device dev(device::titan_v_profile());
  return dev;
}

device::Device& a100_device() {
  static device::Device dev(device::a100_profile());
  return dev;
}

}  // namespace

std::vector<Column> gpu_columns() {
  return {
      {"ECL-SCC Titan V", "ecl", "titanv",
       [](const graph::Digraph& g) { return scc::ecl_scc(g, titanv_device()); }},
      {"ECL-SCC A100", "ecl", "a100",
       [](const graph::Digraph& g) { return scc::ecl_scc(g, a100_device()); }},
      {"GPU-SCC Titan V", "gpu-scc", "titanv",
       [](const graph::Digraph& g) { return scc::fb_trim(g, titanv_device()); }},
      {"GPU-SCC A100", "gpu-scc", "a100",
       [](const graph::Digraph& g) { return scc::fb_trim(g, a100_device()); }},
  };
}

std::vector<Column> cpu_columns() {
  auto run_with_threads = [](unsigned threads) {
    return [threads](const graph::Digraph& g) {
      scc::IspanOptions opts;
      opts.num_threads = threads;
      return scc::ispan(g, opts);
    };
  };
  return {
      {"iSpan Ryzen", "ispan", "ryzen", run_with_threads(32)},
      {"iSpan Xeon", "ispan", "xeon", run_with_threads(64)},
  };
}

std::vector<Column> paper_columns() {
  auto columns = gpu_columns();
  for (auto& c : cpu_columns()) columns.push_back(std::move(c));
  // Table order: ECL-SCC Titan V, ECL-SCC A100, GPU-SCC Titan V, GPU-SCC
  // A100, iSpan Ryzen, iSpan Xeon — already the construction order.
  return columns;
}

std::uint64_t Workload::total_vertices() const {
  std::uint64_t total = 0;
  for (const auto& g : graphs) total += g.num_vertices();
  return total;
}

std::uint64_t Workload::total_edges() const {
  std::uint64_t total = 0;
  for (const auto& g : graphs) total += g.num_edges();
  return total;
}

void ResultTable::record(const std::string& workload, const std::string& column, double seconds,
                         std::uint64_t vertices) {
  // Upsert: google-benchmark may invoke a benchmark body several times
  // (iteration estimation); keep one row per (workload, column).
  for (auto& e : rows_) {
    if (e.workload == workload && e.column == column) {
      e.seconds = seconds;
      e.vertices = vertices;
      return;
    }
  }
  rows_.push_back({workload, column, seconds, vertices});
}

std::vector<std::string> ResultTable::workload_names() const {
  std::vector<std::string> names;
  for (const auto& e : rows_) {
    bool seen = false;
    for (const auto& n : names) seen |= n == e.workload;
    if (!seen) names.push_back(e.workload);
  }
  return names;
}

std::vector<std::string> ResultTable::column_names() const {
  std::vector<std::string> names;
  for (const auto& e : rows_) {
    bool seen = false;
    for (const auto& n : names) seen |= n == e.column;
    if (!seen) names.push_back(e.column);
  }
  return names;
}

double ResultTable::seconds(const std::string& workload, const std::string& column) const {
  for (const auto& e : rows_) {
    if (e.workload == workload && e.column == column) return e.seconds;
  }
  return -1.0;
}

std::string ResultTable::render_runtime_table(const std::string& title) const {
  const auto columns = column_names();
  std::vector<std::string> header{"Graphs"};
  for (const auto& c : columns) header.push_back(c);
  TextTable table(header);
  for (const auto& w : workload_names()) {
    std::vector<std::string> row{w};
    for (const auto& c : columns) {
      const double s = seconds(w, c);
      row.push_back(s < 0 ? "-" : fixed(s, 4));
    }
    table.add_row(std::move(row));
  }
  std::ostringstream out;
  out << "\n== " << title << " (average runtime per graph, seconds) ==\n" << table.render();
  return out.str();
}

std::string ResultTable::render_throughput_figure(const std::string& title) const {
  const auto columns = column_names();
  std::vector<std::string> header{"Input"};
  for (const auto& c : columns) header.push_back(c);
  TextTable table(header);

  std::vector<std::vector<double>> per_column(columns.size());
  for (const auto& w : workload_names()) {
    std::vector<std::string> row{w};
    for (std::size_t c = 0; c < columns.size(); ++c) {
      double tp = -1.0;
      for (const auto& e : rows_) {
        if (e.workload == w && e.column == columns[c] && e.seconds > 0) {
          tp = static_cast<double>(e.vertices) / e.seconds / 1e6;
        }
      }
      if (tp > 0) per_column[c].push_back(tp);
      row.push_back(tp < 0 ? "-" : fixed(tp, 2));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> gm_row{"geomean"};
  for (const auto& tps : per_column) gm_row.push_back(fixed(geomean(tps), 2));
  table.add_row(std::move(gm_row));

  std::ostringstream out;
  out << "\n== " << title << " (throughput, million vertices/s) ==\n" << table.render();
  return out.str();
}

double ResultTable::geomean_speedup(const std::string& column_a, const std::string& column_b,
                                    const std::string& workload) const {
  std::vector<double> ratios;
  for (const auto& w : workload_names()) {
    if (!workload.empty() && w != workload) continue;
    double a = -1.0;
    double b = -1.0;
    std::uint64_t va = 0;
    std::uint64_t vb = 0;
    for (const auto& e : rows_) {
      if (e.workload != w) continue;
      if (e.column == column_a) {
        a = e.seconds;
        va = e.vertices;
      }
      if (e.column == column_b) {
        b = e.seconds;
        vb = e.vertices;
      }
    }
    if (a > 0 && b > 0 && va > 0 && vb > 0) {
      const double tp_a = static_cast<double>(va) / a;
      const double tp_b = static_cast<double>(vb) / b;
      ratios.push_back(tp_a / tp_b);
    }
  }
  return ratios.empty() ? 0.0 : geomean(ratios);
}

ResultTable& results() {
  static ResultTable table;
  return table;
}

double measure_column(const Workload& workload, const Column& column) {
  if (workload.graphs.empty()) return 0.0;

  // Verification first (outside timing), as in the paper's methodology.
  for (const auto& g : workload.graphs) {
    const auto oracle = scc::tarjan(g);
    const auto result = column.run(g);
    if (!scc::same_partition(result.labels, oracle.labels)) {
      throw std::runtime_error("benchmark verification failed: " + column.name + " on " +
                               workload.name);
    }
  }

  // Median-of-N timing of a full pass over the group (paper: median of 9
  // runs; ECL_RUNS controls N), reported as average seconds per graph.
  const double total = median_seconds(bench_runs(), [&] {
    for (const auto& g : workload.graphs) {
      auto result = column.run(g);
      (void)result;
    }
  });
  const double per_graph = total / static_cast<double>(workload.graphs.size());
  const std::uint64_t avg_vertices = workload.total_vertices() / workload.graphs.size();
  results().record(workload.name, column.name, per_graph, avg_vertices);
  return per_graph;
}

}  // namespace ecl::bench

#include <gtest/gtest.h>

#include "bench_support/harness.hpp"
#include "graph/generators.hpp"

namespace ecl::test {
namespace {

using bench::Column;
using bench::ResultTable;
using bench::Workload;

TEST(Harness, PaperColumnsInTableOrder) {
  const auto columns = bench::paper_columns();
  ASSERT_EQ(columns.size(), 6u);
  EXPECT_EQ(columns[0].name, "ECL-SCC Titan V");
  EXPECT_EQ(columns[1].name, "ECL-SCC A100");
  EXPECT_EQ(columns[2].name, "GPU-SCC Titan V");
  EXPECT_EQ(columns[3].name, "GPU-SCC A100");
  EXPECT_EQ(columns[4].name, "iSpan Ryzen");
  EXPECT_EQ(columns[5].name, "iSpan Xeon");
}

TEST(Harness, ColumnsProduceCorrectResults) {
  const auto g = graph::cycle_chain(10, 5);
  for (const auto& column : bench::paper_columns()) {
    const auto r = column.run(g);
    EXPECT_EQ(r.num_components, 10u) << column.name;
  }
}

TEST(Harness, WorkloadTotals) {
  Workload wl;
  wl.name = "w";
  wl.graphs.push_back(graph::cycle_graph(10));
  wl.graphs.push_back(graph::path_graph(5));
  EXPECT_EQ(wl.total_vertices(), 15u);
  EXPECT_EQ(wl.total_edges(), 14u);
}

TEST(Harness, ResultTableUpsertsAndRenders) {
  ResultTable table;
  table.record("g1", "A", 0.5, 100);
  table.record("g1", "B", 0.25, 100);
  table.record("g2", "A", 1.0, 200);
  table.record("g1", "A", 0.4, 100);  // upsert overwrites
  EXPECT_DOUBLE_EQ(table.seconds("g1", "A"), 0.4);
  EXPECT_DOUBLE_EQ(table.seconds("g1", "B"), 0.25);
  EXPECT_DOUBLE_EQ(table.seconds("missing", "A"), -1.0);

  const auto names = table.workload_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "g1");
  const auto runtime = table.render_runtime_table("T");
  EXPECT_NE(runtime.find("g1"), std::string::npos);
  EXPECT_NE(runtime.find("0.4000"), std::string::npos);
  const auto figure = table.render_throughput_figure("F");
  EXPECT_NE(figure.find("geomean"), std::string::npos);
}

TEST(Harness, GeomeanSpeedup) {
  ResultTable table;
  // A runs 2x faster than B on both workloads (same vertex counts).
  table.record("g1", "A", 0.5, 100);
  table.record("g1", "B", 1.0, 100);
  table.record("g2", "A", 2.0, 400);
  table.record("g2", "B", 4.0, 400);
  EXPECT_NEAR(table.geomean_speedup("A", "B"), 2.0, 1e-9);
  EXPECT_NEAR(table.geomean_speedup("B", "A"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(table.geomean_speedup("A", "missing"), 0.0);
}

TEST(Harness, GeomeanSpeedupOverOneWorkload) {
  ResultTable table;
  // A is 8x B on g1 and 2x on g2: 4x over both, and each alone on its own.
  table.record("g1", "A", 0.5, 100);
  table.record("g1", "B", 4.0, 100);
  table.record("g2", "A", 1.0, 400);
  table.record("g2", "B", 2.0, 400);
  EXPECT_NEAR(table.geomean_speedup("A", "B"), 4.0, 1e-9);
  EXPECT_NEAR(table.geomean_speedup("A", "B", "g1"), 8.0, 1e-9);
  EXPECT_NEAR(table.geomean_speedup("A", "B", "g2"), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(table.geomean_speedup("A", "B", "missing"), 0.0);
}

TEST(Harness, MeasureColumnRecordsAndVerifies) {
  Workload wl;
  wl.name = "measure-test";
  wl.graphs.push_back(graph::cycle_chain(8, 4));
  const auto columns = bench::paper_columns();
  const double seconds = bench::measure_column(wl, columns[1]);  // ECL-SCC A100
  EXPECT_GT(seconds, 0.0);
  EXPECT_GT(bench::results().seconds("measure-test", "ECL-SCC A100"), 0.0);
}

TEST(Harness, MeasureColumnThrowsOnWrongAlgorithm) {
  Workload wl;
  wl.name = "broken";
  wl.graphs.push_back(graph::cycle_graph(6));
  Column bogus{"Bogus", "bogus", "none", [](const graph::Digraph& g) {
                 scc::SccResult r;
                 r.labels.assign(g.num_vertices(), 0);  // everything one component
                 r.num_components = 1;
                 return r;
               }};
  // cycle_graph(6) IS one component, so that labeling is right; use a path.
  wl.graphs[0] = graph::path_graph(6);
  EXPECT_THROW((void)bench::measure_column(wl, bogus), std::runtime_error);
}

}  // namespace
}  // namespace ecl::test

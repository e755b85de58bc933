#include "bench_common.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/tarjan.hpp"
#include "support/env.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"

namespace ecl::bench {
namespace {

/// Workload plus lazily computed Tarjan oracles, shared by all columns.
struct SharedWorkload {
  Workload workload;
  std::vector<std::vector<graph::vid>> oracles;  // lazily filled
  bool verified_columns_logged = false;

  const std::vector<graph::vid>& oracle(std::size_t i) {
    if (oracles.empty()) oracles.resize(workload.graphs.size());
    if (oracles[i].empty() && workload.graphs[i].num_vertices() > 0) {
      oracles[i] = scc::tarjan(workload.graphs[i]).labels;
    }
    return oracles[i];
  }
};

}  // namespace

void register_workload_benchmarks(const std::string& prefix, const Workload& workload,
                                  const std::vector<Column>& columns) {
  auto shared = std::make_shared<SharedWorkload>();
  shared->workload = workload;

  for (const Column& column : columns) {
    const std::string name = prefix + "/" + workload.name + "/" + column.name;
    auto run = column.run;
    const std::string column_name = column.name;
    benchmark::RegisterBenchmark(name.c_str(), [shared, run, column_name](
                                                   benchmark::State& state) {
      const auto& graphs = shared->workload.graphs;

      // Verify once per process (outside the timed region), as in §4.
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        const auto result = run(graphs[i]);
        if (!scc::same_partition(result.labels, shared->oracle(i))) {
          state.SkipWithError(("verification failed on " + shared->workload.name).c_str());
          return;
        }
      }

      double best = -1.0;
      for (auto _ : state) {
        Timer timer;
        for (const auto& g : graphs) {
          auto result = run(g);
          benchmark::DoNotOptimize(result.num_components);
        }
        const double elapsed = timer.seconds();
        if (best < 0 || elapsed < best) best = elapsed;
      }
      state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                              static_cast<std::int64_t>(shared->workload.total_vertices()));
      if (best > 0 && !graphs.empty()) {
        results().record(shared->workload.name, column_name,
                         best / static_cast<double>(graphs.size()),
                         shared->workload.total_vertices() / graphs.size());
      }
    })
        ->Iterations(static_cast<std::int64_t>(bench_runs()))
        ->Unit(benchmark::kMillisecond);
  }
}

int run_and_report(int argc, char** argv, const std::string& table_title,
                   const std::string& figure_title, const std::vector<Headline>& headlines) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("%s", results().render_runtime_table(table_title).c_str());
  std::printf("%s", results().render_throughput_figure(figure_title).c_str());
  if (!headlines.empty()) {
    std::printf("\n== Headline geomean speedups (measured vs paper) ==\n");
    for (const auto& h : headlines) {
      const double measured = results().geomean_speedup(h.numerator, h.denominator, h.workload);
      if (h.paper_factor > 0) {
        std::printf("  %-52s measured %6.2fx   paper %6.2fx\n", h.description.c_str(), measured,
                    h.paper_factor);
      } else {
        std::printf("  %-52s measured %6.2fx   (extension: no paper value)\n",
                    h.description.c_str(), measured);
      }
    }
  }
  std::printf("\n(scale factor ECL_SCALE=%.4g, runs ECL_RUNS=%zu)\n", scale_factor(),
              bench_runs());
  return 0;
}

}  // namespace ecl::bench

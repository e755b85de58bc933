#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "common/test_graphs.hpp"
#include "core/registry.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"
#include "device/device.hpp"

namespace ecl::test {
namespace {

TEST(Registry, ListsAllExpectedConfigurations) {
  const auto names = scc::algorithm_names();
  for (const char* expected : {"tarjan", "kosaraju", "ecl-serial", "ecl-a100", "ecl-titanv",
                               "ecl-loadbalance", "gpu-scc-a100", "gpu-scc-titanv", "ispan",
                               "hong", "ecl-omp"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing " << expected;
  }
  EXPECT_EQ(names.size(), 11u) << "no configuration beyond the expected eleven";
}

TEST(Registry, UnknownNameThrowsWithValidList) {
  try {
    (void)scc::find_algorithm("quantum-scc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tarjan"), std::string::npos)
        << "error message should list valid algorithms";
  }
}

TEST(Registry, RunAlgorithmExecutes) {
  const auto r = scc::run_algorithm("tarjan", fig3_graph());
  EXPECT_EQ(r.num_components, 7u);
}

TEST(Registry, AllEntriesAreRunnable) {
  const auto g = fig2_graph();
  for (const auto& name : scc::algorithm_names()) {
    const auto r = scc::run_algorithm(name, g);
    EXPECT_EQ(r.num_components, 3u) << name;
  }
}

TEST(Registry, DeviceFlagMatchesConfigurations) {
  for (const char* name :
       {"ecl-a100", "ecl-titanv", "ecl-loadbalance", "gpu-scc-a100", "gpu-scc-titanv"})
    EXPECT_TRUE(scc::algorithm_uses_device(name)) << name;
  for (const char* name : {"tarjan", "kosaraju", "ecl-serial", "ispan", "hong", "ecl-omp"})
    EXPECT_FALSE(scc::algorithm_uses_device(name)) << name;
}

TEST(Registry, LoadbalanceSweepsDenselyToTheFixpoint) {
  // ecl-loadbalance tunes the chain chaser and the hash-bag frontier out.
  // On profile_giant the default configuration takes both (one worker
  // keeps the round sequence deterministic); the dense configuration must
  // take neither and still produce the same labels.
  const auto graphs = random_graphs();
  const auto it = std::find_if(graphs.begin(), graphs.end(),
                               [](const NamedGraph& g) { return g.name == "profile_giant"; });
  ASSERT_NE(it, graphs.end());
  device::Device default_dev(device::tiny_profile(), /*host_workers=*/1);
  device::Device dense_dev(device::tiny_profile(), /*host_workers=*/1);
  const auto adaptive = scc::run_algorithm_on("ecl-a100", it->graph, default_dev);
  const auto dense = scc::run_algorithm_on("ecl-loadbalance", it->graph, dense_dev);
  ASSERT_TRUE(adaptive.ok() && dense.ok());
  EXPECT_GT(adaptive.metrics.hashbag_rounds, 0u);
  EXPECT_GT(adaptive.metrics.chains_collapsed, 0u);
  EXPECT_EQ(dense.metrics.hashbag_rounds, 0u);
  EXPECT_EQ(dense.metrics.chains_collapsed, 0u);
  EXPECT_EQ(dense.labels, adaptive.labels);
}

TEST(Registry, RunAlgorithmOnUsesCallerDevice) {
  const auto g = fig3_graph();
  device::Device dev(device::tiny_profile());
  const auto before = dev.stats().kernel_launches;
  const auto r = scc::run_algorithm_on("ecl-a100", g, dev);
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_GT(dev.stats().kernel_launches, before) << "must run on the supplied device";
  // CPU entries ignore the device but still run.
  const auto serial = scc::run_algorithm_on("tarjan", g, dev);
  EXPECT_EQ(serial.num_components, 7u);
}

TEST(Registry, RunResilientPassesThroughCleanRuns) {
  const auto g = fig3_graph();
  for (const auto& name : scc::algorithm_names()) {
    const auto r = scc::run_resilient(name, g);
    EXPECT_TRUE(r.ok()) << name << ": " << r.error.message;
    EXPECT_FALSE(r.metrics.serial_fallback) << name;
    EXPECT_EQ(r.num_components, 7u) << name;
    EXPECT_TRUE(scc::verify_scc(g, r.labels).ok) << name;
  }
}

TEST(Registry, RunResilientStillThrowsOnUnknownName) {
  EXPECT_THROW((void)scc::run_resilient("quantum-scc", fig3_graph()),
               std::invalid_argument);
}

TEST(Registry, RunResilientOnUsesCallerDevice) {
  const auto g = fig3_graph();
  device::Device dev(device::tiny_profile());
  const auto before = dev.stats().kernel_launches;
  const auto r = scc::run_resilient_on("ecl-a100", g, dev);
  EXPECT_TRUE(r.ok()) << r.error.message;
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_GT(dev.stats().kernel_launches, before) << "must run on the supplied device";
  EXPECT_THROW((void)scc::run_resilient_on("quantum-scc", g, dev), std::invalid_argument);
}

TEST(Registry, RunResilientOnAbsorbsAStalledDevice) {
  // Full store suppression: ECL-SCC on this device must stall; the
  // resilient wrapper still returns complete, Tarjan-equivalent labels.
  device::DeviceProfile profile = device::tiny_profile();
  profile.fault_plan.seed = 11;
  profile.fault_plan.delayed_visibility = true;
  profile.fault_plan.store_defer_probability = 1.0;
  device::Device dev(profile);
  const auto g = graph::cycle_graph(48);
  const auto r = scc::run_resilient_on("ecl-a100", g, dev);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.metrics.serial_fallback);
  EXPECT_TRUE(scc::same_partition(r.labels, scc::tarjan(g).labels));
  EXPECT_TRUE(scc::verify_scc(g, r.labels).ok);
}

TEST(Registry, RunResilientTarjanRungNamesByLargestMember) {
  // Every store lost: each vertex keeps its own signature, so both attempts
  // label 48 singletons that the certificate rejects, and the Tarjan rung
  // serves. It names the cycle as the solvers do, by its largest member.
  device::DeviceProfile profile = device::tiny_profile();
  profile.fault_plan.seed = 11;
  profile.fault_plan.lost_update = true;
  profile.fault_plan.store_lose_probability = 1.0;
  device::Device dev(profile);
  const auto g = graph::cycle_graph(48);
  const auto r = scc::run_resilient_on("ecl-a100", g, dev);
  EXPECT_EQ(r.labels, tarjan_max_labels(g));
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_TRUE(r.metrics.certified);
  EXPECT_TRUE(r.metrics.serial_fallback);
  EXPECT_EQ(r.metrics.fresh_reruns, 1u);
}

TEST(Registry, RunWithDeadlineCancelsEveryEclConfiguration) {
  Rng rng(7);
  const auto g = graph::random_digraph(4000, 8000, rng);
  const auto expired = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  for (const char* name : {"ecl-a100", "ecl-titanv", "ecl-loadbalance", "ecl-omp"}) {
    const auto r = scc::run_with_deadline(name, g, expired);
    EXPECT_EQ(r.error.code, scc::SccStatus::kDeadlineExceeded) << name;
    EXPECT_LE(r.metrics.propagation_rounds, 1u) << name << ": ran on past the deadline";
    const auto full = scc::run_algorithm(name, g);
    ASSERT_TRUE(full.ok()) << name;
    EXPECT_GT(full.metrics.propagation_rounds, 8u) << name << ": the graph must need many rounds";
  }
}

TEST(Registry, RunResilientMatchesTarjanOnAllGraphs) {
  for (const auto& [name, g] : structured_graphs()) {
    const auto oracle = scc::tarjan(g);
    const auto r = scc::run_resilient("ecl-a100", g);
    EXPECT_TRUE(scc::same_partition(r.labels, oracle.labels)) << name;
    EXPECT_EQ(r.num_components, oracle.num_components) << name;
  }
}

}  // namespace
}  // namespace ecl::test

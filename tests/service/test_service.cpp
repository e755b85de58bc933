#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/test_graphs.hpp"
#include "core/registry.hpp"
#include "core/result.hpp"
#include "core/tarjan.hpp"
#include "fleet/device_pool.hpp"
#include "graph/generators.hpp"
#include "service/health_registry.hpp"
#include "service/scc_service.hpp"

namespace ecl::test {
namespace {

using service::Request;
using service::RequestKind;
using service::Response;
using service::SccService;
using service::ServiceConfig;
using service::ServiceStatus;
using service::Tier;

ServiceConfig healthy_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.device_workers = 2;
  cfg.backends = {"ecl-a100", "ecl-omp", "tarjan"};
  return cfg;
}

/// Every device-backed fresh attempt stalls (guaranteed by the
/// delayed-visibility fault at p=1) and fails fast via the stall watchdog.
ServiceConfig chaos_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.device_workers = 2;
  cfg.backends = {"ecl-a100"};
  cfg.max_attempts = 2;
  cfg.backoff.initial_seconds = 0.0005;
  cfg.backoff.max_seconds = 0.002;
  cfg.device_profile.fault_plan.seed = 7;
  cfg.device_profile.fault_plan.delayed_visibility = true;
  cfg.device_profile.fault_plan.store_defer_probability = 1.0;
  return cfg;
}

TEST(SccService, FreshLabelsMatchTarjan) {
  const auto g = graph::cycle_chain(4, 5);
  SccService svc(g, healthy_config());
  Request req;
  req.kind = RequestKind::kSccLabels;
  req.deadline = Request::deadline_in(10.0);
  const Response r = svc.call(req);
  ASSERT_EQ(r.status, ServiceStatus::kOk);
  EXPECT_EQ(r.served_by.tier, Tier::kFresh);
  EXPECT_FALSE(r.served_by.backend.empty());
  EXPECT_GE(r.served_by.attempts, 1u);
  ASSERT_NE(r.labels, nullptr);
  const auto oracle = scc::run_algorithm("tarjan", g);
  EXPECT_TRUE(scc::same_partition(r.labels->labels, oracle.labels));
  EXPECT_EQ(r.num_components, oracle.num_components);
}

TEST(SccService, CondensationAndReachability) {
  const auto g = graph::cycle_chain(3, 4);  // 3 cycles chained: 3 SCCs
  SccService svc(g, healthy_config());

  Request cond;
  cond.kind = RequestKind::kCondensation;
  const Response rc = svc.call(cond);
  ASSERT_EQ(rc.status, ServiceStatus::kOk);
  EXPECT_EQ(rc.condensation.num_vertices(), 3u);

  Request reach;
  reach.kind = RequestKind::kReachabilityQuery;
  reach.u = 0;
  reach.v = 3;  // wraps within the first cycle
  EXPECT_TRUE(svc.call(reach).reachable);
  reach.v = 4;  // second cycle: different SCC
  EXPECT_FALSE(svc.call(reach).reachable);
}

TEST(SccService, ReachabilityRejectsBadVertex) {
  SccService svc(graph::cycle_graph(8), healthy_config());
  Request req;
  req.kind = RequestKind::kReachabilityQuery;
  req.u = 0;
  req.v = 1000;
  const Response r = svc.call(req);
  EXPECT_EQ(r.status, ServiceStatus::kInvalidRequest);
}

TEST(SccService, UpdateBatchAdvancesEpochAndLabels) {
  // Two disjoint cycles; inserting bridge edges merges them.
  const auto g = graph::cycle_chain(2, 4);
  SccService svc(g, healthy_config());

  Request update;
  update.kind = RequestKind::kUpdateBatch;
  update.updates = {{graph::EdgeUpdate::Kind::kInsert, 4, 0}};
  const Response ru = svc.call(update);
  ASSERT_EQ(ru.status, ServiceStatus::kOk);
  EXPECT_EQ(ru.updates_applied, 1u);
  EXPECT_GE(ru.served_by.epoch, 1u);

  Request labels;
  labels.kind = RequestKind::kSccLabels;
  labels.deadline = Request::deadline_in(10.0);
  const Response rl = svc.call(labels);
  ASSERT_EQ(rl.status, ServiceStatus::kOk);
  EXPECT_EQ(rl.num_components, 1u) << "bridge edge merges the chain into one SCC";
}

TEST(SccService, ShutdownRejectsNewWork) {
  SccService svc(graph::cycle_graph(8), healthy_config());
  svc.shutdown();
  const Response r = svc.call(Request{});
  EXPECT_EQ(r.status, ServiceStatus::kRejectedShuttingDown);
  EXPECT_TRUE(r.rejected());
}

TEST(SccService, ExpiredDeadlineIsReportedNotServed) {
  SccService svc(graph::cycle_graph(8), healthy_config());
  Request req;
  req.kind = RequestKind::kSccLabels;
  req.deadline = service::ServiceClock::now() - std::chrono::milliseconds(5);
  const Response r = svc.call(req);
  EXPECT_EQ(r.status, ServiceStatus::kDeadlineExceeded);
}

TEST(SccService, QueueFullProducesStructuredRejection) {
  ServiceConfig cfg = chaos_config();
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.enable_degradation = false;
  cfg.enable_breakers = false;
  cfg.max_attempts = 4;
  cfg.backoff.initial_seconds = 0.05;  // keep the lone worker busy
  cfg.backoff.jitter = 0.0;
  SccService svc(graph::cycle_graph(64), cfg);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.kind = RequestKind::kSccLabels;
    req.deadline = Request::deadline_in(2.0);
    futures.push_back(svc.submit(req));
  }
  std::size_t rejected = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (r.status == ServiceStatus::kRejectedQueueFull) {
      ++rejected;
      EXPECT_TRUE(r.rejected());
      EXPECT_FALSE(r.message.empty());
    }
  }
  EXPECT_GT(rejected, 0u) << "an 8-deep burst into a 1-slot queue must shed";
  EXPECT_EQ(svc.stats().rejected_queue_full, rejected);
}

TEST(SccService, ChaosDegradesToLabeledStaleSnapshot) {
  const auto g = graph::cycle_chain(4, 5);
  SccService svc(g, chaos_config());
  Request req;
  req.kind = RequestKind::kSccLabels;
  req.deadline = Request::deadline_in(5.0);
  req.staleness_budget = 100;
  const Response r = svc.call(req);
  ASSERT_EQ(r.status, ServiceStatus::kOk);
  EXPECT_EQ(r.served_by.tier, Tier::kStaleSnapshot);
  EXPECT_TRUE(r.degraded()) << "degraded answers must be labeled in ServedBy";
  EXPECT_EQ(r.served_by.backend, "snapshot");
  ASSERT_NE(r.labels, nullptr);
  const auto oracle = scc::run_algorithm("tarjan", g);
  EXPECT_TRUE(scc::same_partition(r.labels->labels, oracle.labels));
}

TEST(SccService, ChaosOpensBreakerAndStopsRoutingToBackend) {
  SccService svc(graph::cycle_graph(64), chaos_config());
  Request req;
  req.kind = RequestKind::kSccLabels;
  req.deadline = Request::deadline_in(5.0);
  req.staleness_budget = 100;
  // Enough failures to cross the breaker's min_samples threshold.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(svc.call(req).ok());

  const auto health = svc.backend_health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].name, "ecl-a100");
  EXPECT_EQ(health[0].health, service::BackendHealth::kQuarantined);

  const Response shielded = svc.call(req);
  ASSERT_TRUE(shielded.ok());
  EXPECT_EQ(shielded.served_by.attempts, 0u) << "open breaker short-circuits the fresh tier";
  EXPECT_GT(shielded.served_by.breaker_skips, 0u);
  EXPECT_GT(svc.stats().breaker_skips, 0u);
}

TEST(SccService, ZeroStalenessBudgetForcesExactSerialFallback) {
  const auto g = graph::cycle_chain(2, 4);
  SccService svc(g, chaos_config());

  Request update;
  update.kind = RequestKind::kUpdateBatch;
  update.updates = {{graph::EdgeUpdate::Kind::kInsert, 4, 0}};
  ASSERT_TRUE(svc.call(update).ok());

  Request req;
  req.kind = RequestKind::kSccLabels;
  req.deadline = Request::deadline_in(5.0);
  req.staleness_budget = 0;  // the epoch-0 cached snapshot is now too stale
  const Response r = svc.call(req);
  ASSERT_EQ(r.status, ServiceStatus::kOk);
  EXPECT_EQ(r.served_by.tier, Tier::kSerialFallback);
  EXPECT_EQ(r.served_by.backend, "tarjan");
  EXPECT_EQ(r.served_by.staleness_epochs, 0u) << "serial tier answers are epoch-exact";
  EXPECT_EQ(r.num_components, 1u);
}

TEST(SccService, DegradationDisabledSurfacesFailure) {
  ServiceConfig cfg = chaos_config();
  cfg.enable_degradation = false;
  SccService svc(graph::cycle_graph(64), cfg);
  Request req;
  req.kind = RequestKind::kSccLabels;
  req.deadline = Request::deadline_in(0.5);
  req.staleness_budget = 100;
  const Response r = svc.call(req);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status == ServiceStatus::kUnavailable ||
              r.status == ServiceStatus::kDeadlineExceeded)
      << service::service_status_name(r.status);
}

TEST(SccService, OkResponsesNeverOutliveTheirDeadline) {
  SccService svc(graph::cycle_chain(4, 5), chaos_config());
  for (int i = 0; i < 12; ++i) {
    Request req;
    req.kind = i % 3 == 0 ? RequestKind::kReachabilityQuery : RequestKind::kSccLabels;
    req.u = 0;
    req.v = 1;
    req.deadline = Request::deadline_in(0.2);
    req.staleness_budget = 100;
    const Response r = svc.call(req);
    if (r.ok()) {
      EXPECT_LE(r.completed_at.time_since_epoch().count(),
                req.deadline.time_since_epoch().count());
    }
  }
}

TEST(SccService, ConcurrentMixedWorkloadIsConsistent) {
  const auto g = graph::cycle_chain(4, 8);
  ServiceConfig cfg = healthy_config();
  cfg.workers = 4;
  cfg.queue_capacity = 256;
  SccService svc(g, cfg);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) {
    Request req;
    req.deadline = Request::deadline_in(30.0);
    req.staleness_budget = 1000;
    switch (i % 4) {
      case 0: req.kind = RequestKind::kSccLabels; break;
      case 1: req.kind = RequestKind::kReachabilityQuery; req.u = 0; req.v = 1; break;
      case 2: req.kind = RequestKind::kCondensation; break;
      default:
        req.kind = RequestKind::kUpdateBatch;
        req.updates = {{graph::EdgeUpdate::Kind::kInsert, static_cast<graph::vid>(i % 32),
                        static_cast<graph::vid>((i * 7 + 3) % 32)}};
        break;
    }
    futures.push_back(svc.submit(req));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << service::service_status_name(r.status) << ": " << r.message;
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 64u);
}

TEST(SccService, PreparedInputFollowsTheEpoch) {
  // The ECL solver's prepared input (hub permutation, permuted CSR, its
  // reverse) is cached per graph epoch. On rmat_10 the hub gate fires, so a
  // stale input would solve a stale permuted graph. The update batch keeps
  // the edge count (one insert, one erase), so the input's O(1) size guard
  // cannot tell the epochs apart: only the epoch key keeps the old input
  // from being solved, and a labeling of the old graph would fail
  // certification and be served by the next backend.
  graph::Digraph g;
  for (const auto& family : all_test_graphs())
    if (family.name == "rmat_10") g = family.graph;
  ASSERT_GT(g.num_vertices(), 0u);
  ServiceConfig cfg = healthy_config();
  SccService svc(g, cfg);

  const auto expect_fresh_ecl = [&](const Response& r, const std::string& where) {
    ASSERT_EQ(r.status, ServiceStatus::kOk) << where << ": " << r.message;
    EXPECT_EQ(r.served_by.tier, Tier::kFresh) << where;
    EXPECT_EQ(r.served_by.backend, "ecl-a100") << where;
    EXPECT_TRUE(r.served_by.certified) << where;
    EXPECT_EQ(r.served_by.certify_failures, 0u) << where;
    ASSERT_NE(r.labels, nullptr) << where;
    const graph::Digraph at_epoch =
        r.served_by.epoch == 0 ? g : svc.engine().graph_with_epoch().first;
    EXPECT_TRUE(scc::same_partition(r.labels->labels, scc::tarjan(at_epoch).labels)) << where;
  };
  Request labels;
  labels.kind = RequestKind::kSccLabels;
  Request with_deadline = labels;
  with_deadline.deadline = Request::deadline_in(30.0);

  // Two concurrent requests of epoch 0 race to build its input.
  auto first = svc.submit(labels);
  auto second = svc.submit(with_deadline);
  expect_fresh_ecl(first.get(), "epoch 0, no deadline");
  expect_fresh_ecl(second.get(), "epoch 0, deadline");

  // Insert the reverse of one cross-class edge (merging its two classes)
  // and erase another cross-class edge.
  const scc::SccResult before = scc::tarjan(g);
  std::vector<graph::EdgeUpdate> batch;
  for (vid u = 0; u < g.num_vertices() && batch.size() < 2; ++u) {
    for (const vid v : g.out_neighbors(u)) {
      if (before.labels[u] == before.labels[v] || batch.size() == 2) continue;
      if (batch.empty())
        batch.push_back({graph::EdgeUpdate::Kind::kInsert, v, u});
      else if (batch[0].src != v || batch[0].dst != u)
        batch.push_back({graph::EdgeUpdate::Kind::kErase, u, v});
    }
  }
  ASSERT_EQ(batch.size(), 2u);
  Request update;
  update.kind = RequestKind::kUpdateBatch;
  update.updates = batch;
  ASSERT_EQ(svc.call(update).updates_applied, 2u);
  const graph::Digraph updated = svc.engine().graph_with_epoch().first;
  ASSERT_EQ(updated.num_edges(), g.num_edges());
  ASSERT_LT(scc::tarjan(updated).num_components, before.num_components);

  const Response after = svc.call(with_deadline);
  expect_fresh_ecl(after, "after the update");
  EXPECT_GE(after.served_by.epoch, 1u);
  EXPECT_EQ(svc.recovery_stats().certification_failures, 0u);
}

TEST(SccService, PoolProbationDeviceIsReadmittedByTheWorkThatRunsOnIt) {
  // A pool device in probation keeps its probe until work runs on it: a
  // reachability query runs on no device and leaves the probe unissued, and
  // one labels request, whole-graph (shards = 1) or sharded (shards = 2),
  // runs on the device and readmits it.
  const auto g = graph::cycle_chain(4, 5);
  for (const unsigned shards : {1u, 2u}) {
    ServiceConfig cfg = healthy_config();
    cfg.workers = 1;
    cfg.pool_devices = 2;
    cfg.pool_thread_budget = 2;
    cfg.shards = shards;
    cfg.health.breaker.window = 4;
    cfg.health.breaker.min_samples = 2;
    cfg.health.breaker.cooldown_seconds = 0.001;
    SccService svc(g, cfg);
    fleet::DevicePool& pool = *svc.device_pool();
    for (int i = 0; i < 4; ++i) pool.record(0, service::FaultKind::kStall);
    ASSERT_NE(pool.health().health(0), service::BackendHealth::kHealthy);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    Request reach;
    reach.kind = RequestKind::kReachabilityQuery;
    ASSERT_EQ(svc.call(reach).status, ServiceStatus::kOk);
    EXPECT_TRUE(pool.admits(0)) << "shards = " << shards << ": a query spent the probe";

    Request labels;
    labels.kind = RequestKind::kSccLabels;
    const Response r = svc.call(labels);
    ASSERT_EQ(r.status, ServiceStatus::kOk);
    EXPECT_EQ(r.served_by.tier, Tier::kFresh);
    EXPECT_EQ(pool.health().health(0), service::BackendHealth::kHealthy) << "shards = " << shards;
  }
}

}  // namespace
}  // namespace ecl::test

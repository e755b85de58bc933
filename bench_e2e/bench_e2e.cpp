// bench_e2e: end-to-end and per-layer benchmark of the certified SCC
// service (README.md in this directory has the metric and workload tables).
//
// One process runs one workload. It builds the workload's inputs from
// --seed, stands up SccService and drives it closed-loop from one client
// thread: the next request is sent only after the previous response
// arrived, the way a sweep caller waits for each labeling and the dynamic
// engine takes a single writer. Every kSccLabels response is compared with
// serial Tarjan on the graph at its epoch, outside the timed region (on
// dynamic-mixed every 10th), and must carry the certifier's stamp.
//
//   bench_e2e --workload W [--seed S] [--seconds T] [--out FILE]
//       end-to-end metrics, tracing off;
//   bench_e2e --workload W [--seed S] [--seconds T] --trace FILE [--out FILE]
//       per-layer metrics: the request loop with spans around each call,
//       plus a replay of 10 labels requests through the modules' public
//       calls in the service's order; Chrome trace-event JSON goes to FILE;
//   bench_e2e
//       smoke: all four workloads at ECL_SCALE=0.002, traced, checked.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Exit code 1 means a wrong or uncertified
// answer; 2 a usage or benchmark error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "bench_support/workloads.hpp"
#include "core/ecl_scc.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"
#include "fleet/sharded_scc.hpp"
#include "graph/degree_stats.hpp"
#include "graph/permute.hpp"
#include "inputs.hpp"
#include "service/scc_service.hpp"
#include "spans.hpp"
#include "support/env.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace ecl;
using namespace ecl::e2e;
using service::Request;
using service::RequestKind;
using service::Response;
using service::SccService;
using service::ServiceConfig;
using Clock = std::chrono::steady_clock;

constexpr double kTailP = 0.9;                  // labels_p90_ms
// setup_s is the minimum of kSetupRepeats constructions: it skips the first
// ones, which pay the process's first page faults and thread-pool start,
// and any construction a busy host slowed down.
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kReplayRequests = 10;     // layer replay, per workload
constexpr std::size_t kUpdateBatch = 16;        // edge updates per kUpdateBatch
constexpr std::size_t kUpdateBatchesPerCycle = 5;
constexpr std::size_t kReachPerCycle = 2;
constexpr std::size_t kCheckEvery = 10;         // dynamic-mixed Tarjan cadence
constexpr std::size_t kUpdateChunk = 8192;      // update stream regeneration size
constexpr double kMinCoverage = 0.95;           // replay spans vs replay wall time
constexpr double kWallCapSeconds = 150.0;       // stay inside a 180 s run limit
constexpr std::uint64_t kReplayIdBase = 1'000'000;

const char* const kWorkloadNames[] = {"mesh-deep", "powerlaw-skewed", "dynamic-mixed",
                                      "sharded-pool"};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Resident set size from /proc/self/statm, in MiB.
double rss_mb() {
  std::ifstream in("/proc/self/statm");
  unsigned long long size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---- Workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  graph::Digraph graph;
  bool dynamic = false;  ///< update batches and reach queries between labelings
  bool sharded = false;  ///< labelings run fleet::sharded_scc on a device pool

  ServiceConfig config() const {
    // nproc = 4: one client thread plus at most three busy service threads.
    ServiceConfig cfg;
    cfg.workers = 1;
    if (sharded) {
      cfg.pool_devices = 4;
      cfg.shards = 4;
      cfg.pool_thread_budget = 4;
    } else {
      cfg.device_workers = 3;
    }
    return cfg;
  }
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload wl;
  wl.name = name;
  if (name == "mesh-deep") {
    wl.graph = mesh_ordinate_graph("mobius-strip", 2);
  } else if (name == "powerlaw-skewed") {
    wl.graph = skewed_power_law_graph(power_law_spec("wikipedia"), seed);
  } else if (name == "dynamic-mixed") {
    wl.graph = skewed_power_law_graph(power_law_spec("wikipedia"), seed);
    wl.dynamic = true;
  } else if (name == "sharded-pool") {
    wl.graph = mesh_ordinate_graph("torch-hex", 0);
    wl.sharded = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return wl;
}

/// Independent random stream per purpose, all derived from the workload seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t state = seed ^ (purpose * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

/// Seeded edge-update batches. When the stream runs out it is regenerated
/// from the engine's current graph (outside any timed region), so every
/// batch stays valid whatever the run length.
class UpdateFeed {
 public:
  explicit UpdateFeed(std::uint64_t seed) : rng_(stream_seed(seed, 1)) {}

  std::vector<graph::EdgeUpdate> next(const dynamic::DynamicScc& engine) {
    if (cursor_ + kUpdateBatch > stream_.size()) {
      graph::UpdateStreamOptions opts;
      opts.num_updates = kUpdateChunk;
      opts.insert_fraction = 0.5;
      stream_ = graph::generate_update_stream(engine.graph(), opts, rng_);
      cursor_ = 0;
    }
    const auto first = stream_.begin() + static_cast<std::ptrdiff_t>(cursor_);
    cursor_ += kUpdateBatch;
    return {first, first + static_cast<std::ptrdiff_t>(kUpdateBatch)};
  }

 private:
  Rng rng_;
  graph::UpdateStream stream_;
  std::size_t cursor_ = 0;
};

// ---- Correctness ------------------------------------------------------------

struct ReachAnswer {
  graph::vid u = 0, v = 0;
  bool reachable = false;
  std::uint64_t epoch = 0;
};

/// Compares labelings (and same-SCC answers at the same epoch) with Tarjan
/// on the graph at their epoch, computed once per epoch. Never called
/// inside a timed region.
class Checker {
 public:
  void labels(const std::string& where, const std::vector<graph::vid>& labels,
              std::uint64_t epoch, const dynamic::DynamicScc& engine,
              const std::vector<ReachAnswer>& reach = {}) {
    if (reference_.empty() || epoch != reference_epoch_) {
      auto [g, at] = engine.graph_with_epoch();
      if (at != epoch) {
        fail(where + ": engine moved past the response epoch");
        return;
      }
      reference_ = scc::tarjan(g).labels;
      reference_epoch_ = epoch;
    }
    ++compared_;
    if (!scc::same_partition(labels, reference_)) fail(where + ": labels differ from Tarjan");
    for (const ReachAnswer& r : reach) {
      if (r.epoch != epoch) continue;
      if (r.reachable != (reference_[r.u] == reference_[r.v]))
        fail(where + ": same-SCC answer differs from Tarjan");
    }
  }

  void fail(const std::string& what) {
    if (errors_.size() < 8) errors_.push_back(what);
    ++failures_;
  }

  bool ok() const { return failures_ == 0; }
  std::uint64_t compared() const { return compared_; }
  std::uint64_t failures() const { return failures_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<graph::vid> reference_;
  std::uint64_t reference_epoch_ = 0;
  std::uint64_t compared_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<std::string> errors_;
};

// ---- Metrics ----------------------------------------------------------------

/// Ordered (name, value, unit) list; renders the result line and the table.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }

  /// {"name": {"value": v, "unit": u}, ...} as the result line wants it.
  Json result_json() const {
    Json m = Json::object();
    for (const Row& r : rows_) {
      Json cell = Json::object();
      cell.set("value", r.value);
      cell.set("unit", r.unit);
      m.set(r.name, std::move(cell));
    }
    return m;
  }

  void print(const std::string& title) const {
    TextTable table({"metric", "value", "unit"});
    for (const Row& r : rows_) table.add_row({r.name, fixed(r.value, 4), r.unit});
    std::printf("\n== %s ==\n%s", title.c_str(), table.render().c_str());
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

// ---- Request loop -----------------------------------------------------------

struct LoopStats {
  std::vector<double> labels_ms;         ///< every measured labels latency
  std::vector<double> labels_traced_ms;  ///< trace mode: cycles with spans
  std::vector<double> labels_plain_ms;   ///< trace mode: cycles without
  std::vector<double> reach_us;
  std::vector<double> queue_ms;     ///< ServedBy queue wait, traced labels
  std::vector<double> overhead_ms;  ///< latency - queue - compute, traced labels
  double timed_s = 0.0;             ///< client time inside requests
  double update_s = 0.0;            ///< ... of which in kUpdateBatch requests
  std::uint64_t updates = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double rss_growth_mb = 0.0;  ///< peak RSS after any labeling minus RSS at start
};

/// Submits one request and waits for it. With a recorder, the call gets a
/// span and the ServedBy queue / compute / certify split becomes its
/// children.
Response timed_call(SccService& svc, Request req, SpanRecorder* rec, std::uint64_t id,
                    double& latency_s) {
  if (rec == nullptr) {
    const auto t0 = Clock::now();
    Response r = svc.submit(std::move(req)).get();
    latency_s = seconds_between(t0, Clock::now());
    return r;
  }
  const int span = rec->begin(std::string("request.") + service::request_kind_name(req.kind), id);
  Response r = svc.submit(std::move(req)).get();
  rec->end(span);
  const Span& s = rec->at(span);
  latency_s = s.duration_us() * 1e-6;
  const auto& sb = r.served_by;
  const double queue_end = s.start_us + sb.queue_seconds * 1e6;
  const double compute_end = queue_end + sb.compute_seconds * 1e6;
  rec->add("service.queue", s.start_us, queue_end, id, span);
  const int compute = rec->add("service.compute", queue_end, compute_end, id, span);
  if (sb.certify_seconds > 0.0)
    rec->add("service.certify", compute_end - sb.certify_seconds * 1e6, compute_end, id,
             compute);
  return r;
}

/// Closed loop, one client. A cycle is one labels request, preceded on
/// dynamic-mixed by 5 update batches and 2 same-SCC queries, so every
/// labeling follows an epoch bump. Runs until `seconds` of client time and
/// enough labelings for the tail percentile. In trace mode every other
/// cycle carries spans, so the span cost is measured in the same process.
LoopStats request_loop(const Workload& wl, SccService& svc, UpdateFeed& feed, Rng& reach_rng,
                       Checker& checker, double seconds, SpanRecorder* rec,
                       Clock::time_point process_start) {
  LoopStats st;
  const double start_rss = rss_mb();
  const std::size_t min_labels = samples_needed(kTailP);
  const graph::vid n = wl.graph.num_vertices();
  std::uint64_t id = 0;
  std::size_t labelings = 0;
  for (std::size_t cycle = 0;
       (st.timed_s < seconds || st.labels_ms.size() < min_labels) &&
       seconds_between(process_start, Clock::now()) < kWallCapSeconds;
       ++cycle) {
    SpanRecorder* cycle_rec = (rec != nullptr && cycle % 2 == 1) ? rec : nullptr;
    std::vector<ReachAnswer> reach;
    if (wl.dynamic) {
      for (std::size_t b = 0; b < kUpdateBatchesPerCycle; ++b) {
        Request req;
        req.kind = RequestKind::kUpdateBatch;
        req.updates = feed.next(svc.engine());
        const std::size_t sent = req.updates.size();
        double lat = 0.0;
        const Response r = timed_call(svc, std::move(req), cycle_rec, ++id, lat);
        ++st.attempted;
        st.timed_s += lat;
        if (!r.ok()) {
          ++st.failed;
          continue;
        }
        st.update_s += lat;
        st.updates += r.updates_applied;
        // A generated batch is valid against the current graph, so every
        // update must change the edge set.
        if (r.updates_applied != sent) checker.fail("update batch applied partially");
      }
      for (std::size_t q = 0; q < kReachPerCycle; ++q) {
        Request req;
        req.kind = RequestKind::kReachabilityQuery;
        req.u = static_cast<graph::vid>(reach_rng.bounded(n));
        req.v = static_cast<graph::vid>(reach_rng.bounded(n));
        const graph::vid u = req.u, v = req.v;
        double lat = 0.0;
        const Response r = timed_call(svc, std::move(req), cycle_rec, ++id, lat);
        ++st.attempted;
        st.timed_s += lat;
        if (!r.ok()) {
          ++st.failed;
          continue;
        }
        st.reach_us.push_back(lat * 1e6);
        reach.push_back({u, v, r.reachable, r.served_by.epoch});
      }
    }
    Request req;
    req.kind = RequestKind::kSccLabels;
    double lat = 0.0;
    const Response r = timed_call(svc, std::move(req), cycle_rec, ++id, lat);
    ++st.attempted;
    st.timed_s += lat;
    st.rss_growth_mb = std::max(st.rss_growth_mb, rss_mb() - start_rss);
    if (!r.ok() || !r.labels) {
      ++st.failed;
      continue;
    }
    const double ms = lat * 1e3;
    st.labels_ms.push_back(ms);
    if (rec != nullptr) {
      (cycle_rec ? st.labels_traced_ms : st.labels_plain_ms).push_back(ms);
      if (cycle_rec) {
        const auto& sb = r.served_by;
        st.queue_ms.push_back(sb.queue_seconds * 1e3);
        st.overhead_ms.push_back(ms - (sb.queue_seconds + sb.compute_seconds) * 1e3);
      }
    }
    if (!r.served_by.certified) checker.fail("labels response served without certification");
    if (!wl.dynamic || labelings % kCheckEvery == 0)
      checker.labels("labels response", r.labels->labels, r.served_by.epoch, svc.engine(), reach);
    ++labelings;
  }
  return st;
}

// ---- Layer replay -----------------------------------------------------------

/// Per-request sums over the replayed labelings; divided by the request
/// count at the end, so the layer means add up to the replay mean.
struct LayerSums {
  double replay_ms = 0, materialize_ms = 0, reverse_ms = 0;
  double phase1_ms = 0, phase2_ms = 0, phase3_ms = 0, other_ms = 0, certify_ms = 0;
  double prescan_ms = 0, hub_perm_ms = 0, apply_perm_ms = 0, remap_setup_ms = 0;
  double certify_classes = 0, outer_iterations = 0, propagation_rounds = 0;
  double hashbag_rounds = 0, chains_collapsed = 0, kernel_launches = 0;
  double edges_processed = 0, edges_skipped = 0;
  double exchange_rounds = 0, boundary_vertices = 0, fleet_phase2_ms = 0, fleet_certify_ms = 0;
  double device_launches = 0, imbalance_weighted = 0, imbalance_weight = 0;
  double apply_s = 0, updates_applied = 0;
  dynamic::DynamicStats dyn_before, dyn_after;
  double min_coverage = 1.0;
  std::size_t requests = 0;
};

double span_ms(const Span& s) { return s.duration_us() * 1e-3; }

/// Lays the solver's reported phase times out inside its span, so the
/// solver span's self time is what the phases do not explain.
void add_phase_spans(SpanRecorder& rec, int parent, std::uint64_t id,
                     const scc::SccMetrics& m, bool sharded) {
  double t = rec.at(parent).start_us;
  auto lay = [&](const char* name, double seconds) {
    if (seconds <= 0.0) return;
    rec.add(name, t, t + seconds * 1e6, id, parent);
    t += seconds * 1e6;
  };
  lay("core.phase1", m.phase1_seconds);
  lay("core.phase2", m.phase2_seconds);
  lay("core.phase3", m.phase3_seconds);
  if (sharded) lay("fleet.certify", m.certify_seconds);
}

/// Replays the service's labels path for kReplayRequests requests through
/// the public calls, in the service's order, timing each from here:
/// DynamicScc::graph_with_epoch (once per epoch, as the service caches it),
/// then ecl_scc with the ecl-a100 registry options and certify_scc with the
/// per-epoch reverse as hint -- or, on the pool, the reverse first and
/// sharded_scc with try_sharded's options. On dynamic-mixed each replay is
/// preceded by the update batches that bump the epoch. The degree pre-scan
/// and hub permutation run afterwards as standalone probes: they measure
/// work done inside ecl_scc and are kept out of the layer sum.
LayerSums replay_layers(const Workload& wl, SccService& svc, UpdateFeed& feed,
                        Checker& checker, SpanRecorder& rec) {
  LayerSums sum;
  dynamic::DynamicScc& engine = svc.engine();
  const ServiceConfig& cfg = svc.config();
  std::optional<device::Device> own_device;
  if (!wl.sharded) own_device.emplace(cfg.device_profile, cfg.device_workers);
  auto device_stats = [&] { return own_device ? own_device->stats() : svc.device_stats(); };
  const device::LaunchStats launch_before = device_stats();
  sum.dyn_before = engine.stats();

  std::shared_ptr<const graph::Digraph> graph;
  std::shared_ptr<const graph::Digraph> reverse;
  std::uint64_t graph_epoch = 0;
  std::uint64_t reverse_epoch = 0;
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const std::uint64_t id = kReplayIdBase + i;
    if (wl.dynamic) {
      for (std::size_t b = 0; b < kUpdateBatchesPerCycle; ++b) {
        const auto batch = feed.next(engine);
        const int s = rec.begin("dynamic.apply_batch", id);
        const std::size_t applied = engine.apply_batch(batch);
        rec.end(s);
        sum.apply_s += rec.at(s).duration_us() * 1e-6;
        sum.updates_applied += static_cast<double>(applied);
      }
    }

    const int top = rec.begin("replay.labels", id);
    const std::uint64_t epoch = engine.epoch();
    if (!graph || graph_epoch != epoch) {
      const int s = rec.begin("graph.materialize", id, top);
      auto [g, at] = engine.graph_with_epoch();
      rec.end(s);
      sum.materialize_ms += span_ms(rec.at(s));
      graph = std::make_shared<const graph::Digraph>(std::move(g));
      graph_epoch = at;
    }
    auto ensure_reverse = [&] {
      if (reverse && reverse_epoch == graph_epoch) return;
      const int s = rec.begin("graph.reverse", id, top);
      reverse = std::make_shared<const graph::Digraph>(graph->reverse());
      rec.end(s);
      sum.reverse_ms += span_ms(rec.at(s));
      reverse_epoch = graph_epoch;
    };

    scc::SccResult result;
    bool certified = false;
    double solver_ms = 0.0;
    if (wl.sharded) {
      ensure_reverse();
      fleet::ShardedOptions sopts;
      sopts.shards = cfg.shards;
      sopts.certify = cfg.enable_certification;
      sopts.reverse_hint = reverse.get();
      const int s = rec.begin("fleet.sharded_scc", id, top);
      {
        const auto guards = svc.device_pool()->acquire_all();
        result = fleet::sharded_scc(*graph, *svc.device_pool(), sopts);
      }
      rec.end(s);
      solver_ms = span_ms(rec.at(s));
      add_phase_spans(rec, s, id, result.metrics, true);
      certified = result.metrics.certified;
      sum.certify_ms += result.metrics.certify_seconds * 1e3;
      sum.certify_classes += result.num_components;
      sum.exchange_rounds += static_cast<double>(result.metrics.exchange_rounds);
      sum.boundary_vertices += static_cast<double>(result.metrics.boundary_vertices);
      sum.fleet_phase2_ms += result.metrics.phase2_seconds * 1e3;
      sum.fleet_certify_ms += result.metrics.certify_seconds * 1e3;
    } else {
      const int s = rec.begin("core.ecl_scc", id, top);
      result = scc::ecl_scc(*graph, *own_device);
      rec.end(s);
      solver_ms = span_ms(rec.at(s));
      add_phase_spans(rec, s, id, result.metrics, false);
      ensure_reverse();
      scc::CertifyOptions copts;
      copts.reverse_hint = reverse.get();
      const int c = rec.begin("core.certify", id, top);
      const scc::CertifyReport cert = scc::certify_scc(*graph, result.labels, copts);
      rec.end(c);
      certified = cert.ok;
      sum.certify_ms += span_ms(rec.at(c));
      sum.certify_classes += static_cast<double>(cert.classes);
    }
    rec.end(top);
    sum.replay_ms += span_ms(rec.at(top));
    sum.min_coverage =
        std::min(sum.min_coverage, rec.child_covered_us(top) / rec.at(top).duration_us());

    const scc::SccMetrics& m = result.metrics;
    const double phases_ms = (m.phase1_seconds + m.phase2_seconds + m.phase3_seconds) * 1e3;
    const double other_ms = solver_ms - phases_ms - (wl.sharded ? m.certify_seconds * 1e3 : 0.0);
    sum.phase1_ms += m.phase1_seconds * 1e3;
    sum.phase2_ms += m.phase2_seconds * 1e3;
    sum.phase3_ms += m.phase3_seconds * 1e3;
    sum.other_ms += other_ms;
    sum.outer_iterations += static_cast<double>(m.outer_iterations);
    sum.propagation_rounds += static_cast<double>(m.propagation_rounds);
    sum.hashbag_rounds += static_cast<double>(m.hashbag_rounds);
    sum.chains_collapsed += static_cast<double>(m.chains_collapsed);
    sum.kernel_launches += static_cast<double>(m.kernel_launches);
    sum.edges_processed += static_cast<double>(m.edges_processed);
    sum.edges_skipped += static_cast<double>(m.edges_skipped);

    // Probes: the pre-scan always runs inside ecl_scc; the permutation and
    // its application only when the gate fired.
    const int probe = rec.begin("probe", id);
    const int p1 = rec.begin("graph.prescan", id, probe);
    graph::compute_out_degree_stats(*graph);
    rec.end(p1);
    double probes_ms = span_ms(rec.at(p1));
    sum.prescan_ms += probes_ms;
    if (m.hub_reorder_applied) {
      const int p2 = rec.begin("graph.hub_perm", id, probe);
      const std::vector<graph::vid> perm = graph::hub_clustering_permutation(*graph);
      rec.end(p2);
      const int p3 = rec.begin("graph.apply_perm", id, probe);
      const graph::Digraph permuted = graph::apply_permutation(*graph, perm);
      rec.end(p3);
      sum.hub_perm_ms += span_ms(rec.at(p2));
      sum.apply_perm_ms += span_ms(rec.at(p3));
      probes_ms += span_ms(rec.at(p2)) + span_ms(rec.at(p3));
      sum.remap_setup_ms += other_ms - probes_ms;
    } else {
      sum.remap_setup_ms += other_ms;
    }
    rec.end(probe);

    if (!result.ok() || !certified) checker.fail("replayed labeling failed or uncertified");
    checker.labels("replayed labeling", result.labels, graph_epoch, engine);
    ++sum.requests;
  }
  const device::LaunchStats launch_after = device_stats();
  sum.device_launches =
      static_cast<double>(launch_after.kernel_launches - launch_before.kernel_launches);
  sum.imbalance_weighted = launch_after.imbalance_weighted - launch_before.imbalance_weighted;
  sum.imbalance_weight = launch_after.imbalance_weight - launch_before.imbalance_weight;
  sum.dyn_after = engine.stats();
  return sum;
}

// ---- One run ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_path;  ///< Chrome trace output of a traced run (optional)
  std::string out_path;
};

struct RunOutcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  Json doc;
};

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

RunOutcome run_workload(const Options& opt) {
  const auto process_start = Clock::now();
  const bool traced = opt.traced;
  const Workload wl = make_workload(opt.workload, opt.seed);
  std::printf("workload %s seed %llu: %s vertices, %s edges%s\n", wl.name.c_str(),
              static_cast<unsigned long long>(opt.seed),
              with_commas(wl.graph.num_vertices()).c_str(),
              with_commas(wl.graph.num_edges()).c_str(), traced ? " (traced)" : "");

  // Set-up: construction includes the engine's initial decomposition. The
  // resident set is read after the first one, as a fresh process has it,
  // once free heap pages went back to the OS: how many freed pages glibc
  // happens to retain varies by 16 MB between inputs of the same shape.
  std::vector<double> setup_s;
  double setup_rss = 0.0;
  std::unique_ptr<SccService> svc;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<SccService>(wl.graph, wl.config());
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (i == 0) {
      malloc_trim(0);
      setup_rss = rss_mb();
    }
  }

  Checker checker;
  UpdateFeed feed(opt.seed);
  Rng reach_rng(stream_seed(opt.seed, 2));
  SpanRecorder rec;
  LayerSums layers;
  if (traced) layers = replay_layers(wl, *svc, feed, checker, rec);

  // Warm-up: fills the per-epoch graph and reverse caches a static
  // workload keeps for its whole life.
  {
    Request req;
    const Response r = svc->call(req);
    if (!r.ok() || !r.labels || !r.served_by.certified)
      checker.fail("warm-up labels request failed");
    else
      checker.labels("warm-up labels", r.labels->labels, r.served_by.epoch, svc->engine());
  }
  const LoopStats loop = request_loop(wl, *svc, feed, reach_rng, checker, opt.seconds,
                                      traced ? &rec : nullptr, process_start);
  svc->shutdown();

  RunOutcome out;
  out.correct = checker.ok();
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  const Quartiles lq = quartiles(loop.labels_ms);
  const double p90 = percentile(loop.labels_ms, kTailP);
  if (!traced) {
    out.metrics.add("labels_p50_ms", median(loop.labels_ms), "ms");
    out.metrics.add("labels_p90_ms", p90, "ms");
    out.metrics.add("requests_per_s", static_cast<double>(loop.attempted) / loop.timed_s, "1/s");
    out.metrics.add("setup_s", *std::ranges::min_element(setup_s), "s");
    out.metrics.add("setup_rss_mb", setup_rss, "MB");
  } else {
    if (layers.min_coverage < kMinCoverage)
      throw std::runtime_error("replay spans cover only " +
                               fixed(layers.min_coverage * 100, 2) +
                               "% of a replayed request; a cost hides between timers");
    const double k = static_cast<double>(layers.requests);
    const dynamic::DynamicStats& d0 = layers.dyn_before;
    const dynamic::DynamicStats& d1 = layers.dyn_after;
    const double plain = median_or_zero(loop.labels_plain_ms);
    MetricSet& m = out.metrics;
    m.add("service.queue_ms", median_or_zero(loop.queue_ms), "ms");
    m.add("service.overhead_ms", median_or_zero(loop.overhead_ms), "ms");
    m.add("service.reach_p50_us", median_or_zero(loop.reach_us), "us");
    m.add("service.rss_growth_mb", loop.rss_growth_mb, "MB");
    m.add("graph.materialize_ms", layers.materialize_ms / k, "ms");
    m.add("graph.reverse_ms", layers.reverse_ms / k, "ms");
    m.add("graph.prescan_ms", layers.prescan_ms / k, "ms");
    m.add("graph.hub_perm_ms", layers.hub_perm_ms / k, "ms");
    m.add("graph.apply_perm_ms", layers.apply_perm_ms / k, "ms");
    m.add("core.phase1_ms", layers.phase1_ms / k, "ms");
    m.add("core.phase2_ms", layers.phase2_ms / k, "ms");
    m.add("core.phase3_ms", layers.phase3_ms / k, "ms");
    m.add("core.other_ms", layers.other_ms / k, "ms");
    m.add("core.remap_setup_ms", layers.remap_setup_ms / k, "ms");
    m.add("core.certify_ms", layers.certify_ms / k, "ms");
    m.add("core.certify_classes", layers.certify_classes / k, "count");
    m.add("core.outer_iterations", layers.outer_iterations / k, "count");
    m.add("core.propagation_rounds", layers.propagation_rounds / k, "count");
    m.add("core.hashbag_rounds", layers.hashbag_rounds / k, "count");
    m.add("core.chains_collapsed", layers.chains_collapsed / k, "count");
    m.add("core.kernel_launches", layers.kernel_launches / k, "count");
    const double visits = layers.edges_processed + layers.edges_skipped;
    m.add("core.skip_ratio", visits > 0 ? layers.edges_skipped / visits : 0.0, "ratio");
    m.add("fleet.exchange_rounds", layers.exchange_rounds / k, "count");
    m.add("fleet.boundary_vertices", layers.boundary_vertices / k, "count");
    m.add("fleet.phase2_ms", layers.fleet_phase2_ms / k, "ms");
    m.add("fleet.certify_ms", layers.fleet_certify_ms / k, "ms");
    m.add("dynamic.updates_per_s",
          loop.update_s > 0 ? static_cast<double>(loop.updates) / loop.update_s : 0.0, "1/s");
    m.add("dynamic.apply_us_per_update",
          layers.updates_applied > 0 ? layers.apply_s * 1e6 / layers.updates_applied : 0.0,
          "us");
    m.add("dynamic.full_rebuilds", static_cast<double>(d1.full_rebuilds - d0.full_rebuilds),
          "count");
    m.add("dynamic.merges", static_cast<double>(d1.merges - d0.merges), "count");
    m.add("dynamic.delete_fast_checks",
          static_cast<double>(d1.delete_fast_checks - d0.delete_fast_checks), "count");
    m.add("dynamic.condensation_bfs_nodes",
          static_cast<double>(d1.condensation_bfs_nodes - d0.condensation_bfs_nodes), "count");
    m.add("device.launches", layers.device_launches / k, "count");
    m.add("device.block_imbalance",
          layers.imbalance_weight > 0 ? layers.imbalance_weighted / layers.imbalance_weight
                                      : 1.0,
          "ratio");
    m.add("trace.replay_ms", layers.replay_ms / k, "ms");
    m.add("trace.coverage_pct", layers.min_coverage * 100.0, "%");
    m.add("trace_overhead_pct",
          plain > 0 ? (median_or_zero(loop.labels_traced_ms) / plain - 1.0) * 100.0 : 0.0, "%");
  }

  Json latency = Json::object();
  latency.set("samples", static_cast<std::uint64_t>(loop.labels_ms.size()));
  latency.set("q1", lq.q1);
  latency.set("median", lq.median);
  latency.set("q3", lq.q3);
  latency.set("p90", p90);
  Json setup = Json::array();
  for (double s : setup_s) setup.push(s);
  Json checks = Json::object();
  checks.set("compared", checker.compared());
  checks.set("failures", checker.failures());
  Json errors = Json::array();
  for (const auto& e : checker.errors()) errors.push(e);
  checks.set("errors", std::move(errors));

  Json doc = result_header("bench_e2e", 1,
                           "per run: median and nearest-rank p90 of client latencies; "
                           "setup_s: minimum of " + std::to_string(kSetupRepeats) +
                               " constructions");
  doc.set("workload", wl.name);
  doc.set("seed", opt.seed);
  doc.set("seconds", opt.seconds);
  doc.set("traced", traced);
  doc.set("vertices", wl.graph.num_vertices());
  doc.set("edges", static_cast<std::uint64_t>(wl.graph.num_edges()));
  doc.set("correct", out.correct);
  doc.set("attempted", out.attempted);
  doc.set("failed", out.failed);
  doc.set("metrics", out.metrics.result_json());
  doc.set("labels_latency_ms", std::move(latency));
  doc.set("setup_samples_s", std::move(setup));
  doc.set("timed_s", loop.timed_s);
  doc.set("checks", std::move(checks));
  if (traced) {
    Json self = Json::object();
    for (const auto& [name, us] : rec.self_time_by_name()) self.set(name, us * 1e-3);
    doc.set("self_ms_by_span", std::move(self));
    if (!opt.trace_path.empty()) write_json_file(opt.trace_path, rec.chrome_trace());
  }
  out.doc = std::move(doc);
  return out;
}

void print_result_line(const RunOutcome& r) {
  Json line = Json::object();
  line.set("correct", r.correct);
  line.set("attempted", r.attempted);
  line.set("failed", r.failed);
  line.set("metrics", r.metrics.result_json());
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
}

void report(const RunOutcome& r, const std::string& title) {
  r.metrics.print(title);
  std::printf("attempted %llu, failed %llu, answers %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.correct ? "correct" : "WRONG");
}

/// No arguments: every workload at toy scale, traced, with the Tarjan
/// comparisons, span coverage, result-file header and seed-0 generator
/// identity checked. Fast enough for CI.
int smoke() {
  setenv("ECL_SCALE", "0.002", 1);
  setenv("ECL_MAX_ORDINATES", "6", 1);
  bool ok = true;
  const auto spec = power_law_spec("wikipedia");
  const graph::Digraph ours = power_law_graph(spec, 0);
  const graph::Digraph theirs = bench::power_law_graph(spec);
  if (!std::ranges::equal(ours.offsets(), theirs.offsets()) ||
      !std::ranges::equal(ours.targets(), theirs.targets())) {
    std::printf("smoke: seed 0 does not reproduce bench::power_law_graph\n");
    ok = false;
  }
  for (const char* name : kWorkloadNames) {
    Options opt;
    opt.workload = name;
    opt.seconds = 0.2;
    opt.traced = true;
    const RunOutcome r = run_workload(opt);
    report(r, std::string("smoke ") + name);
    const std::string text = r.doc.dump();
    for (const char* key : {"\"bench\"", "\"git_sha\"", "\"scale\"", "\"runs\"",
                            "\"statistic\"", "\"nproc\"", "\"cpu_model\""})
      if (text.find(key) == std::string::npos) {
        std::printf("smoke: result header lacks %s\n", key);
        ok = false;
      }
    ok = ok && r.correct && r.failed == 0;
  }
  std::printf("\nsmoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace FILE] [--out FILE]\n       bench_e2e   (smoke run)\nworkloads:",
               msg);
  for (const char* name : kWorkloadNames) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 1) return smoke();
    Options opt;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") {
        opt.traced = true;
        opt.trace_path = value;
      }
      else if (arg == "--out") opt.out_path = value;
      else return usage(("unknown argument " + arg).c_str());
    }
    if (opt.workload.empty()) return usage("--workload is required");
    if (!(opt.seconds > 0)) return usage("--seconds must be positive");
    const RunOutcome r = run_workload(opt);
    report(r, opt.workload + (opt.traced ? " per-layer" : " end-to-end"));
    if (!opt.out_path.empty()) write_json_file(opt.out_path, r.doc);
    print_result_line(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}

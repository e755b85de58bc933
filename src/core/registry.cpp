#include "core/registry.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/ecl_scc.hpp"
#include "core/ecl_omp.hpp"
#include "core/ecl_serial.hpp"
#include "core/fb_trim.hpp"
#include "core/hong.hpp"
#include "core/ispan.hpp"
#include "core/kosaraju.hpp"
#include "core/tarjan.hpp"
#include "core/verify.hpp"

namespace ecl::scc {
namespace {

device::Device& titanv_device() {
  static device::Device dev(device::titan_v_profile());
  return dev;
}

/// ECL-SCC with the high-diameter paths (DESIGN.md §15) tuned out: both
/// density thresholds at 0 mean no round chases a chain or takes the
/// hash-bag sparse frontier, so every Phase-2 round is a dense gated sweep
/// of the worklist up to the fixpoint. The load-balanced solver of §10/§11
/// as it was before §15; the default configuration only sweeps densely
/// until the frontier collapses.
EclOptions dense_sweep_options() {
  EclOptions opts;
  opts.chain_density = 0.0;
  opts.hashbag_density = 0.0;
  return opts;
}

const std::vector<std::pair<std::string, SccAlgorithm>>& table() {
  static const std::vector<std::pair<std::string, SccAlgorithm>> algorithms = {
      // Tarjan and Kosaraju name components by discovery index; every other
      // configuration names them by a member vertex. The online certifier's
      // O(V) completeness check (core/verify.hpp) relies on member naming
      // (labels[label] == label), so the two index-named configurations are
      // canonicalized at the registry boundary — an O(V) rewrite that does
      // not change the partition or the component count.
      {"tarjan",
       [](const Digraph& g) {
         SccResult r = tarjan(g);
         canonicalize_labels(r.labels);
         return r;
       }},
      {"kosaraju",
       [](const Digraph& g) {
         SccResult r = kosaraju(g);
         canonicalize_labels(r.labels);
         return r;
       }},
      {"ecl-serial", [](const Digraph& g) { return ecl_serial(g); }},
      {"ecl-a100", [](const Digraph& g) { return ecl_scc(g, shared_device()); }},
      {"ecl-titanv", [](const Digraph& g) { return ecl_scc(g, titanv_device()); }},
      {"ecl-loadbalance",
       [](const Digraph& g) { return ecl_scc(g, shared_device(), dense_sweep_options()); }},
      {"gpu-scc-a100", [](const Digraph& g) { return fb_trim(g, shared_device()); }},
      {"gpu-scc-titanv", [](const Digraph& g) { return fb_trim(g, titanv_device()); }},
      {"ispan", [](const Digraph& g) { return ispan(g); }},
      {"hong", [](const Digraph& g) { return hong(g); }},
      {"ecl-omp", [](const Digraph& g) { return ecl_omp(g); }},
  };
  return algorithms;
}

/// ECL-SCC on `dev`, from the caller's prepared input when there is one.
SccResult ecl_from(const Digraph& g, device::Device& dev, const EclInput* input,
                   const EclOptions& opts = {}) {
  return input ? ecl_scc(g, *input, dev, opts) : ecl_scc(g, dev, opts);
}

/// Device-parameterized variants of the configurations that run on the
/// virtual device substrate. The a100/titanv split lives in the device
/// profile, so both map to the same solver here. FB-Trim ignores the
/// prepared input.
using DeviceAlgorithm =
    std::function<SccResult(const Digraph&, device::Device&, const EclInput*)>;

const std::vector<std::pair<std::string, DeviceAlgorithm>>& device_table() {
  static const std::vector<std::pair<std::string, DeviceAlgorithm>> algorithms = {
      {"ecl-a100",
       [](const Digraph& g, device::Device& dev, const EclInput* in) {
         return ecl_from(g, dev, in);
       }},
      {"ecl-titanv",
       [](const Digraph& g, device::Device& dev, const EclInput* in) {
         return ecl_from(g, dev, in);
       }},
      {"ecl-loadbalance",
       [](const Digraph& g, device::Device& dev, const EclInput* in) {
         return ecl_from(g, dev, in, dense_sweep_options());
       }},
      {"gpu-scc-a100",
       [](const Digraph& g, device::Device& dev, const EclInput*) { return fb_trim(g, dev); }},
      {"gpu-scc-titanv",
       [](const Digraph& g, device::Device& dev, const EclInput*) { return fb_trim(g, dev); }},
  };
  return algorithms;
}

}  // namespace

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  names.reserve(table().size());
  for (const auto& [name, fn] : table()) names.push_back(name);
  return names;
}

SccAlgorithm find_algorithm(const std::string& name) {
  for (const auto& [candidate, fn] : table()) {
    if (candidate == name) return fn;
  }
  std::ostringstream msg;
  msg << "unknown SCC algorithm '" << name << "'; valid names:";
  for (const auto& valid : algorithm_names()) msg << ' ' << valid;
  throw std::invalid_argument(msg.str());
}

SccResult run_algorithm(const std::string& name, const Digraph& g) {
  return find_algorithm(name)(g);
}

bool algorithm_uses_device(const std::string& name) {
  for (const auto& [candidate, fn] : device_table()) {
    if (candidate == name) return true;
  }
  return false;
}

bool algorithm_reads_ecl_input(const std::string& name) {
  return name == "ecl-a100" || name == "ecl-titanv" || name == "ecl-loadbalance";
}

SccResult run_algorithm_on(const std::string& name, const Digraph& g, device::Device& dev,
                           const EclInput* input) {
  for (const auto& [candidate, fn] : device_table()) {
    if (candidate == name) return fn(g, dev, input);
  }
  return run_algorithm(name, g);
}

namespace {

SccResult run_attempt(const SccAlgorithm& algorithm, const Digraph& g) {
  try {
    return algorithm(g);
  } catch (const std::exception& e) {
    SccResult result;
    result.error = {SccStatus::kException, e.what()};
    return result;
  }
}

bool complete_labeling(const SccResult& result, const Digraph& g) {
  return result.labels.size() == g.num_vertices() &&
         std::none_of(result.labels.begin(), result.labels.end(),
                      [](vid l) { return l == graph::kInvalidVid; });
}

/// Certification gate: a result may only leave the ladder when its labeling
/// is complete AND passes the online certificate. On failure the result's
/// error is upgraded to the structured cause (incomplete → kVerifyFailed if
/// nothing worse is recorded; certificate rejection → kCertificationFailed,
/// the silent-corruption signal) so the caller's retry chain can act on it.
bool certified(const Digraph& g, SccResult& result, const Digraph* reverse_hint = nullptr) {
  if (!complete_labeling(result, g)) {
    if (result.ok())
      result.error = {SccStatus::kVerifyFailed, "labeling is incomplete"};
    return false;
  }
  CertifyOptions opts;
  opts.reverse_hint = reverse_hint;
  const CertifyReport cert = certify_scc(g, result.labels, opts);
  result.metrics.certify_seconds += cert.seconds;
  if (cert.ok) {
    result.metrics.certified = true;
    return true;
  }
  result.error = {SccStatus::kCertificationFailed, cert.message};
  return false;
}

/// Recovery bookkeeping carried across ladder rungs so the served result
/// accounts for everything spent reaching it, the sharded engine's fleet
/// counters included (DESIGN.md §14).
void merge_recovery_metrics(SccMetrics& into, const SccMetrics& from) {
  into.checkpoints_taken += from.checkpoints_taken;
  into.resumes += from.resumes;
  into.rounds_replayed += from.rounds_replayed;
  into.watchdog_trips += from.watchdog_trips;
  into.certify_seconds += from.certify_seconds;
  into.fresh_reruns += from.fresh_reruns;
  into.recovery_seconds += from.recovery_seconds;
  into.exchange_rounds += from.exchange_rounds;
  into.failovers += from.failovers;
  into.shards_rehomed += from.shards_rehomed;
  into.stragglers_flagged += from.stragglers_flagged;
  into.straggler_migrations += from.straggler_migrations;
  into.pool_last_resort = into.pool_last_resort || from.pool_last_resort;
}

}  // namespace

/// The bounded recovery ladder (DESIGN.md §12). Rung 1, checkpointed
/// resume, lives INSIDE the solver (EclOptions::checkpoint), and the
/// sharded engine's failover inside its coordinator (§14); this adds the
/// outer rungs:
///
///   primary attempt ──certify──> serve
///        │ (incomplete / uncertified)
///   fresh rerun     ──certify──> serve   (new schedule; transient faults
///        │                               may have passed)
///   serial Tarjan   ──certify──> serve
///
/// A result that has a recorded error but complete, certified labels (the
/// solver's own serial fallback) is served as-is: the error documents what
/// was survived. A result that fails certification is NEVER served as
/// trustworthy — the final rung's labels travel with kCertificationFailed
/// and metrics.certified == false so service layers refuse them.
SccResult run_resilient(const SccAlgorithm& attempt, const Digraph& g,
                        const Digraph* reverse_hint) {
  SccResult result = run_attempt(attempt, g);
  // Every rung certifies against the same graph, so the reverse adjacency
  // (labeling-independent) is built once and shared. On the clean path this
  // is exactly the build certify_scc would have done internally; on the
  // recovery rungs it cuts each extra certification by one O(V+E) pass.
  // A caller that already holds the reverse (the service's per-epoch
  // cache) passes it as `reverse_hint` so it is not rebuilt per call.
  std::optional<Digraph> local_reverse;
  if (reverse_hint == nullptr) {
    local_reverse.emplace(g.reverse());
    reverse_hint = &*local_reverse;
  }
  const Digraph& reverse = *reverse_hint;
  if (certified(g, result, &reverse)) return result;

  // Rung 2: one full fresh rerun. The schedule, launch ordering, and any
  // transient fault window differ, so a corruption that slipped past the
  // solver's internal replay often clears here.
  SccResult rerun = run_attempt(attempt, g);
  merge_recovery_metrics(rerun.metrics, result.metrics);
  ++rerun.metrics.fresh_reruns;
  if (certified(g, rerun, &reverse)) return rerun;

  // Rung 3: serial Tarjan on the host — no device, no faults — with every
  // class named by its largest member, as the solvers name them. Certified
  // like every other rung; a rejection here (which would mean the reference
  // implementation itself is wrong) is surfaced, not masked.
  SccResult final = std::move(rerun);
  final.labels.assign(g.num_vertices(), graph::kInvalidVid);
  complete_with_tarjan(g, final);
  final.metrics.certified = false;
  if (const SccError ladder_error = final.error; certified(g, final, &reverse))
    final.error = ladder_error;  // keep what was survived, labels are good
  return final;
}

SccResult run_resilient(const std::string& name, const Digraph& g,
                        const Digraph* reverse_hint) {
  return run_resilient(find_algorithm(name), g, reverse_hint);  // unknown name: throws
}

SccResult run_resilient_on(const std::string& name, const Digraph& g, device::Device& dev,
                           const Digraph* reverse_hint) {
  (void)find_algorithm(name);  // unknown name: throws before we touch the device
  return run_resilient(
      [&name, &dev](const Digraph& graph) { return run_algorithm_on(name, graph, dev); }, g,
      reverse_hint);
}

SccResult run_with_deadline(const std::string& name, const Digraph& g,
                            std::chrono::steady_clock::time_point deadline,
                            device::Device* dev, const EclInput* input) {
  (void)find_algorithm(name);  // unknown name: throws (a caller bug, not a fault)
  SccResult result;
  try {
    if (algorithm_reads_ecl_input(name)) {
      EclOptions opts = name == "ecl-loadbalance" ? dense_sweep_options() : EclOptions{};
      opts.watchdog.deadline = deadline;
      opts.stall_policy = StallPolicy::kReturnError;
      result = ecl_from(g, dev ? *dev : (name == "ecl-titanv" ? titanv_device() : shared_device()),
                        input, opts);
    } else if (name == "ecl-omp") {
      EclOmpOptions opts;
      opts.deadline = deadline;
      result = ecl_omp(g, opts);
    } else if (dev) {
      result = run_algorithm_on(name, g, *dev);
    } else {
      result = run_algorithm(name, g);
    }
  } catch (const std::exception& e) {
    result = SccResult{};
    result.error = {SccStatus::kException, e.what()};
  }
  // Uniform post-check: configurations that cannot be cancelled mid-run
  // (and an ECL run that converged exactly at the wire) still must not
  // report a deadline-violating success.
  if (result.ok() && std::chrono::steady_clock::now() > deadline)
    result.error = {SccStatus::kDeadlineExceeded,
                    "run_with_deadline: '" + name + "' finished after the deadline"};
  return result;
}

}  // namespace ecl::scc

#ifndef ECL_CORE_REGISTRY_HPP
#define ECL_CORE_REGISTRY_HPP

// Name-based algorithm registry used by the examples and the benchmark
// harness: maps the configuration names of the paper's evaluation
// ("ecl-a100", "gpu-scc-titanv", "ispan", ...) to runnable closures.

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/result.hpp"

namespace ecl::device {
class Device;
}

namespace ecl::scc {

using SccAlgorithm = std::function<SccResult(const Digraph&)>;

/// Names of all registered algorithm configurations.
std::vector<std::string> algorithm_names();

/// Looks up an algorithm by name; throws std::invalid_argument for unknown
/// names (the message lists valid ones).
SccAlgorithm find_algorithm(const std::string& name);

/// Convenience: look up and run.
SccResult run_algorithm(const std::string& name, const Digraph& g);

/// True if the named configuration runs on the virtual device substrate
/// (and therefore honors a device's fault plan / block-schedule knobs).
bool algorithm_uses_device(const std::string& name);

/// Runs the named configuration on the caller's device instead of the
/// registry's process-wide one — the hook the chaos harness uses to sweep
/// fault plans. CPU configurations ignore `dev` and run normally.
SccResult run_algorithm_on(const std::string& name, const Digraph& g, device::Device& dev);

/// Resilient entry point: runs the named configuration, converts any thrown
/// exception into SccStatus::kException, intrinsically verifies the
/// labeling (verify_scc), and — whenever the labels are missing, partial,
/// or fail verification — recomputes them with serial Tarjan, recording the
/// fallback in SccMetrics. Always returns a complete, verified labeling;
/// `error` still reports what went wrong with the primary run. Unknown
/// names still throw std::invalid_argument (a caller bug, not a fault).
///
/// `reverse_hint`, when non-null, must be the reverse of `g`; the
/// certification rungs then skip their own O(V+E) reverse build. Callers
/// that certify many results against one graph (the fleet's stitched-shard
/// certificate, the service's per-epoch cache) build the reverse exactly
/// once and thread it through here.
SccResult run_resilient(const std::string& name, const Digraph& g,
                        const Digraph* reverse_hint = nullptr);

/// run_resilient with the caller's device: device-backed configurations run
/// on `dev` (honoring its fault plan — the hook the dynamic subsystem's
/// chaos tests use to perturb full rebuilds), CPU configurations ignore it.
/// The same always-complete, always-verified contract as run_resilient,
/// including the shared `reverse_hint` amortization.
SccResult run_resilient_on(const std::string& name, const Digraph& g, device::Device& dev,
                           const Digraph* reverse_hint = nullptr);

/// Runs the named configuration under an absolute wall-clock deadline — the
/// entry point of the request pipeline (src/service). The four ECL-SCC
/// configurations get the deadline plumbed into their fixpoint loops
/// (cancelled between Phase-2 rounds; the device solver under
/// StallPolicy::kReturnError so no hidden serial fallback eats the
/// remaining budget); the other configurations run to completion and are
/// post-checked. In every case a result that
/// finished after the deadline carries SccStatus::kDeadlineExceeded, so a
/// caller that honors the error never serves a deadline-violating answer.
/// Thrown exceptions are converted to SccStatus::kException; unknown names
/// still throw std::invalid_argument. `dev`, when non-null, routes
/// device-backed configurations the same way run_algorithm_on does.
SccResult run_with_deadline(const std::string& name, const Digraph& g,
                            std::chrono::steady_clock::time_point deadline,
                            device::Device* dev = nullptr);

}  // namespace ecl::scc

#endif  // ECL_CORE_REGISTRY_HPP

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

struct EclInput;

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

/// True if the named configuration is an ECL-SCC device solve
/// (ecl-a100, ecl-titanv, ecl-loadbalance), the configurations that solve
/// from a prepared EclInput (core/ecl_scc.hpp) when one is passed.
bool algorithm_reads_ecl_input(const std::string& name);

/// Runs the named configuration on the caller's device instead of the
/// registry's process-wide one — the hook the chaos harness uses to sweep
/// fault plans. CPU configurations ignore `dev` and run normally. `input`,
/// when non-null, must be prepared from `g`; the configurations of
/// algorithm_reads_ecl_input solve from it, every other one ignores it.
SccResult run_algorithm_on(const std::string& name, const Digraph& g, device::Device& dev,
                           const EclInput* input = nullptr);

/// The recovery ladder (DESIGN.md §12) around the caller's `attempt`: runs
/// it on g, converting a thrown exception into SccStatus::kException, and
/// certifies the labels with the online certifier (certify_scc). An
/// incomplete or rejected labeling is rerun once (fresh_reruns = 1), and a
/// second rejection is served by serial Tarjan with every class named by
/// its largest member (complete_with_tarjan, core/tarjan.hpp), recorded as
/// metrics.serial_fallback. Always returns a complete labeling;
/// metrics.certified says whether it passed the certificate, and `error`
/// still reports what went wrong on the way. The sharded engine
/// (fleet/sharded_scc.hpp) serves through this ladder too.
///
/// `reverse_hint`, when non-null, must be the reverse of `g`; the
/// certification rungs then skip their own O(V+E) reverse build. Callers
/// that certify many results against one graph (the service's per-epoch
/// cache) build the reverse exactly once and thread it through here.
SccResult run_resilient(const SccAlgorithm& attempt, const Digraph& g,
                        const Digraph* reverse_hint = nullptr);

/// The ladder above around the named configuration. Unknown names throw
/// std::invalid_argument (a caller bug, not a fault).
SccResult run_resilient(const std::string& name, const Digraph& g,
                        const Digraph* reverse_hint = nullptr);

/// run_resilient with the caller's device: device-backed configurations run
/// on `dev` (honoring its fault plan — the hook the dynamic subsystem's
/// chaos tests use to perturb full rebuilds), CPU configurations ignore it.
/// The same ladder as run_resilient, including the shared `reverse_hint`
/// amortization.
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
/// device-backed configurations the same way run_algorithm_on does, and
/// `input` is read as run_algorithm_on reads it.
SccResult run_with_deadline(const std::string& name, const Digraph& g,
                            std::chrono::steady_clock::time_point deadline,
                            device::Device* dev = nullptr, const EclInput* input = nullptr);

}  // namespace ecl::scc

#endif  // ECL_CORE_REGISTRY_HPP

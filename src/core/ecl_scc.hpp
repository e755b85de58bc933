#ifndef ECL_CORE_ECL_SCC_HPP
#define ECL_CORE_ECL_SCC_HPP

// ECL-SCC: the paper's primary contribution (§3).
//
// Max-ID propagation with edge removal, implemented in GPU-kernel style on
// the virtual device substrate. All four code optimizations studied in
// Fig. 14 are independent toggles so the ablation benchmark can disable
// them one at a time:
//
//  * async_phase2      — thread blocks iterate internally to a local fixed
//                        point, slashing kernel-launch count (§3.3); each
//                        pass after the first visits only edges whose
//                        endpoints moved since the previous one began
//                        (DESIGN.md §10);
//  * remove_scc_edges  — drop edges inside already-detected SCCs from the
//                        worklist, not only the cross-SCC edges (§3.3);
//  * path_compression  — propagate in[in[u]] / out[out[v]] and lift the
//                        signature of the overwritten value's vertex (§3.3);
//  * persistent_threads— resident grid with multiple edges per thread
//                        instead of one thread per edge (§3.4).
//
// Note on the second-level path compression: the paper states that before a
// signature value s of vertex v is overwritten by a larger value t, vertex
// s's signature is also conditionally updated. Updating s with t itself is
// not sound in general (t need not be reachable from / to s); this
// implementation uses the provably sound cross-signature form implied by
// the paper's own justification ("ancestors of v share v's descendants"):
// when in[v] is raised, the old value s is an ancestor of v, so out[s] is
// lifted with out[v]; symmetrically for out[u]. The fixed point then equals
// Algorithm 1's exactly (see DESIGN.md).

#include <vector>

#include "core/result.hpp"
#include "core/watchdog.hpp"
#include "device/device.hpp"

namespace ecl::scc {

/// Checkpointed-resume policy (DESIGN.md §12). ECL-SCC's fixpoint is
/// monotone — signatures only move toward the fixed point — so the live
/// state at any grid barrier is a legal restart state: resuming
/// propagation from it converges to the same labeling as an uninterrupted
/// run. A watchdog trip or worklist overflow resumes instead of discarding
/// the whole run.
struct CheckpointConfig {
  /// Master switch. Off = the pre-§12 behavior (one-shot run, no resume).
  bool enabled = true;
  /// Bounded recovery ladder rung 1: at most this many resumes per run
  /// before the error escalates (rung 2 = fresh rerun, rung 3 = serial
  /// Tarjan; see core/registry.hpp).
  unsigned max_resumes = 2;
};

/// What ecl_scc does when the fixpoint watchdog trips, the worklist
/// overflows, or the iteration guard fires.
enum class StallPolicy : std::uint8_t {
  /// Complete the labeling with Tarjan on the unlabeled residual subgraph
  /// and return it (the error is still recorded, and the fallback is noted
  /// in SccMetrics). This is the graceful-degradation default: callers
  /// always receive a full, verifiable labeling.
  kSerialFallback,
  /// Return immediately with partial labels (unlabeled vertices hold
  /// graph::kInvalidVid) and the structured error. num_components is 0.
  kReturnError,
};

struct EclOptions {
  bool async_phase2 = true;
  bool remove_scc_edges = true;
  bool path_compression = true;
  bool persistent_threads = true;

  // --- Tuning values of the post-paper paths (DESIGN.md §10, §11, §15).
  // Those paths are not options: chunked Phase-3 appends, frontier gating,
  // padded signature slots, work stealing, equal edge spans, the gated hub
  // reorder, chain chasing and the hash-bag frontier always run. These
  // values only set when the adaptive ones engage; tests use them to force
  // the chaser and the sparse path on small graphs. ------------------------
  /// Bound on one local chase (forward plus backward), keeping per-worker
  /// granularity bounded. Deep meshes routinely saturate a small cap
  /// (mobius-strip chases hit 64 exactly); with per-round chase dedup
  /// (per-round chase stamps) a long chase is walked once per round, so a
  /// generous cap collapses more rounds without the quadratic re-walk risk
  /// that made small caps necessary.
  std::uint32_t chain_cap = 256;
  /// Active-edge / worklist-size ratio below which a round chases. Dense
  /// heavy-movement rounds visit every chain edge anyway, so a chase there
  /// only duplicates work; the win is in the sparse tail, where a chase
  /// collapses whole rounds. Matches hashbag_density: the chase pays off in
  /// exactly the rounds the sparse frontier targets. Values >= 1 chase from
  /// the first round whose active count drops below m (tests use this to
  /// force the chaser); 0 never chases.
  double chain_density = 0.05;
  /// Mover-count / worklist-size ratio below which a round's successor
  /// visits only the edges incident to its movers (the hash-bag sparse
  /// frontier, device/hash_bag.hpp) instead of gate-scanning the worklist.
  /// 0 keeps every round dense (the registry's ecl-loadbalance).
  double hashbag_density = 0.05;

  /// Safety guard on outer iterations; 0 means |V| + 2 (the theoretical
  /// bound is the number of SCCs). A trip is reported as
  /// SccStatus::kIterationGuard, subject to stall_policy — never thrown.
  std::uint64_t max_outer_iterations = 0;
  /// Stall detection around the outer and Phase-2 fixpoint loops.
  WatchdogConfig watchdog = WatchdogConfig::defaults();
  /// Degradation behavior on watchdog trip / overflow / guard.
  StallPolicy stall_policy = StallPolicy::kSerialFallback;
  /// Checkpointed resume (DESIGN.md §12): the bounded resume count
  /// attempted before a trip escalates to stall_policy.
  CheckpointConfig checkpoint;
};

/// All-off configuration (the "disable all 4" bar of Fig. 14). The
/// post-paper levers stay on: they postdate the paper's ablation.
EclOptions ecl_all_optimizations_off();

/// Runs ECL-SCC on the given virtual device. Labels are the maximum vertex
/// ID of each component (§3.2.1).
SccResult ecl_scc(const Digraph& g, device::Device& dev, const EclOptions& opts = {});

/// Convenience overload using a process-wide shared device (A100 profile).
SccResult ecl_scc(const Digraph& g, const EclOptions& opts = {});

/// The process-wide device used by the convenience overload.
device::Device& shared_device();

}  // namespace ecl::scc

#endif  // ECL_CORE_ECL_SCC_HPP

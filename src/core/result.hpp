#ifndef ECL_CORE_RESULT_HPP
#define ECL_CORE_RESULT_HPP

// Common result type returned by every SCC algorithm in the library.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace ecl::scc {

using graph::Digraph;
using graph::eid;
using graph::vid;

/// Structured failure status carried in SccResult instead of a thrown
/// exception, so callers (bench harness, examples, services) can degrade
/// gracefully rather than terminate.
enum class SccStatus : std::uint8_t {
  kOk = 0,
  kStalled,           ///< fixpoint watchdog: no progress within its budget
  kWorklistOverflow,  ///< EdgeWorklist append ran past capacity
  kIterationGuard,    ///< outer loop exceeded its iteration budget
  kException,         ///< the algorithm threw (caught by run_resilient)
  kVerifyFailed,      ///< incomplete labeling, rejected by the
                      ///< certification gate (run_resilient)
  kDeadlineExceeded,  ///< the run's wall-clock deadline passed (watchdog /
                      ///< run_with_deadline); labels may be partial
  kCertificationFailed,  ///< labeling rejected by the online certifier
                         ///< (certify_scc): structurally complete but NOT a
                         ///< valid SCC decomposition — a silently corrupted
                         ///< run. Feeds the recovery ladder; never served.
};

/// Stable short name ("ok", "stalled", ...) for logs and tables.
const char* status_name(SccStatus status);

struct SccError {
  SccStatus code = SccStatus::kOk;
  std::string message;  ///< empty when ok

  explicit operator bool() const noexcept { return code != SccStatus::kOk; }
};

/// Instrumentation counters filled in by the algorithms; the quantities the
/// paper's optimization study (Fig. 14) reasons about.
struct SccMetrics {
  std::uint64_t outer_iterations = 0;    ///< Alg. 1 while-loop trips / FB rounds
  std::uint64_t propagation_rounds = 0;  ///< Phase-2 global rounds / BFS levels
  std::uint64_t edges_processed = 0;     ///< total edge visits across all rounds
  /// ECL-SCC Phase 2 only: the edge visits, chase links included, whose
  /// update moved a signature; edges_processed / edges_moved is the visits
  /// Phase 2 pays per useful one (DESIGN.md §10).
  std::uint64_t edges_moved = 0;
  std::uint64_t edges_removed = 0;       ///< worklist shrinkage (Phase 3)
  std::uint64_t kernel_launches = 0;     ///< virtual-device launches
  std::uint64_t block_iterations = 0;    ///< async-kernel internal repeats

  /// Frontier gating (DESIGN.md §10): edge visits skipped because both
  /// endpoints were quiescent, and the number of propagation rounds in
  /// which at least one edge was skipped. Only a block's first pass of a
  /// round is gated; the pass-mark filter's skips in later passes are not
  /// counted. Hash-bag sparse rounds (§15) also count here — every edge
  /// they never had to gate-check is a skip. Zero for the solvers without
  /// a gate (FB-Trim, the sharded K > 1 engine, the serial baselines).
  std::uint64_t edges_skipped = 0;
  std::uint64_t frontier_rounds = 0;

  /// High-diameter paths (DESIGN.md §15). Chain chasing: single-successor
  /// chains collapsed into one worker's local walk (each collapse saves a
  /// whole propagation round for that chain), steps taken across all of
  /// them, and the longest single chase. Hash bag: Phase-2 rounds served
  /// from the sparse mover bag instead of a dense worklist sweep. All zero
  /// when the corresponding path never engaged.
  std::uint64_t chains_collapsed = 0;
  std::uint64_t chain_steps = 0;
  std::uint64_t max_chain_len = 0;
  std::uint64_t hashbag_rounds = 0;
  /// Edges dropped by worklist appends past capacity (EdgeWorklist::
  /// dropped_edges()): the real loss behind SccStatus::kWorklistOverflow.
  std::uint64_t edges_dropped = 0;

  /// True when the degree-skew pre-scan admitted the hub-clustering
  /// permutation and the solve actually ran on the reordered graph
  /// (DESIGN.md §11/§15). Lets callers and tests see which side of the
  /// gate a graph fell on.
  bool hub_reorder_applied = false;
  /// Outer iteration at which ECL-SCC switched its signatures from
  /// vertex-ID priorities to the seeded random order (DESIGN.md §16);
  /// 0 when the run never switched.
  std::uint64_t priority_switch_iteration = 0;

  /// Wall-clock split across Algorithm 1's phases (filled by ecl_scc; the
  /// paper's §3.3 identifies Phase 2 as the dominant, optimization-worthy
  /// cost). phase3_seconds includes component detection + edge removal.
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double phase3_seconds = 0.0;
  /// Wall-clock spent taking checkpoint snapshots (DESIGN.md §12, §14),
  /// kept out of the phase timers above.
  double checkpoint_seconds = 0.0;

  /// Resilience accounting: set when a watchdog trip / overflow / guard was
  /// recovered by completing the labeling with the serial fallback.
  bool serial_fallback = false;
  std::uint64_t fallback_vertices = 0;  ///< residual size handed to the fallback
  std::uint64_t watchdog_trips = 0;     ///< stalls detected by the watchdog

  /// Self-healing accounting (DESIGN.md §12, §14): checkpoints taken,
  /// watchdog/overflow trips recovered by resuming, and the Phase-2 sweeps
  /// a restore discarded (work re-done because it postdated the snapshot;
  /// only the fleet's restores discard any, the single-device solver
  /// resumes from the live signatures).
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t resumes = 0;
  std::uint64_t rounds_replayed = 0;
  /// Wall-clock from the FIRST fault detection (watchdog trip / overflow)
  /// to the end of the run — the recovery latency bench_chaos_recovery
  /// compares across the ladder's rungs. 0 when the run never tripped.
  double recovery_seconds = 0.0;
  /// Ladder accounting (core/registry.hpp run_resilient): full fresh
  /// reruns performed after the primary attempt's result was rejected.
  std::uint64_t fresh_reruns = 0;
  /// Online certification (core/verify.hpp certify_scc): set when the
  /// labels in this result passed the certificate check, plus the time the
  /// check took (the fault-free overhead bench_chaos_recovery bounds).
  bool certified = false;
  double certify_seconds = 0.0;

  /// Fleet accounting (DESIGN.md §13, src/fleet/): shard count the run was
  /// partitioned into (0 = not a sharded run), distinct boundary vertices
  /// whose signatures were exchanged between shards, and the number of
  /// cross-shard max-reduce exchange rounds performed before global
  /// quiescence (summed over outer iterations).
  std::uint64_t shards = 0;
  std::uint64_t boundary_vertices = 0;
  std::uint64_t exchange_rounds = 0;

  /// Fleet self-healing (DESIGN.md §14): device-ejection failover events
  /// survived by the sharded coordinator (each restores the last
  /// exchange-boundary checkpoint), shards re-homed onto surviving devices
  /// across those events, straggler flags raised by the per-shard sweep
  /// timer, and preemptive shard migrations those flags triggered.
  std::uint64_t failovers = 0;
  std::uint64_t shards_rehomed = 0;
  std::uint64_t stragglers_flagged = 0;
  std::uint64_t straggler_migrations = 0;
  /// Set when the pool had NO admitted device and the run was served on a
  /// quarantined one anyway — the same serving-somewhere-beats-nowhere
  /// last resort the router applies, made visible instead of implicit.
  bool pool_last_resort = false;
};

/// An SCC decomposition: labels[v] identifies v's component. Label values
/// are algorithm-specific (ECL-SCC: the max vertex ID in the component;
/// Tarjan: discovery index); use `same_partition` to compare decompositions.
struct SccResult {
  std::vector<vid> labels;
  vid num_components = 0;
  SccMetrics metrics;
  /// Non-ok when the run hit a detected failure. When the algorithm
  /// recovered via the serial fallback (metrics.serial_fallback), the
  /// labels are still a complete, verified-shape decomposition and the
  /// error records what was survived; without recovery the labels may be
  /// partial (unlabeled vertices hold graph::kInvalidVid).
  SccError error;

  bool ok() const noexcept { return error.code == SccStatus::kOk; }
};

/// True iff two labelings induce the same partition of [0, n).
bool same_partition(std::span<const vid> a, std::span<const vid> b);

/// Rewrites labels so every component is named by its smallest member
/// (a canonical form that is algorithm-independent).
void canonicalize_labels(std::span<vid> labels);

}  // namespace ecl::scc

#endif  // ECL_CORE_RESULT_HPP

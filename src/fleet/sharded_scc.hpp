#ifndef ECL_FLEET_SHARDED_SCC_HPP
#define ECL_FLEET_SHARDED_SCC_HPP

// ShardedScc: one giant graph's fixpoint spread across pool devices
// (DESIGN.md §13) — the capacity half of the fleet story.
//
// The CSR is partitioned into K contiguous vertex ranges balanced by EDGE
// count (the same merge-path cut math as device/edge_partition.hpp); shard
// k owns every edge whose source falls in its range and keeps a FULL-SIZE
// replica of the signature arrays. One coordinator drives the three phases
// in LOCKSTEP across shards:
//
//   Phase 1   every shard re-initializes unlabeled signatures in its
//             replica (identical values: self-IDs) —— join ——
//   Phase 2   repeat: every shard runs one propagation sweep over its own
//             edges on its own device —— join —— the coordinator max-reduces
//             the replicas' signatures at the BOUNDARY vertices (targets of
//             cross-shard edges) — until no shard moved locally AND the
//             exchange moved nothing (global quiescence)
//   Detect    every shard labels its OWNED vertices where vin == vout
//   Phase 3   every shard filters its own worklist
//
// Detection and Phase 3 are core/propagate.hpp's kernels, the solver's own,
// run over a shard's vertex range and worklist. K = 1 is one shard of the
// same engine: no exchange, and no straggler check (there is no peer).
//
// Correctness (the §13 argument in one paragraph): max-ID propagation is a
// monotone join fixpoint, so the exchange's max-reduce commutes with every
// in-kernel store and the shard order is irrelevant. Any maximizing path
// crosses shard boundaries only at boundary vertices, where the exchange
// forwards its value; at global quiescence every owner replica therefore
// holds the exact single-device fixpoint for the vertices it labels, and
// detection/edge-removal apply the same predicates to the same values —
// so the labels are BIT-IDENTICAL to a single-device run, per iteration,
// by induction. Lockstep matters: Phase 1's re-initialization is the one
// non-monotone step, so replicas are never merged across different outer
// iterations (a stale converged copy max-reduced into a freshly reset one
// would leak the previous iteration's signatures).
//
// The stitched result is served through the registry's recovery ladder
// (scc::run_resilient, core/registry.hpp): certified against ONE shared
// reverse adjacency (ShardedOptions::reverse_hint), then one fresh sharded
// rerun, then serial Tarjan named by largest member. A run that breaks on
// an error is completed by the same serial completion
// (scc::complete_with_tarjan) before it reaches the ladder.
//
// Self-healing (DESIGN.md §14): the exchange barrier doubles as a
// consistent global cut — every kernel has joined and the coordinator is
// the only thread touching the replicas — so the coordinator snapshots a
// fleet checkpoint there (labels + the element-wise MAX of the replicas'
// signatures + per-shard worklists; the max-merge is sound because every
// replica value is a monotone lower bound of the iteration's fixpoint).
// When a device faults mid-run (sweep-budget trip blamed on the shards
// still reporting movement, or a health-registry ejection observed at an
// iteration boundary), the coordinator ejects the device, records the
// fault in the pool's health registry, re-homes the orphaned shards onto
// surviving devices via the router's least-loaded policy, restores the
// last checkpoint, and continues under the SAME absolute deadline — up to
// max_failovers times and only while a device survives; past either bound
// the error escalates to the certification ladder above. A per-shard
// sweep timer additionally flags stragglers (sweeps beyond a
// median-multiple budget), feeds them to the health registry, and can
// migrate the shard preemptively — gracefully, with no checkpoint restore,
// since a slow device's state is intact where a faulted one's is lost.

#include "core/ecl_scc.hpp"
#include "core/result.hpp"
#include "fleet/device_pool.hpp"
#include "graph/digraph.hpp"

namespace ecl::fleet {

using scc::Digraph;
using scc::SccResult;

struct ShardedOptions {
  /// Shard count K (0 counts as 1). Shards are assigned to the pool's
  /// admitted devices round-robin, so K may exceed the pool size (shards on
  /// one device run sequentially within each lockstep step).
  unsigned shards = 2;
  /// Kernel options for the per-shard phases: the watchdog and its
  /// deadline, the iteration guard, the four paper optimizations and
  /// chain_cap. The engine never reads `checkpoint` or `stall_policy` (the
  /// coordinator checkpoints, and a broken run is always completed
  /// serially), nor the density thresholds (no hash bag; shards chase
  /// whenever their chain index has links).
  scc::EclOptions ecl;
  /// Serve through the registry's recovery ladder (certify, one fresh
  /// rerun, serial Tarjan). Off returns the single attempt as it ends.
  bool certify = true;
  /// Reverse of the input graph, if the caller already holds it (the
  /// service's per-epoch cache). Null = built once by the ladder and shared
  /// by every certification in it — never rebuilt per shard or per rung.
  const Digraph* reverse_hint = nullptr;
  /// Fleet checkpoints at Phase-1 joins and exchange barriers (DESIGN.md
  /// §14). Off takes none, so a failover has nothing to restore and a trip
  /// escalates to the ladder.
  bool checkpoint = true;
  /// Snapshot cadence in moving boundary EXCHANGES (one per lockstep sweep
  /// round). A checkpoint is also taken at every outer-iteration Phase-1
  /// join, so replay never crosses an outer iteration. Smaller = less work
  /// replayed on a failover, more snapshot copies on the happy path.
  std::uint64_t checkpoint_exchanges = 32;
  /// Live-failover bound: at most this many device-ejection events are
  /// survived per run, each only while an un-ejected device is left. Past
  /// it the error escalates to the fresh-rerun / serial-Tarjan ladder.
  unsigned max_failovers = 2;
  /// Straggler escalation: a shard whose sweep takes longer than
  /// median_multiple x the (lower-)median shard sweep time AND longer than
  /// min_seconds is flagged; `patience` consecutive flags record a
  /// kStraggler fault against its device and migrate the shard to the
  /// least-loaded surviving peer. min_seconds keeps launch-overhead noise
  /// on tiny graphs from flagging anything by default.
  struct StragglerPolicy {
    bool enabled = true;
    double median_multiple = 4.0;
    double min_seconds = 1e-3;
    unsigned patience = 2;
  } straggler;
};

/// Runs the sharded fixpoint over the pool's devices. Always returns a
/// complete labeling (max-member IDs, bit-identical to single-device
/// ecl_scc); `error` carries what was survived when a ladder rung or the
/// watchdog tripped, and an exception thrown by an attempt becomes
/// SccStatus::kException, which the ladder reruns (with `certify` off it
/// propagates). SccMetrics::shards / boundary_vertices / exchange_rounds
/// report the fleet accounting. An attempt that converged without error
/// (and certified, with `certify` on) records a success in the pool's
/// health registry for every device that held a shard. Admission spends no
/// probation probe.
SccResult sharded_scc(const Digraph& g, DevicePool& pool, const ShardedOptions& opts = {});

/// The edge-balanced contiguous vertex cuts used to partition `g` into K
/// shards: returns K+1 offsets (cuts[0] = 0, cuts[K] = n). Exposed for the
/// differential tests and the service's shard planner.
std::vector<graph::vid> shard_cuts(const Digraph& g, unsigned shards);

}  // namespace ecl::fleet

#endif  // ECL_FLEET_SHARDED_SCC_HPP

#include "fleet/sharded_scc.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/propagate.hpp"
#include "core/registry.hpp"
#include "core/tarjan.hpp"
#include "core/watchdog.hpp"
#include "device/atomics.hpp"
#include "device/signature_store.hpp"
#include "device/worklist.hpp"
#include "fleet/graph_router.hpp"
#include "graph/condensation.hpp"
#include "support/timer.hpp"

namespace ecl::fleet {
namespace {

using device::BlockContext;
using device::EdgeWorklist;
using device::SignatureStore;
using graph::eid;
using graph::vid;
using scc::EclOptions;
using scc::SccError;
using scc::SccStatus;
using Timer = ecl::Timer;

/// One shard's private state: its owned vertex range, its worklist of owned
/// edges (src in range), and a FULL-SIZE replica of the signature arrays —
/// propagation reads and writes foreign vertices (targets, path-compression
/// lifts) in the shard's own replica; only the boundary exchange moves
/// values between replicas.
struct Shard {
  vid begin = 0;
  vid end = 0;
  std::size_t device = 0;  ///< pool device index
  std::unique_ptr<EdgeWorklist> worklist;
  std::unique_ptr<SignatureStore> sigs;
  /// Degree-one chain index over THIS shard's worklist (DESIGN.md §15).
  /// Foreign vertices have no owned out-edge, so their succ slot is kNone
  /// and a chase stops at the shard boundary — the boundary exchange, not
  /// the chaser, moves values across shards. Rebuilt lazily (chain_dirty)
  /// whenever the worklist changes: initially, after Phase-3 compaction,
  /// and after a checkpoint restore.
  scc::detail::ChainIndex chain;
  bool chain_dirty = true;
  std::atomic<std::uint32_t> changed{0};
  std::atomic<std::uint64_t> edges_processed{0};
  std::atomic<std::uint64_t> block_iterations{0};
  std::atomic<std::uint64_t> chains_collapsed{0};
  std::atomic<std::uint64_t> chain_steps{0};
  std::atomic<std::uint64_t> max_chain_len{0};
  /// Wall-clock of this shard's last sweep launch, written by its device's
  /// group thread and read by the coordinator strictly after the lockstep
  /// join (straggler detection).
  double sweep_seconds = 0.0;
  unsigned straggler_streak = 0;  ///< consecutive over-budget sweeps
};

/// A coordinator-held snapshot at a consistent global cut (exchange barrier
/// or Phase-1 join: every kernel joined, coordinator sole owner of the
/// replicas). Signatures are the element-wise MAX across replicas — sound
/// because every replica value is a monotone lower bound of the current
/// outer iteration's fixpoint, and restoring all replicas to the merged
/// state keeps propagation inside [init, fixpoint], converging to the same
/// labels. Worklists travel per shard (Phase 3 mutates them, and the
/// snapshot must restore the pre-trip filter state).
struct FleetCheckpoint {
  bool valid = false;
  std::vector<vid> labels;
  std::vector<std::uint32_t> vin, vout;
  std::vector<std::vector<graph::Edge>> worklists;
  std::uint64_t labeled = 0;
  std::uint64_t edges_removed = 0;
};

/// One full lockstep sharded run (no certification — the ladder wraps it).
/// `holders` receives the devices that hold a shard when the run ends.
SccResult run_sharded_once(const Digraph& g, DevicePool& pool, const ShardedOptions& opts,
                           std::vector<std::size_t>& holders) {
  const vid n = g.num_vertices();
  const unsigned num_shards = std::max(1u, opts.shards);
  const EclOptions& eo = opts.ecl;
  SccResult result;
  result.metrics.shards = num_shards;
  if (n == 0) return result;

  // Devices admitted by the pool's health registry; a fully-quarantined
  // pool still serves (somewhere beats nowhere — the service chain's rule),
  // with the last-resort decision flagged rather than implicit. The scan
  // spends no probation probe: a served attempt records a success for the
  // devices that hold a shard at its end (sharded_scc).
  std::vector<std::size_t> admitted;
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (pool.admits(i)) admitted.push_back(i);
  if (admitted.empty()) {
    result.metrics.pool_last_resort = true;
    for (std::size_t i = 0; i < pool.size(); ++i) admitted.push_back(i);
  }
  // When the registry's verdict was overridden above, the mid-run ejection
  // poll must stand down too — ejecting the devices we just decided to
  // serve on anyway would fail every run before its first sweep.
  const bool last_resort = result.metrics.pool_last_resort;

  const std::vector<vid> cuts = shard_cuts(g, num_shards);
  const std::span<const eid> offsets = g.offsets();
  const std::span<const vid> targets = g.targets();

  std::vector<Shard> shards(num_shards);
  for (unsigned k = 0; k < num_shards; ++k) {
    Shard& sh = shards[k];
    sh.begin = cuts[k];
    sh.end = cuts[k + 1];
    sh.device = admitted[k % admitted.size()];
    std::vector<graph::Edge> owned;
    owned.reserve(static_cast<std::size_t>(offsets[sh.end] - offsets[sh.begin]));
    for (vid u = sh.begin; u < sh.end; ++u)
      for (eid j = offsets[u]; j < offsets[u + 1]; ++j) owned.push_back({u, targets[j]});
    sh.worklist = std::make_unique<EdgeWorklist>(std::span<const graph::Edge>(owned));
    sh.sigs = std::make_unique<SignatureStore>(n);
  }

  // Boundary set: targets of cross-shard edges — the only vertices whose
  // values must move between replicas (see the header's correctness note).
  std::vector<vid> boundary;
  {
    std::vector<std::uint8_t> is_boundary(n, 0);
    for (const Shard& sh : shards)
      for (vid u = sh.begin; u < sh.end; ++u)
        for (eid j = offsets[u]; j < offsets[u + 1]; ++j) {
          const vid v = targets[j];
          if (v < sh.begin || v >= sh.end) is_boundary[v] = 1;
        }
    for (vid v = 0; v < n; ++v)
      if (is_boundary[v]) boundary.push_back(v);
  }
  result.metrics.boundary_vertices = boundary.size();

  std::vector<vid> labels(n, graph::kInvalidVid);
  std::atomic<std::uint64_t> labeled{0};
  std::atomic<std::uint64_t> edges_removed{0};

  // The coordinator routes re-homed shards through the same least-loaded
  // policy whole-graph traffic uses; the initial round-robin layout is
  // adopted into the router so its load accounting is true from the start.
  GraphRouter router(pool);
  std::vector<GraphRouter::Lease> leases(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s)
    leases[s] = router.adopt(shards[s].device,
                             std::max<std::uint64_t>(1, shards[s].worklist->size()));

  // Shards grouped by device: a device is not re-entrant, so its shards run
  // sequentially inside each lockstep step, on one host thread per device.
  // Rebuilt whenever failover or straggler migration moves a shard.
  std::vector<std::vector<std::size_t>> groups;
  const auto rebuild_groups = [&] {
    groups.clear();
    std::vector<std::size_t> slot(pool.size(), static_cast<std::size_t>(-1));
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (slot[shards[s].device] == static_cast<std::size_t>(-1)) {
        slot[shards[s].device] = groups.size();
        groups.emplace_back();
      }
      groups[slot[shards[s].device]].push_back(s);
    }
  };
  rebuild_groups();

  // Runs fn(shard) for every shard, devices in parallel. The join is the
  // lockstep barrier: every cross-replica read below happens strictly
  // after it, so the coordinator's exchange needs no further locking.
  const auto par = [&](auto&& fn) {
    if (groups.size() == 1) {
      for (std::size_t s : groups[0]) fn(shards[s]);
      return;
    }
    std::vector<std::thread> threads;
    threads.reserve(groups.size());
    for (const auto& group : groups)
      threads.emplace_back([&fn, &shards, &group] {
        for (std::size_t s : group) fn(shards[s]);
      });
    for (auto& t : threads) t.join();
  };

  const auto fault_of = [&](const Shard& sh) -> device::FaultInjector* {
    device::Device& dev = pool.at(sh.device);
    if (dev.fault_active() &&
        (dev.fault().plan().delayed_visibility || dev.fault().plan().lost_update))
      return &dev.fault();
    return nullptr;
  };

  // Re-emplaced on checkpoint restore: fresh stall counters, same absolute
  // deadline (eo.watchdog.deadline is a wall-clock time point).
  std::optional<scc::FixpointWatchdog> watchdog;
  watchdog.emplace(eo.watchdog, n);
  const std::uint64_t guard =
      eo.max_outer_iterations ? eo.max_outer_iterations : static_cast<std::uint64_t>(n) + 2;
  const std::uint64_t sweep_budget = watchdog->phase2_round_budget();

  std::vector<std::uint64_t> launches_before(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    launches_before[i] = pool.at(i).stats().kernel_launches;

  // Every shard re-initializes ALL unlabeled vertices of its replica (it
  // reads foreign signatures through its own copy), to the same self-ID
  // values — so replicas enter each iteration's Phase 2 identical.
  const auto phase1 = [&](Shard& sh) {
    device::Device& dev = pool.at(sh.device);
    dev.launch(
        scc::detail::grid_size(dev, n, eo.persistent_threads),
        [&](const BlockContext& ctx) {
          ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t v = lo; v < hi; ++v) {
              if (labels[v] == graph::kInvalidVid) {
                sh.sigs->vin(v).store(static_cast<std::uint32_t>(v), std::memory_order_relaxed);
                sh.sigs->vout(v).store(static_cast<std::uint32_t>(v), std::memory_order_relaxed);
              }
            }
          });
        },
        {.idempotent = true});
  };

  // One propagation sweep over the shard's own edges (async mode re-iterates
  // blocks to a local fixed point, exactly like the single-device kernel).
  // It passes round 0, so no frontier epoch is stamped (an exchange-raised
  // value would have to re-stamp foreign epochs), and feeds no hash bag (a
  // shard's bag cannot see exchange-raised boundary values). Chases stay in
  // the shard: its chain index covers only its owned edges, so the boundary
  // exchange remains the sole cross-shard channel.
  const auto sweep = [&](Shard& sh) {
    const auto edges = sh.worklist->edges();
    const std::uint64_t m = edges.size();
    sh.changed.store(0, std::memory_order_relaxed);
    sh.sweep_seconds = 0.0;
    if (m == 0) return;
    const Timer sweep_timer;
    device::Device& dev = pool.at(sh.device);
    device::FaultInjector* fault = fault_of(sh);
    // Chain index over the shard's own worklist (callers of sweep are
    // barrier-separated from the points that set chain_dirty, so the lazy
    // rebuild is race-free even when shards sweep concurrently).
    if (sh.chain_dirty) {
      sh.chain.build(n, edges);
      sh.chain_dirty = false;
    }
    const bool chasing = sh.chain.useful();
    dev.launch(
        scc::detail::grid_size(dev, m, eo.persistent_threads),
        [&](const BlockContext& ctx) {
          const scc::detail::SigView view{*sh.sigs, fault};
          std::uint64_t local_processed = 0;
          std::uint64_t local_assigned = 0;
          std::uint64_t local_iters = 0;
          std::uint64_t local_chains = 0;
          std::uint64_t local_steps = 0;
          std::uint64_t local_longest = 0;
          bool local_changed;
          do {
            local_changed = false;
            ++local_iters;
            scc::detail::for_each_owned(ctx, m, [&](std::uint64_t lo, std::uint64_t hi) {
              if (local_iters == 1) local_assigned += hi - lo;
              for (std::uint64_t i = lo; i < hi; ++i) {
                ++local_processed;
                const bool moved = scc::detail::propagate_edge(view, edges[i], eo, 0);
                if (moved && chasing) {
                  const scc::detail::ChaseResult cr =
                      scc::detail::chase_chain(view, sh.chain, edges[i], eo, 0);
                  if (cr.moved != 0) {
                    ++local_chains;
                    local_steps += cr.moved;
                    local_longest = std::max<std::uint64_t>(local_longest, cr.moved);
                  }
                  local_processed += cr.steps;
                }
                local_changed |= moved;
              }
            });
          } while (eo.async_phase2 && local_changed && local_iters < sweep_budget &&
                   !watchdog->expired());
          if (local_changed || (eo.async_phase2 && local_iters > 1))
            sh.changed.store(1, std::memory_order_relaxed);
          sh.block_iterations.fetch_add(local_iters, std::memory_order_relaxed);
          sh.edges_processed.fetch_add(local_processed, std::memory_order_relaxed);
          if (local_chains != 0) {
            sh.chains_collapsed.fetch_add(local_chains, std::memory_order_relaxed);
            sh.chain_steps.fetch_add(local_steps, std::memory_order_relaxed);
            device::atomic_fetch_max_u64(sh.max_chain_len, local_longest);
          }
          dev.record_block_work(ctx.block_id, local_assigned);
        },
        {.idempotent = true});
    sh.sweep_seconds = sweep_timer.seconds();
  };

  // Cross-shard boundary exchange: a symmetric max-reduce over every
  // replica's copy of each (still unlabeled) boundary vertex. Runs on the
  // coordinator between sweep joins, so it is race-free by construction;
  // max-ID propagation is monotone, so the merge commutes with the
  // in-kernel stores and the shard/merge order is irrelevant.
  const auto exchange = [&]() -> bool {
    bool any = false;
    for (const vid v : boundary) {
      if (labels[v] != graph::kInvalidVid) continue;
      std::uint32_t best_in = 0;
      std::uint32_t best_out = 0;
      for (const Shard& sh : shards) {
        best_in = std::max(best_in, sh.sigs->vin(v).load(std::memory_order_relaxed));
        best_out = std::max(best_out, sh.sigs->vout(v).load(std::memory_order_relaxed));
      }
      for (const Shard& sh : shards) {
        if (sh.sigs->vin(v).load(std::memory_order_relaxed) < best_in) {
          sh.sigs->vin(v).store(best_in, std::memory_order_relaxed);
          any = true;
        }
        if (sh.sigs->vout(v).load(std::memory_order_relaxed) < best_out) {
          sh.sigs->vout(v).store(best_out, std::memory_order_relaxed);
          any = true;
        }
      }
    }
    return any;
  };

  // Detection over OWNED vertices only: at global quiescence the owner
  // replica holds the true fixpoint for its range, and owned ranges are
  // disjoint so the shared label array is written race-free.
  const auto detect = [&](Shard& sh) {
    labeled.fetch_add(scc::detail::detect_components(pool.at(sh.device), eo, *sh.sigs, nullptr,
                                                     sh.begin, sh.end, labels),
                      std::memory_order_relaxed);
  };

  // Phase 3 on the shard's own worklist. Cross-shard targets are boundary
  // vertices, so the shard's replica holds fixpoint-correct signatures for
  // BOTH endpoints of every owned edge — the drop predicate is evaluated on
  // exactly the values a single-device run would use.
  const auto phase3 = [&](Shard& sh) {
    edges_removed.fetch_add(
        scc::detail::phase3_remove_edges(pool.at(sh.device), eo, *sh.sigs, labels, *sh.worklist),
        std::memory_order_relaxed);
    sh.chain_dirty = true;  // worklist changed: next sweep rebuilds the chains
  };

  // ---- Self-healing machinery (DESIGN.md §14) ------------------------------

  FleetCheckpoint ckpt;
  std::uint64_t rounds_since_ckpt = 0;  ///< sweeps discarded if restored now
  std::vector<char> ejected(pool.size(), 0);
  std::optional<Timer> recovery_timer;  ///< armed at the FIRST fault detection

  const auto take_checkpoint = [&] {
    if (!opts.checkpoint) return;
    const Timer timer;
    ckpt.labels = labels;
    ckpt.labeled = labeled.load(std::memory_order_relaxed);
    ckpt.edges_removed = edges_removed.load(std::memory_order_relaxed);
    ckpt.vin.assign(n, 0);
    ckpt.vout.assign(n, 0);
    for (const Shard& sh : shards)
      for (vid v = 0; v < n; ++v) {
        ckpt.vin[v] = std::max(ckpt.vin[v], sh.sigs->vin(v).load(std::memory_order_relaxed));
        ckpt.vout[v] = std::max(ckpt.vout[v], sh.sigs->vout(v).load(std::memory_order_relaxed));
      }
    ckpt.worklists.resize(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const auto edges = shards[s].worklist->edges();
      ckpt.worklists[s].assign(edges.begin(), edges.end());
    }
    ckpt.valid = true;
    rounds_since_ckpt = 0;
    ++result.metrics.checkpoints_taken;
    result.metrics.checkpoint_seconds += timer.seconds();
  };

  const auto restore_checkpoint = [&] {
    labels = ckpt.labels;
    labeled.store(ckpt.labeled, std::memory_order_relaxed);
    edges_removed.store(ckpt.edges_removed, std::memory_order_relaxed);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      Shard& sh = shards[s];
      for (vid v = 0; v < n; ++v) {
        sh.sigs->vin(v).store(ckpt.vin[v], std::memory_order_relaxed);
        sh.sigs->vout(v).store(ckpt.vout[v], std::memory_order_relaxed);
      }
      sh.worklist->reset(std::span<const graph::Edge>(ckpt.worklists[s]));
      sh.chain_dirty = true;  // restored worklist: chains must be rebuilt
      sh.changed.store(0, std::memory_order_relaxed);
      sh.straggler_streak = 0;
    }
    result.metrics.rounds_replayed += rounds_since_ckpt;
    rounds_since_ckpt = 0;
    // Fresh stall counters, SAME absolute deadline (it travels inside
    // eo.watchdog.deadline): re-emplacement is how atomics get reset.
    watchdog.emplace(eo.watchdog, n);
  };

  const auto survivor_count = [&] {
    std::size_t alive = 0;
    for (std::size_t d = 0; d < pool.size(); ++d) alive += ejected[d] ? 0 : 1;
    return alive;
  };

  // Re-homes every shard on an ejected device via the router's least-loaded
  // policy; false when no non-ejected device is left to place on.
  const auto rehome_orphans = [&]() -> bool {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      Shard& sh = shards[s];
      if (!ejected[sh.device]) continue;
      leases[s].release();
      GraphRouter::Lease next =
          router.place_excluding(std::max<std::uint64_t>(1, sh.worklist->size()), ejected);
      if (!next.valid()) return false;
      sh.device = next.device_index();
      leases[s] = std::move(next);
      ++result.metrics.shards_rehomed;
    }
    rebuild_groups();
    return true;
  };

  // Sweep-budget trip: blame the devices of the shards still reporting
  // movement in the last completed sweep (under a stuck-store fault the
  // faulty shard keeps reporting `changed` while its healthy peers quiesce,
  // so the flags isolate the culprit), record the stall against them, and —
  // within the failover bounds — re-home their shards, restore the last
  // exchange-boundary checkpoint, and continue. False = escalate.
  const auto try_failover = [&]() -> bool {
    std::vector<std::size_t> blamed;
    for (const Shard& sh : shards)
      if (sh.changed.load(std::memory_order_relaxed) != 0 && !ejected[sh.device])
        blamed.push_back(sh.device);
    if (blamed.empty()) return false;
    if (!recovery_timer) recovery_timer.emplace();
    for (const std::size_t d : blamed) {
      if (ejected[d]) continue;  // blamed twice within one trip (two shards)
      ejected[d] = 1;
      pool.record(d, service::FaultKind::kStall);
    }
    if (!ckpt.valid || survivor_count() == 0 || result.metrics.failovers >= opts.max_failovers)
      return false;
    ++result.metrics.failovers;
    if (!rehome_orphans()) return false;
    restore_checkpoint();
    return true;
  };

  // Iteration-boundary poll: a device quarantined mid-run (straggler
  // records, concurrent recorders) is ejected here; one in probation keeps
  // its shard, whose outcome decides its readmission. Its replica is deemed
  // lost with it, so after re-homing the last checkpoint is restored — the
  // boundary state itself is quiescent, but work done by a now-distrusted
  // device since the snapshot is not worth standing on. Returns 0 = nothing
  // happened, 1 = restored (skip Phase 1), -1 = escalate.
  const auto poll_ejections = [&]() -> int {
    if (last_resort) return 0;  // the registry's verdict is already overridden
    bool any = false;
    for (const Shard& sh : shards) {
      if (ejected[sh.device]) continue;
      if (pool.health().health(sh.device) == service::BackendHealth::kQuarantined) {
        ejected[sh.device] = 1;
        any = true;
      }
    }
    if (!any) return 0;
    if (!recovery_timer) recovery_timer.emplace();
    if (survivor_count() == 0 || result.metrics.failovers >= opts.max_failovers) return -1;
    ++result.metrics.failovers;
    if (!rehome_orphans()) return -1;
    if (!ckpt.valid) return 0;  // nothing snapshotted yet: Phase 1 runs fresh
    restore_checkpoint();
    return 1;
  };

  // Straggler detection after each sweep join: a shard slower than the
  // median-multiple budget (and the absolute noise floor) earns a flag;
  // `patience` consecutive flags record a kStraggler fault and migrate the
  // shard to the least-loaded surviving peer. Migration is graceful — the
  // device is slow, not faulted, so its replica state is intact and no
  // checkpoint restore is needed. The lower median keeps K = 2 sane (the
  // upper median would be the straggler's own time).
  const auto check_stragglers = [&] {
    if (!opts.straggler.enabled || shards.size() < 2) return;
    std::vector<double> sorted;
    sorted.reserve(shards.size());
    for (const Shard& sh : shards) sorted.push_back(sh.sweep_seconds);
    const std::size_t mid = (sorted.size() - 1) / 2;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                     sorted.end());
    const double median = sorted[mid];
    for (std::size_t s = 0; s < shards.size(); ++s) {
      Shard& sh = shards[s];
      const bool slow = sh.sweep_seconds > opts.straggler.min_seconds &&
                        sh.sweep_seconds > opts.straggler.median_multiple * median;
      if (!slow) {
        sh.straggler_streak = 0;
        continue;
      }
      ++sh.straggler_streak;
      ++result.metrics.stragglers_flagged;
      if (sh.straggler_streak < opts.straggler.patience) continue;
      sh.straggler_streak = 0;
      pool.record(sh.device, service::FaultKind::kStraggler);
      std::vector<char> avoid = ejected;
      avoid[sh.device] = 1;
      GraphRouter::Lease next =
          router.place_excluding(std::max<std::uint64_t>(1, sh.worklist->size()), avoid);
      if (!next.valid()) continue;  // nowhere to go: keep limping
      leases[s].release();
      sh.device = next.device_index();
      leases[s] = std::move(next);
      ++result.metrics.straggler_migrations;
      rebuild_groups();
    }
  };

  // ---- The lockstep outer loop -------------------------------------------
  bool skip_phase1 = false;  // set by a failover restore: straight to Phase 2
  while (labeled.load(std::memory_order_relaxed) < n) {
    if (++result.metrics.outer_iterations > guard) {
      result.error = {SccStatus::kIterationGuard,
                      "sharded_scc: outer loop exceeded iteration guard"};
      break;
    }
    if (watchdog->deadline_expired()) {
      watchdog->mark_stalled();
      ++result.metrics.watchdog_trips;
      result.error = {SccStatus::kDeadlineExceeded,
                      "sharded_scc: request deadline expired between iterations"};
      break;
    }

    bool run_phase1 = !skip_phase1;
    skip_phase1 = false;
    if (run_phase1) {
      const int polled = poll_ejections();
      if (polled < 0) {
        result.error = {SccStatus::kStalled,
                        "sharded_scc: device ejection exhausted the failover budget (" +
                            std::to_string(result.metrics.failovers) + " survived)"};
        break;
      }
      if (polled == 1) run_phase1 = false;  // restored at a post-Phase-1 cut
    }

    Timer phase_timer;
    if (run_phase1) {
      par(phase1);
      result.metrics.phase1_seconds += phase_timer.seconds();
      // Every checkpoint is taken at a post-Phase-1 cut of SOME iteration,
      // so replay never crosses the one non-monotone step (the re-init).
      take_checkpoint();
    }

    phase_timer.reset();
    const double checkpoint_before = result.metrics.checkpoint_seconds;
    bool converged = true;
    bool deadline = false;
    std::uint64_t rounds = 0;
    for (;;) {
      if (++rounds > sweep_budget || watchdog->expired()) {
        converged = false;
        deadline = watchdog->deadline_expired();
        break;
      }
      par(sweep);
      ++result.metrics.propagation_rounds;
      ++rounds_since_ckpt;
      check_stragglers();
      bool moved = false;
      for (const Shard& sh : shards) moved |= sh.changed.load(std::memory_order_relaxed) != 0;
      if (shards.size() > 1) {
        // Global quiescence needs BOTH silences: no shard moved locally and
        // the boundary exchange moved nothing. An exchange that raises any
        // copy forces another sweep everywhere — a stale boundary read is
        // monotone-sound, but only another sweep propagates the fresh value.
        moved |= exchange();
        ++result.metrics.exchange_rounds;
        // The exchange barrier is the coordinated checkpoint cut: all
        // kernels joined, replicas owned by this thread alone.
        if (moved && opts.checkpoint &&
            rounds_since_ckpt >= std::max<std::uint64_t>(1, opts.checkpoint_exchanges))
          take_checkpoint();
      }
      if (!moved) break;
    }
    // Exchange-barrier snapshots are timed on their own, not as Phase 2.
    result.metrics.phase2_seconds +=
        phase_timer.seconds() - (result.metrics.checkpoint_seconds - checkpoint_before);
    if (!converged) {
      watchdog->mark_stalled();
      ++result.metrics.watchdog_trips;
      if (!deadline && try_failover()) {
        skip_phase1 = true;  // the restored cut is post-Phase-1
        continue;
      }
      result.error =
          deadline ? SccError{SccStatus::kDeadlineExceeded,
                              "sharded_scc: request deadline expired mid-fixpoint"}
                   : SccError{SccStatus::kStalled,
                              "sharded_scc: lockstep phase-2 exceeded its sweep budget"};
      break;
    }

    phase_timer.reset();
    par(detect);
    par(phase3);
    result.metrics.phase3_seconds += phase_timer.seconds();

    bool overflowed = false;
    std::uint64_t worklist_total = 0;
    for (Shard& sh : shards) {
      overflowed = overflowed || sh.worklist->overflowed();
      worklist_total += sh.worklist->size();
    }
    if (overflowed) {
      std::uint64_t dropped = 0;
      for (Shard& sh : shards) dropped += sh.worklist->dropped_edges();
      result.metrics.edges_dropped += dropped;
      result.error = {SccStatus::kWorklistOverflow,
                      "sharded_scc: a shard worklist overflowed during phase 3 (" +
                          std::to_string(dropped) + " edges dropped)"};
      break;
    }
    if (watchdog->observe_iteration(labeled.load(std::memory_order_relaxed), worklist_total)) {
      ++result.metrics.watchdog_trips;
      result.error = {SccStatus::kStalled,
                      "sharded_scc: no new labels and no worklist shrinkage for " +
                          std::to_string(eo.watchdog.stall_rounds) + " iterations"};
      break;
    }
  }
  // Recovery latency: first fault detection -> end of this run (the ladder
  // adds its own rungs' time on top when the run still escalates).
  if (recovery_timer) result.metrics.recovery_seconds = recovery_timer->seconds();

  for (Shard& sh : shards) {
    result.metrics.edges_processed += sh.edges_processed.load(std::memory_order_relaxed);
    const std::uint64_t iters = sh.block_iterations.load(std::memory_order_relaxed);
    result.metrics.block_iterations += iters;
    pool.at(sh.device).stats().block_iterations += iters;
    const std::uint64_t sh_chains = sh.chains_collapsed.load(std::memory_order_relaxed);
    result.metrics.chains_collapsed += sh_chains;
    result.metrics.chain_steps += sh.chain_steps.load(std::memory_order_relaxed);
    result.metrics.max_chain_len = std::max(
        result.metrics.max_chain_len, sh.max_chain_len.load(std::memory_order_relaxed));
    pool.at(sh.device).stats().chains_collapsed += sh_chains;
  }
  result.metrics.edges_removed = edges_removed.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < pool.size(); ++i)
    result.metrics.kernel_launches += pool.at(i).stats().kernel_launches - launches_before[i];

  for (const Shard& sh : shards)
    if (std::find(holders.begin(), holders.end(), sh.device) == holders.end())
      holders.push_back(sh.device);

  result.labels = std::move(labels);
  // The fleet contract is always-complete labels (the labeled set at any
  // break is a union of complete SCCs, so the residual solves independently).
  if (result.error) {
    scc::complete_with_tarjan(g, result);
  } else {
    std::vector<vid> dense(result.labels.begin(), result.labels.end());
    result.num_components = graph::normalize_labels(dense);
  }
  return result;
}

}  // namespace

std::vector<vid> shard_cuts(const Digraph& g, unsigned shards) {
  const vid n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  const unsigned count = std::max(1u, shards);
  std::vector<vid> cuts(count + 1, n);
  cuts[0] = 0;
  const std::span<const eid> offsets = g.offsets();
  for (unsigned k = 1; k < count; ++k) {
    if (m == 0) {
      // No edges to balance: fall back to equal vertex ranges.
      cuts[k] = static_cast<vid>(static_cast<std::uint64_t>(n) * k / count);
    } else {
      // The vertex owning the k-th equal-edge cut (merge-path math from
      // device/edge_partition.hpp). owner_of is monotone in the edge index,
      // so the cuts are non-decreasing.
      const device::EdgeSpan span = device::equal_edge_span(k, count, m);
      cuts[k] = static_cast<vid>(std::min<std::size_t>(device::owner_of(offsets, span.begin), n));
    }
  }
  for (unsigned k = 1; k <= count; ++k) cuts[k] = std::max(cuts[k], cuts[k - 1]);
  return cuts;
}

SccResult sharded_scc(const Digraph& g, DevicePool& pool, const ShardedOptions& opts) {
  // Devices that held a shard at the end of the latest attempt.
  std::vector<std::size_t> holders;
  const auto attempt = [&](const Digraph& graph) {
    holders.clear();
    return run_sharded_once(graph, pool, opts, holders);
  };
  SccResult result = opts.certify ? scc::run_resilient(attempt, g, opts.reverse_hint) : attempt(g);
  // A served attempt's success readmits a device in probation and dilutes
  // straggler records in each holder's window. A failed one records
  // nothing: a lockstep failure names no single device (failover and
  // straggler migration record their own blame), and admission spent no
  // probe, so a device in probation is admitted again by the rerun.
  if (result.ok())
    for (const std::size_t d : holders) pool.record(d, service::FaultKind::kNone);
  return result;
}

}  // namespace ecl::fleet

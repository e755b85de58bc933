#include "core/ecl_scc.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "core/propagate.hpp"
#include "core/tarjan.hpp"
#include "device/atomics.hpp"
#include "device/edge_partition.hpp"
#include "device/signature_store.hpp"
#include "device/worklist.hpp"
#include "graph/condensation.hpp"
#include "graph/degree_stats.hpp"
#include "graph/permute.hpp"
#include "support/timer.hpp"

namespace ecl::scc {
namespace {

using device::BlockContext;
using device::EdgeWorklist;
using device::SignatureStore;

// --- Priority switch (DESIGN.md §16) -----------------------------------------
//
// Any injective priority reaches the same partition; vertex IDs are only the
// paper's choice. They follow the input's element order, which suits shallow
// sweeps and starves some deep ones: on mobius-strip ordinate 2 the last
// ~7,800 of 83,538 vertices took iterations 4-101 at ~80 labels each. So a
// run starts in vertex-ID order and switches once, at an outer-iteration
// boundary, to a fixed-seed random order when an iteration stops making
// progress. Measured at ECL_SCALE=0.02 on all 10 power-law stand-ins and all
// 42 large-mesh ordinates: every iteration from 2 on labels at least 14.3%
// of the vertices unlabelled at its start, except on mobius-strip ordinates
// 2 and 3, whose iterations 4-12 label 1.2-2.4% each. 1/16 (6.25%) splits
// that gap. Iteration 1 is never judged: on meshes it labels at most 0.42%
// of the vertices yet removes 41-80% of the worklist, so counting it would
// switch every mesh (and an unconditional switch after two iterations took
// torch-hex ordinate 1 from 4 to 11 iterations).
constexpr std::uint64_t kSwitchFromIteration = 3;  ///< first iteration that may switch
constexpr std::uint64_t kSwitchProgressShare = 16;  ///< switch below 1/16 labelled
constexpr std::uint64_t kPrioritySeed = 0x5eed'0f'9a11;

/// True when the run should switch before its next iteration: `finished`
/// iterations have completed, and the last of them, which began with
/// `unlabeled` vertices left, labelled only `gained` of them.
bool priority_switch_due(std::uint64_t finished, std::uint64_t gained, std::uint64_t unlabeled) {
  return finished + 1 >= kSwitchFromIteration && gained * kSwitchProgressShare < unlabeled;
}

/// Per-run state shared by the kernels.
struct EclState {
  /// `given_reverse`, when non-null, is g's reverse; build_links adopts it.
  EclState(const Digraph& g, const Digraph* given_reverse)
      : csr(g),
        n(g.num_vertices()),
        sigs(n),
        labels(n, graph::kInvalidVid),
        worklist(g),
        key(n),
        reverse(given_reverse) {}

  /// The solve graph. Sparse rounds and chases read the worklist from its
  /// CSR through in_worklist.
  const Digraph& csr;
  vid n;
  SignatureStore sigs;
  std::vector<vid> labels;
  EdgeWorklist worklist;
  /// Delayed-visibility fault hook; null unless the device injects it.
  device::FaultInjector* fault = nullptr;
  /// Global round clock for frontier gating (DESIGN.md §10): bumped by the
  /// control thread before each Phase-1 launch and each Phase-2 sweep, read
  /// by kernels via the captured per-launch value only.
  std::uint32_t round = 0;

  /// In-block pass clock (DESIGN.md §10): every Phase-2 block pass takes one
  /// tick, and the stores it makes stamp their owners' pass marks with it.
  std::atomic<std::uint32_t> pass_clock{0};

  std::atomic<std::uint32_t> changed{0};
  std::atomic<std::uint64_t> labeled{0};
  std::atomic<std::uint64_t> edges_processed{0};
  std::atomic<std::uint64_t> edges_moved{0};
  std::atomic<std::uint64_t> edges_skipped{0};
  std::atomic<std::uint64_t> block_iterations{0};

  /// Cluster keys (DESIGN.md §15): each unlabelled vertex's (vin, vout) as
  /// the last iteration left them, recorded by Phase 1 before it resets
  /// them. Phase 3 keeps exactly the edges whose endpoints agree on these,
  /// so a graph edge is in the worklist iff in_worklist says so.
  std::vector<std::uint64_t> key;

  bool in_worklist(vid a, vid b) const noexcept {
    return labels[a] == graph::kInvalidVid && labels[b] == graph::kInvalidVid &&
           key[a] == key[b];
  }

  /// High-diameter state (DESIGN.md §15), set up on the control thread at
  /// the first round that goes sparse or may chase, once per solve: the
  /// reverse CSR (in-edges for the sparse gather and chase predecessors),
  /// adopted from the prepared input or built here, and the per-round
  /// chase stamps. The bag pointer is non-null only while a Phase-2 sweep
  /// with the hash bag ARMED is on the device.
  const Digraph* reverse;
  std::optional<Digraph> built_reverse;  ///< when the caller gave no reverse
  std::unique_ptr<std::atomic<std::uint32_t>[]> fwd_stamp, bwd_stamp;
  /// Mover-bag storage, allocated once per solve and reused across outer
  /// iterations (a fresh round tag invalidates prior contents in O(1)).
  std::optional<device::HashBag> bag_store;
  device::HashBag* active_bag = nullptr;
  /// First-sweep active (non-gated) edge count of the current round — the
  /// density signal the §15 round-level adaptivity keys on.
  std::atomic<std::uint64_t> active_seen{0};
  std::atomic<std::uint64_t> chains_collapsed{0};
  std::atomic<std::uint64_t> chain_steps{0};
  std::atomic<std::uint64_t> max_chain_len{0};
  std::uint64_t hashbag_rounds = 0;  ///< control thread only

  void build_links() {
    if (fwd_stamp) return;
    if (reverse == nullptr) reverse = &built_reverse.emplace(csr.reverse());
    fwd_stamp = std::make_unique<std::atomic<std::uint32_t>[]>(n);
    bwd_stamp = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  }

  /// Priority order (DESIGN.md §16). Signatures carry vertex IDs until the
  /// switch; from then on they carry priority[v] = π(v), a fixed-seed random
  /// permutation built once, and vertex_of = π⁻¹ maps a signature back to
  /// its vertex. Signature storage stays in vertex order either way.
  std::vector<vid> priority, vertex_of;
  bool random_order = false;

  void switch_to_random_order() {
    Rng rng(kPrioritySeed);
    priority = graph::random_permutation(n, rng);
    vertex_of = graph::invert_permutation(priority);
    random_order = true;
  }
  /// π and π⁻¹ for the kernels; null while the order is vertex IDs.
  const vid* priorities() const noexcept { return random_order ? priority.data() : nullptr; }
  const vid* vertices() const noexcept { return random_order ? vertex_of.data() : nullptr; }
};

/// chase_chain's link source for the solver: a vertex's worklist links are
/// the CSR edges that pass in_worklist, found by scanning its row and
/// stopping at a second match. Per-vertex round stamps deduplicate chases
/// within one round: once a chase has pushed through a link, later movers
/// on the same chain stop at the first already-walked vertex instead of
/// re-walking the whole tail (O(chain²) per round on path-heavy meshes).
/// Skipped links just propagate next round. Rounds are monotone for the
/// lifetime of a solve, so the zero-fill at allocation is the only reset;
/// the two directions carry different signature mass through a vertex, so
/// each has its own stamps.
struct WorklistLinks {
  const EclState& st;

  vid successor(vid u) const noexcept { return unique_link(u, st.csr.out_neighbors(u)); }
  vid predecessor(vid v) const noexcept { return unique_link(v, st.reverse->out_neighbors(v)); }
  bool claim_forward(vid w, std::uint32_t round) const noexcept {
    return claim(st.fwd_stamp[w], round);
  }
  bool claim_backward(vid w, std::uint32_t round) const noexcept {
    return claim(st.bwd_stamp[w], round);
  }

 private:
  vid unique_link(vid v, std::span<const vid> row) const noexcept {
    vid link = detail::kNoLink;
    for (const vid w : row) {
      if (!st.in_worklist(v, w)) continue;
      if (link != detail::kNoLink) return detail::kManyLinks;
      link = w;
    }
    return link;
  }
  static bool claim(std::atomic<std::uint32_t>& stamp, std::uint32_t round) noexcept {
    if (stamp.load(std::memory_order_relaxed) == round) return false;
    stamp.store(round, std::memory_order_relaxed);
    return true;
  }
};

// The per-edge propagation bodies (monotone store dispatch, path
// compression, fault semantics), detection and Phase 3 live in
// core/propagate.hpp, shared with the fleet's sharded engine (DESIGN.md
// §13) so both run the exact same rules. BlockPasses below applies the
// per-edge body to the solver's EclState.

// --- Checkpointed resume (DESIGN.md §12) -----------------------------------
//
// Within an outer iteration every signature lies between its Phase-1 value
// and the iteration's fixpoint at each grid barrier, under every fault
// axis: a deferred or lost store only keeps an older value, replayed
// launches are idempotent, and a watchdog cut leaves monotone stores. So
// the live signatures are always a legal restart state and are never
// copied. The one snapshot per iteration, taken after Phase 1, keeps only
// what detection and Phase 3 change: the labels, and a mark of the
// worklist buffer (Phase 3 writes only the spare one). Every restore lands
// in the snapshot's own iteration, so the cluster keys and the priority
// order it sees are the live ones.

struct FixpointCheckpoint {
  std::vector<vid> labels;  ///< one buffer, reused by every snapshot of the solve
  std::uint64_t labeled = 0;
  EdgeWorklist::Mark worklist;
};

void take_checkpoint(const EclState& st, FixpointCheckpoint& ckpt, SccMetrics& metrics) {
  const Timer timer;
  ckpt.labels = st.labels;
  ckpt.labeled = st.labeled.load(std::memory_order_relaxed);
  ckpt.worklist = st.worklist.mark();
  ++metrics.checkpoints_taken;
  metrics.checkpoint_seconds += timer.seconds();
}

/// Rolls detection and Phase 3 back to the snapshot; the signatures stay.
void restore_checkpoint(EclState& st, const FixpointCheckpoint& ckpt) {
  st.labels = ckpt.labels;
  st.labeled.store(ckpt.labeled, std::memory_order_relaxed);
  st.worklist.rewind(ckpt.worklist);
}

/// Prepares Phase 2 to resume from the live signatures: every vertex epoch
/// is stamped with the CURRENT round, so the next sweep treats the whole
/// worklist as active under frontier gating.
void restamp_epochs(EclState& st) {
  for (vid v = 0; v < st.n; ++v) st.sigs.epoch(v).store(st.round, std::memory_order_relaxed);
  st.changed.store(0, std::memory_order_relaxed);
}

// grid_size lives in core/propagate.hpp (shared with the fleet's per-shard
// kernels).
using detail::grid_size;

// --- In-block passes (DESIGN.md §10) ----------------------------------------
//
// Under async_phase2 a Phase-2 block re-passes its edges until a pass moves
// nothing. Pass 1 visits the edges its round admits. Every pass takes a tick
// of the pass clock, and each store that moves a signature stamps its
// owner's pass mark with that tick; from pass 2 on a block visits only edges
// with an endpoint whose mark is at or after the tick of its own previous
// pass, i.e. that moved since that pass began. A store the filter misses (one
// from another block whose pass began earlier) also stamps its round's epoch
// and sets the round's changed flag, so the next round's pass 1 visits the
// edge: a miss costs a round, never a label.

/// One block's passes over its edges in one Phase-2 round.
class BlockPasses {
 public:
  BlockPasses(EclState& st, const EclOptions& opts, const WorklistLinks& links, bool chase,
              std::uint32_t round)
      : st_(st),
        opts_(opts),
        links_(links),
        chase_(chase),
        round_(round),
        view_{st.sigs, st.fault, st.active_bag, st.vertices()} {}

  /// Passes over the block's `count` edges: edge_at(pass, k) is the k-th
  /// edge of pass `pass` (from 1), and admit(e) is pass 1's gate. Stops after
  /// a pass that moves nothing (after one pass without async_phase2); the
  /// per-block `budget` of passes and the wall clock keep a fault-suppressed
  /// fixpoint from spinning forever in-kernel. Then adds the block's counters
  /// to the solve's, and flags the round changed if any pass moved a
  /// signature.
  template <typename EdgeAt, typename Admit>
  void run(std::uint64_t count, EdgeAt edge_at, Admit admit, std::uint64_t budget,
           const FixpointWatchdog& watchdog) {
    bool moved;
    do {
      moved = false;
      const std::uint32_t since = view_.tick;
      view_.tick = st_.pass_clock.fetch_add(1, std::memory_order_relaxed) + 1;
      ++passes_;
      for (std::uint64_t k = 0; k < count; ++k) {
        const graph::Edge e = edge_at(passes_, k);
        if (passes_ == 1 ? !admit(e) : !moved_since(e, since)) continue;
        moved |= visit(e);
      }
      changed_ |= moved;
    } while (opts_.async_phase2 && moved && passes_ < budget && !watchdog.expired());
    commit();
  }

 private:
  void commit() const {
    if (changed_) st_.changed.store(1, std::memory_order_relaxed);
    st_.block_iterations.fetch_add(passes_, std::memory_order_relaxed);
    st_.edges_processed.fetch_add(processed_, std::memory_order_relaxed);
    st_.edges_moved.fetch_add(moved_, std::memory_order_relaxed);
    if (chains_) {
      st_.chains_collapsed.fetch_add(chains_, std::memory_order_relaxed);
      st_.chain_steps.fetch_add(steps_, std::memory_order_relaxed);
      device::atomic_fetch_max_u64(st_.max_chain_len, longest_);
    }
  }

  /// The filter of passes >= 2. A wrap of the 32-bit clock only makes a
  /// mark look older or newer than it is.
  bool moved_since(graph::Edge e, std::uint32_t since) const noexcept {
    return st_.sigs.mark_of(e.src) >= since || st_.sigs.mark_of(e.dst) >= since;
  }

  /// The per-edge rule. When it moved a signature and the round chases,
  /// the edge's degree-one worklist chains are walked locally instead of
  /// paying a grid barrier per link (§15).
  bool visit(graph::Edge e) noexcept {
    ++processed_;
    if (!detail::propagate_edge(view_, e, opts_, round_)) return false;
    ++moved_;
    if (chase_) {
      const detail::ChaseResult cr = detail::chase_chain(view_, links_, e, opts_, round_);
      processed_ += cr.steps;
      moved_ += cr.moved;
      if (cr.moved) {
        ++chains_;
        steps_ += cr.moved;
        longest_ = std::max<std::uint64_t>(longest_, cr.moved);
      }
    }
    return true;
  }

  EclState& st_;
  const EclOptions& opts_;
  const WorklistLinks& links_;
  const bool chase_;
  const std::uint32_t round_;
  /// Signatures, fault hook, the mover bag while the round is armed, the
  /// priority order, and the current pass's tick.
  detail::SigView view_;
  bool changed_ = false;
  std::uint64_t passes_ = 0, processed_ = 0, moved_ = 0;
  std::uint64_t chains_ = 0, steps_ = 0, longest_ = 0;
};

/// Packs a signature pair into one cluster-key word.
std::uint64_t pack_key(const device::AtomicU32& hi, const device::AtomicU32& lo) noexcept {
  return static_cast<std::uint64_t>(hi.load(std::memory_order_relaxed)) << 32 |
         lo.load(std::memory_order_relaxed);
}

void phase1_init(EclState& st, device::Device& dev, const EclOptions& opts) {
  const std::uint64_t n = st.n;
  // Every re-initialized vertex is stamped with this round, so the first
  // Phase-2 sweep (round + 1) sees all of its edges as active.
  const std::uint32_t round = ++st.round;
  const vid* const priority = st.priorities();
  dev.launch(
      grid_size(dev, n, opts.persistent_threads),
      [&, round](const BlockContext& ctx) {
        ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t v = lo; v < hi; ++v) {
            if (st.labels[v] == graph::kInvalidVid) {
              // Record the cluster key before the reset. The epoch guard
              // keeps a replayed block (the launch is idempotent) from
              // recording the signatures it has just reset.
              if (st.sigs.epoch_of(v) != round)
                st.key[v] = pack_key(st.sigs.vin(v), st.sigs.vout(v));
              const std::uint32_t p = priority ? priority[v] : static_cast<std::uint32_t>(v);
              st.sigs.vin(v).store(p, std::memory_order_relaxed);
              st.sigs.vout(v).store(p, std::memory_order_relaxed);
              st.sigs.epoch(v).store(round, std::memory_order_relaxed);
            }
          }
        });
      },
      {.idempotent = true});
}

/// Runs the Phase-2 fixpoint. Returns false if the watchdog aborted it
/// (sweep budget exhausted or wall-clock expiry): signatures are then short
/// of the fixpoint and the caller must not label from them — but they
/// remain a sound restart state for another Phase-2 call.
bool phase2_propagate(EclState& st, device::Device& dev, const EclOptions& opts,
                      SccMetrics& metrics, FixpointWatchdog& watchdog) {
  const auto edges = st.worklist.edges();
  const std::uint64_t m = edges.size();
  if (m == 0) return true;
  const unsigned blocks = grid_size(dev, m, opts.persistent_threads);
  const std::uint64_t budget = watchdog.phase2_round_budget();
  std::uint64_t rounds = 0;

  // Hash-bag sparse frontier (DESIGN.md §15). Every round the bag collects
  // the vertices whose signatures moved; when that set drops below
  // hashbag_density of the worklist, the next round gathers only the edges
  // incident to it instead of sweeping (and gate-checking) all m edges.
  // This visits exactly the edges the §10 gate would have processed — the
  // gate keeps an edge live iff an endpoint moved in the previous round,
  // and the bag records precisely those movers — so the fixpoint and labels
  // are unchanged; late deep-mesh rounds just stop paying O(m) per level.
  if (!st.bag_store) st.bag_store.emplace(std::max<std::uint64_t>(256, m / 8));
  device::HashBag* const bag = &*st.bag_store;
  st.active_bag = nullptr;
  std::vector<vid> frontier;
  // False forces a dense round: at entry (Phase 1 or a resume stamped every
  // vertex) and after bag saturation.
  bool frontier_known = false;
  // Round-level adaptivity (§15): the bag and the chaser pay per-store /
  // per-edge overhead that only amortizes once the active frontier is
  // sparse, so
  // every round keys off the PREVIOUS round's first-sweep active-edge
  // count. The bag is armed (mover inserts live) only below kArmFactor x
  // the sparse threshold; chases fire only below chain_density. Round 1 is
  // always dense, unarmed, and unchased (last_active starts at m): the §10
  // epoch gate is the densitometer. Each Phase-2 call goes sparse only
  // once the dip has lasted two rounds: a one-off dip (circuit5M's single
  // sparse round) stays dense.
  constexpr double kArmFactor = 4.0;
  std::uint64_t last_active = m;
  std::uint32_t sparse_streak = 0;
  bool gathered = false;  ///< this call has gone sparse before
  // Arming that never converts into a sparse round is pure insert overhead
  // (circuit5M: the active count plateaus inside the armed band without
  // ever dipping below the sparse threshold). After kFutileArmLimit armed
  // rounds in a row whose harvest stayed dense, arming falls back to the
  // strict threshold: it re-engages only once the previous round was
  // already sparse enough that the very next harvest must pay off.
  constexpr std::uint32_t kFutileArmLimit = 4;
  std::uint32_t futile_arms = 0;
  // Sparse rounds under a tiny frontier skip the launch entirely and run on
  // the control thread — at that size the grid barrier costs more than the
  // work (the virtual-GPU analogue of a single-warp cleanup kernel).
  constexpr std::uint64_t kSerialSparseEdges = 8192;
  std::vector<graph::Edge> active;
  const WorklistLinks links{st};
  for (;;) {
    if (++rounds > budget || watchdog.expired()) {
      watchdog.mark_stalled();
      st.active_bag = nullptr;
      return false;
    }
    st.changed.store(0, std::memory_order_relaxed);
    st.active_seen.store(0, std::memory_order_relaxed);
    ++metrics.propagation_rounds;
    // One round of the global clock per sweep. A dense round's first pass
    // visits an edge when either endpoint's signature moved in the previous
    // round (epoch >= r - 1) or this one; everything else is provably at the
    // fixpoint already and is skipped. Later passes of a block visit only
    // edges whose endpoints moved since its previous pass began (pass marks,
    // BlockPasses), a subset of the edges this gate admits.
    const std::uint32_t r = ++st.round;
    const std::uint64_t processed_before = st.edges_processed.load(std::memory_order_relaxed);
    const std::uint64_t skipped_before = st.edges_skipped.load(std::memory_order_relaxed);
    const double arm_band = futile_arms >= kFutileArmLimit ? 1.0 : kArmFactor;
    const bool armed = static_cast<double>(last_active) <
                       arm_band * opts.hashbag_density * static_cast<double>(m);
    st.active_bag = armed ? bag : nullptr;
    if (armed) bag->begin_round(r);

    const bool chase_now =
        static_cast<double>(last_active) < opts.chain_density * static_cast<double>(m);
    const bool sparse_ok =
        frontier_known &&
        static_cast<double>(frontier.size()) < opts.hashbag_density * static_cast<double>(m);
    sparse_streak = sparse_ok ? sparse_streak + 1 : 0;
    const bool sparse = sparse_ok && (sparse_streak >= 2 || gathered);
    if (sparse || chase_now) st.build_links();

    if (sparse) {
      // The worklist edges incident to the movers, each once: a mover's
      // out-edges, and its in-edges from sources that did not move (a
      // moved source emits the edge as its out-edge). Movers are exactly
      // the vertices stamped with the previous round.
      gathered = true;
      active.clear();
      for (const vid v : frontier) {
        for (const vid w : st.csr.out_neighbors(v))
          if (st.in_worklist(v, w)) active.push_back({v, w});
        for (const vid u : st.reverse->out_neighbors(v))
          if (st.in_worklist(u, v) && st.sigs.epoch_of(u) != r - 1) active.push_back({u, v});
      }
      // Edges the round never had to look at: the same quantity the dense
      // gate counts as skips. (A duplicate bag entry repeats its edges, so
      // the gather can in principle exceed m.)
      st.edges_skipped.fetch_add(m - std::min<std::uint64_t>(m, active.size()),
                                 std::memory_order_relaxed);
      ++metrics.frontier_rounds;
      ++metrics.hashbag_rounds;
      ++st.hashbag_rounds;
      last_active = active.size();
      if (active.empty()) break;  // no mover touches a worklist edge: fixpoint

      // The gather is the round's gate, so pass 1 visits every gathered edge.
      const auto admit_all = [](graph::Edge) { return true; };
      if (active.size() <= kSerialSparseEdges) {
        BlockPasses block(st, opts, links, chase_now, r);
        block.run(
            active.size(), [&](std::uint64_t, std::uint64_t k) { return active[k]; }, admit_all,
            budget, watchdog);
      } else {
        const std::uint64_t a = active.size();
        const graph::Edge* act = active.data();
        dev.launch(
            grid_size(dev, a, opts.persistent_threads),
            [&, r](const BlockContext& ctx) {
              const device::EdgeSpan span =
                  device::equal_edge_span(ctx.block_id, ctx.num_blocks, a);
              BlockPasses block(st, opts, links, chase_now, r);
              block.run(
                  span.size(), [&](std::uint64_t, std::uint64_t k) { return act[span.begin + k]; },
                  admit_all, budget, watchdog);
              dev.record_block_work(ctx.block_id, span.size());
            },
            {.idempotent = true});
      }
    } else {
      dev.launch(
          blocks,
          [&, r](const BlockContext& ctx) {
            const device::EdgeSpan span = device::equal_edge_span(ctx.block_id, ctx.num_blocks, m);
            std::uint64_t local_skipped = 0;
            BlockPasses block(st, opts, links, chase_now, r);
            // Odd passes ascend the span and even passes descend it. The
            // worklist is in source order, so an ascending pass carries vin,
            // which flows along the edges, down an ascending path in one
            // pass, and a descending pass does the same for vout.
            block.run(
                span.size(),
                [&](std::uint64_t pass, std::uint64_t k) {
                  return edges[pass % 2 ? span.begin + k : span.end - 1 - k];
                },
                [&](graph::Edge e) {
                  const bool live = st.sigs.epoch_of(e.src) + 1 >= r ||
                                    st.sigs.epoch_of(e.dst) + 1 >= r;
                  local_skipped += !live;
                  return live;
                },
                budget, watchdog);
            st.edges_skipped.fetch_add(local_skipped, std::memory_order_relaxed);
            // Pass 1's admitted count: the round's frontier-density signal
            // for the §15 adaptivity.
            st.active_seen.fetch_add(span.size() - local_skipped, std::memory_order_relaxed);
            // The imbalance histogram measures ASSIGNMENT skew — the edges
            // this block owns per sweep, the quantity equal edge spans
            // control. Async in-block re-iteration counts are a convergence
            // property with their own metric (block_iterations).
            dev.record_block_work(ctx.block_id, span.size());
          },
          {.idempotent = true});
      last_active = st.active_seen.load(std::memory_order_relaxed);
    }

    if (!sparse && st.edges_skipped.load(std::memory_order_relaxed) > skipped_before)
      ++metrics.frontier_rounds;
    // A shrinking active frontier is fixpoint progress even while labels and
    // worklist size are frozen mid-Phase-2; let the wall-clock watchdog see
    // it (it ignores flat or growing frontiers).
    watchdog.observe_phase2_round(st.edges_processed.load(std::memory_order_relaxed) -
                                  processed_before);
    const bool sweep_again = st.changed.load(std::memory_order_relaxed) != 0;

    // Harvest the mover bag at the grid barrier: it becomes the candidate
    // frontier for the next round. An unarmed round tracked nothing (the
    // frontier was too dense to be worth it); a saturated bag means the
    // mover set is incomplete — either way the next round falls back dense.
    if (!armed) {
      frontier_known = false;
    } else if (bag->saturated()) {
      frontier_known = false;
      bag->grow(bag->capacity() * 2);
    } else {
      const std::span<const vid> items = bag->items();
      frontier.assign(items.begin(), items.end());
      frontier_known = true;
      if (frontier.size() * 2 > bag->capacity()) bag->grow(frontier.size() * 4);
    }
    if (armed) {
      const bool paid_off = frontier_known && static_cast<double>(frontier.size()) <
                                                  opts.hashbag_density * static_cast<double>(m);
      futile_arms = paid_off ? 0 : futile_arms + 1;
    }
    if (!sweep_again) break;
  }
  st.active_bag = nullptr;  // storage persists in EclState; inserts stop here
  return true;
}

/// Renames every component by its maximum ORIGINAL member, translating
/// labels computed on the hub-reordered graph back to original vertex IDs
/// when `perm` is non-empty (an empty `perm` is the identity). This makes a
/// reordered or priority-switched solve bit-identical to a plain run
/// (§3.2.1's max-ID naming is a function of the graph, not the schedule).
/// Unlabeled vertices (kInvalidVid, possible under kReturnError) pass
/// through.
void remap_labels_to_original(SccResult& result, const std::vector<vid>& perm) {
  const vid n = static_cast<vid>(result.labels.size());
  const auto solved = [&](vid v) { return perm.empty() ? v : perm[v]; };
  std::vector<vid> name(n, graph::kInvalidVid);  // component (solver name) -> max original member
  for (vid v = 0; v < n; ++v) {
    const vid c = result.labels[solved(v)];
    if (c == graph::kInvalidVid) continue;
    if (name[c] == graph::kInvalidVid || v > name[c]) name[c] = v;
  }
  std::vector<vid> original(n, graph::kInvalidVid);
  for (vid v = 0; v < n; ++v) {
    const vid c = result.labels[solved(v)];
    if (c != graph::kInvalidVid) original[v] = name[c];
  }
  result.labels = std::move(original);
}

/// Cheap pre-scan predictor for the hub reorder: the one per-graph choice
/// the solver makes, from its input rather than from an option. Relabeling
/// pays off when propagation is hub-coupled: the degree distribution must
/// be skewed THROUGHOUT, so that clustering hubs co-locates the slots the
/// sweep keeps re-reading. It loses when a heavy tail sits on an otherwise
/// near-regular graph (cage14, circuit5M: matrix/circuit topologies with a
/// few high-degree outliers) — the permutation + remap overhead buys
/// nothing because most edges never touch a hub. The separating feature,
/// measured across the load-balance ablation suite (EXPERIMENTS.md), is the
/// coefficient of variation of the out-degree: reorder winners (wikipedia
/// 1.95, wiki-Talk 1.90, web-Google 1.87, com-Youtube 2.51 — 1.3x to 2.2x
/// on the reorder axis) all sit >= 1.87, losers (cage14 1.46, circuit5M
/// 1.56 — 0.91x and 0.92x) below 1.6; 1.75 splits the gap. Hub-mass
/// fractions (top log2 buckets / total edge mass) were tried first and do
/// NOT separate: both classes carry only 1-5% of their edge mass in the
/// hubs.
bool hub_reorder_profitable(const graph::DegreeStats& stats) {
  if (!graph::looks_power_law(stats)) return false;  // meshes: permutation = identity
  if (stats.avg <= 0.0) return false;
  return stats.stddev_out / stats.avg >= 1.75;
}

/// One ECL-SCC solve of `g` as given (no relabeling). `reverse`, when
/// non-null, is g's reverse.
SccResult solve(const Digraph& g, const Digraph* reverse, device::Device& dev,
                const EclOptions& opts) {
  const vid n = g.num_vertices();
  SccResult result;
  if (n == 0) return result;

  EclState st(g, reverse);
  if (dev.fault_active() &&
      (dev.fault().plan().delayed_visibility || dev.fault().plan().lost_update))
    st.fault = &dev.fault();
  const std::uint64_t launches_before = dev.stats().kernel_launches;

  const std::uint64_t guard =
      opts.max_outer_iterations ? opts.max_outer_iterations : static_cast<std::uint64_t>(n) + 2;
  // FixpointWatchdog holds atomics, so a resume re-arms it by re-emplacing:
  // same config (and thus the same ABSOLUTE deadline — the budget is shared
  // across all resume attempts), fresh stall counters.
  std::optional<FixpointWatchdog> watchdog;
  watchdog.emplace(opts.watchdog, n);

  // Recovery ladder rung 1 (DESIGN.md §12): on a stall or overflow, resume
  // from the live signatures, at most max_resumes times.
  FixpointCheckpoint ckpt;
  const bool checkpointing = opts.checkpoint.enabled;
  // The priority switch (see kSwitchFromIteration) is skipped with
  // remove_scc_edges off, where completed SCCs keep worklist edges whose
  // signatures stay in vertex-ID order.
  const bool may_switch = opts.remove_scc_edges;
  // Iterations that completed and stood (a resumed attempt is not counted
  // twice), and the progress of the last one.
  std::uint64_t finished = 0, last_gained = 0, last_unlabeled = 0;
  unsigned resumes_left = checkpointing ? opts.checkpoint.max_resumes : 0;
  bool skip_phase1 = false;  // set on resume: Phase 1 would reset the live signatures
  Timer run_timer;
  double first_trip_seconds = -1.0;
  std::uint64_t dropped_edges_total = 0;

  auto note_trip = [&] {
    if (first_trip_seconds < 0) first_trip_seconds = run_timer.seconds();
  };
  // Re-enters Phase 2 of the current iteration from the live signatures
  // under a re-armed watchdog. A Phase-2 trip resumes in place; a trip
  // after Phase 3 (`rewind`) first rolls detection and Phase 3 back to the
  // iteration's snapshot. Nothing is discarded, so no sweep is replayed.
  // Returns false when the ladder rung is exhausted (no resumes left, or
  // the absolute deadline has expired — resuming would only burn the
  // budget).
  auto try_resume = [&](bool rewind) -> bool {
    if (resumes_left == 0 || watchdog->deadline_expired()) return false;
    --resumes_left;
    ++result.metrics.resumes;
    if (rewind) {
      dropped_edges_total += st.worklist.dropped_edges();
      restore_checkpoint(st, ckpt);
    }
    restamp_epochs(st);
    skip_phase1 = true;
    watchdog.emplace(opts.watchdog, n);
    return true;
  };

  while (st.labeled.load(std::memory_order_relaxed) < n) {
    if (++result.metrics.outer_iterations > guard) {
      result.error = {SccStatus::kIterationGuard,
                      "ecl_scc: outer loop exceeded iteration guard"};
      break;
    }
    if (watchdog->deadline_expired()) {
      watchdog->mark_stalled();
      ++result.metrics.watchdog_trips;
      note_trip();
      result.error = {SccStatus::kDeadlineExceeded,
                      "ecl_scc: request deadline expired between iterations"};
      break;
    }

    const std::uint64_t labeled_at_start = st.labeled.load(std::memory_order_relaxed);
    Timer phase_timer;
    if (skip_phase1) {
      // Resumed: the live signatures lie between this iteration's Phase-1
      // values and its fixpoint; re-running Phase 1 would reset every
      // unlabeled signature and discard that progress. The snapshot taken
      // after this iteration's Phase 1 still holds.
      skip_phase1 = false;
    } else {
      // Switching only here is sound: Phase 1 re-initializes every
      // unlabeled signature in the new order, and labeled vertices' slots
      // are never read again (no worklist edge touches them).
      if (may_switch && !st.random_order &&
          priority_switch_due(finished, last_gained, last_unlabeled)) {
        st.switch_to_random_order();
        result.metrics.priority_switch_iteration = result.metrics.outer_iterations;
      }
      phase1_init(st, dev, opts);
      result.metrics.phase1_seconds += phase_timer.seconds();
      // Snapshot AFTER Phase 1, the iteration's start: labels and worklist
      // are what this iteration's detection and Phase 3 will change.
      if (checkpointing) take_checkpoint(st, ckpt, result.metrics);
    }
    phase_timer.reset();
    const bool converged = phase2_propagate(st, dev, opts, result.metrics, *watchdog);
    result.metrics.phase2_seconds += phase_timer.seconds();
    if (!converged) {
      ++result.metrics.watchdog_trips;
      note_trip();
      const bool deadline = watchdog->deadline_expired();
      if (!deadline && try_resume(/*rewind=*/false)) continue;
      // A deadline trip aborts the same way a stall does but is reported
      // distinctly: the run was cancelled, not necessarily stuck.
      result.error =
          deadline ? SccError{SccStatus::kDeadlineExceeded,
                              "ecl_scc: request deadline expired mid-fixpoint"}
                   : SccError{SccStatus::kStalled,
                              "ecl_scc: phase-2 propagation exceeded its sweep budget"};
      break;
    }
    phase_timer.reset();
    // Under the random order a vertex is labelled by the member with the
    // top priority; ecl_scc renames every class by its largest member
    // afterwards.
    st.labeled.fetch_add(detail::detect_components(dev, opts, st.sigs, st.vertices(), 0, n,
                                                   st.labels),
                         std::memory_order_relaxed);
    result.metrics.edges_removed +=
        detail::phase3_remove_edges(dev, opts, st.sigs, st.labels, st.worklist);
    result.metrics.phase3_seconds += phase_timer.seconds();

    if (st.worklist.overflowed()) {
      // The next-iteration worklist dropped edges; labels assigned so far
      // came from the intact pre-overflow worklist and remain sound, but
      // further propagation over the truncated edge set would not be.
      note_trip();
      const std::uint64_t dropped = st.worklist.dropped_edges();
      if (try_resume(/*rewind=*/true)) continue;
      result.error = {SccStatus::kWorklistOverflow,
                      "ecl_scc: edge worklist overflowed during phase 3 (" +
                          std::to_string(dropped) + " edges dropped)"};
      break;
    }
    if (watchdog->observe_iteration(st.labeled.load(std::memory_order_relaxed),
                                    st.worklist.size())) {
      ++result.metrics.watchdog_trips;
      note_trip();
      if (try_resume(/*rewind=*/true)) continue;
      result.error = {SccStatus::kStalled,
                      "ecl_scc: no new labels and no worklist shrinkage for " +
                          std::to_string(opts.watchdog.stall_rounds) + " iterations"};
      break;
    }
    ++finished;
    last_unlabeled = n - labeled_at_start;
    last_gained = st.labeled.load(std::memory_order_relaxed) - labeled_at_start;
  }

  result.metrics.edges_processed = st.edges_processed.load(std::memory_order_relaxed);
  result.metrics.edges_moved = st.edges_moved.load(std::memory_order_relaxed);
  result.metrics.edges_skipped = st.edges_skipped.load(std::memory_order_relaxed);
  result.metrics.edges_dropped = dropped_edges_total + st.worklist.dropped_edges();
  result.metrics.kernel_launches = dev.stats().kernel_launches - launches_before;
  result.metrics.block_iterations = st.block_iterations.load(std::memory_order_relaxed);
  dev.stats().block_iterations += result.metrics.block_iterations;
  result.metrics.chains_collapsed = st.chains_collapsed.load(std::memory_order_relaxed);
  result.metrics.chain_steps = st.chain_steps.load(std::memory_order_relaxed);
  result.metrics.max_chain_len = st.max_chain_len.load(std::memory_order_relaxed);
  result.metrics.hashbag_rounds = st.hashbag_rounds;
  dev.stats().chains_collapsed += result.metrics.chains_collapsed;
  dev.stats().hashbag_rounds += result.metrics.hashbag_rounds;

  result.labels = std::move(st.labels);
  if (!result.error) {
    std::vector<vid> dense(result.labels.begin(), result.labels.end());
    result.num_components = graph::normalize_labels(dense);
  } else if (opts.stall_policy == StallPolicy::kSerialFallback) {
    // The labelled set at any break is a union of whole classes: detection
    // labels only from converged signatures, and a stalled Phase 2 breaks
    // before it.
    complete_with_tarjan(g, result);
  }
  // Time-to-good-result after the FIRST fault manifestation, including any
  // serial fallback: the quantity bench_chaos_recovery compares between the
  // resume path and the discard-and-recompute path.
  if (first_trip_seconds >= 0)
    result.metrics.recovery_seconds = run_timer.seconds() - first_trip_seconds;
  return result;
}

}  // namespace

EclOptions ecl_all_optimizations_off() {
  EclOptions opts;
  opts.async_phase2 = false;
  opts.remove_scc_edges = false;
  opts.path_compression = false;
  opts.persistent_threads = false;
  return opts;
}

EclInput prepare_ecl_input(const Digraph& g, std::shared_ptr<const Digraph> reverse) {
  // Hub-clustering reorder (DESIGN.md §11), gated per graph by the
  // degree-skew pre-scan: an O(n) out-degree stats pass predicts whether
  // relabeling pays for the permutation + remap. Out-degree-only stats keep
  // the rejected path cheap — the full variant's O(m) in-degree pass showed
  // up as ~10% on small fast-solving graphs. Skipped when the permutation
  // is the identity. Labels are unaffected either way: the remap names
  // every component by its maximum ORIGINAL member, bit-identical to the
  // unreordered solve.
  EclInput in;
  if (hub_reorder_profitable(graph::compute_out_degree_stats(g))) {
    std::vector<vid> perm = graph::hub_clustering_permutation(g);
    if (!perm.empty()) {
      // Relabeling commutes with reversal: the permuted reverse has the
      // same rows as the permuted graph's reverse, and costs less to build.
      if (reverse)
        reverse = std::make_shared<const Digraph>(graph::apply_permutation(*reverse, perm));
      Digraph permuted = graph::apply_permutation(g, perm);
      in.hub.emplace(graph::PermutedGraph{std::move(permuted), std::move(perm)});
    }
  }
  in.reverse = std::move(reverse);
  return in;
}

SccResult ecl_scc(const Digraph& g, const EclInput& in, device::Device& dev,
                  const EclOptions& opts) {
  const auto same_size = [&g](const Digraph& h) {
    return h.num_vertices() == g.num_vertices() && h.num_edges() == g.num_edges();
  };
  if ((in.hub && (!same_size(in.hub->graph) || in.hub->perm.size() != g.num_vertices())) ||
      (in.reverse && !same_size(*in.reverse)))
    throw std::invalid_argument("ecl_scc: the prepared input is not of this graph");
  if (in.hub) {
    SccResult result = solve(in.hub->graph, in.reverse.get(), dev, opts);
    remap_labels_to_original(result, in.hub->perm);
    result.metrics.hub_reorder_applied = true;
    return result;
  }
  SccResult result = solve(g, in.reverse.get(), dev, opts);
  // After a priority switch, labels name each class by its top-priority
  // member; one O(n) pass restores max-member names (the reordered path
  // above gets the same pass from its remap).
  if (result.metrics.priority_switch_iteration != 0) remap_labels_to_original(result, {});
  return result;
}

SccResult ecl_scc(const Digraph& g, device::Device& dev, const EclOptions& opts) {
  return ecl_scc(g, prepare_ecl_input(g), dev, opts);
}

device::Device& shared_device() {
  static device::Device dev(device::a100_profile());
  return dev;
}

SccResult ecl_scc(const Digraph& g, const EclOptions& opts) {
  return ecl_scc(g, shared_device(), opts);
}

}  // namespace ecl::scc

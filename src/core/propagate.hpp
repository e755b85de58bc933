#ifndef ECL_CORE_PROPAGATE_HPP
#define ECL_CORE_PROPAGATE_HPP

// Algorithm 1's rules as kernels, shared between the single-device solver
// (ecl_scc.cpp) and the fleet's sharded engine (src/fleet/): the per-edge
// Phase-2 update, component detection and Phase 3's edge removal.
//
// The sharded fixpoint (DESIGN.md §13) is only bit-identical to a
// single-device run because every shard executes the SAME monotone store,
// the SAME per-edge update rule — including path compression's lift writes
// and the chaos device's store-fault semantics — and the SAME detection and
// removal predicates. Keeping one copy of each here makes that "same rule"
// property a fact of the build rather than a convention between two copies
// of the code.
//
// The per-edge update operates on a SigView: the slice of solver state it
// needs (the signature arrays plus the device's fault hook). The
// single-device EclState and a fleet shard replica both provide exactly
// this slice.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ecl_scc.hpp"
#include "device/atomics.hpp"
#include "device/edge_partition.hpp"
#include "device/fault.hpp"
#include "device/hash_bag.hpp"
#include "device/signature_store.hpp"
#include "device/worklist.hpp"
#include "graph/digraph.hpp"

namespace ecl::scc::detail {

/// Grid size for an edge/vertex kernel under the selected threading mode.
inline unsigned grid_size(device::Device& dev, std::uint64_t items, bool persistent) {
  if (persistent)
    return std::min<std::uint64_t>(dev.profile().resident_blocks(),
                                   std::max<std::uint64_t>(1, dev.blocks_for(items)));
  return dev.blocks_for(items);
}

/// Work distribution for the edge phases: one equal contiguous edge span
/// per block (degenerate merge-path on the flat worklist, DESIGN.md §11).
/// The body sees the half-open [lo, hi) range of the block's edges.
template <typename Body>
void for_each_owned(const device::BlockContext& ctx, std::uint64_t total, Body&& body) {
  const device::EdgeSpan span = device::equal_edge_span(ctx.block_id, ctx.num_blocks, total);
  if (!span.empty()) body(span.begin, span.end);
}

/// The propagation-visible slice of a solver's state.
struct SigView {
  device::SignatureStore& sigs;
  /// Delayed-visibility / lost-update fault hook; null unless the device
  /// injects it for the current launch.
  device::FaultInjector* fault = nullptr;
  /// Sparse-frontier mover bag (DESIGN.md §15); when set, every store that
  /// moves a signature registers the owning vertex, so the NEXT round can
  /// visit only edges incident to this round's movers. Dedup-on-insert
  /// makes repeated movements of one vertex (e.g. along a chased chain)
  /// cost one frontier entry.
  device::HashBag* bag = nullptr;
  /// Random priority order (DESIGN.md §16): when set, signatures hold
  /// priorities π(v) and vertex_of[p] = π⁻¹(p) is the vertex with priority
  /// p. Null means vertex-ID order, π = identity (the fleet's K > 1
  /// kernels always pass null).
  const vid* vertex_of = nullptr;
  /// The current in-block pass's tick of the solver's pass clock (DESIGN.md
  /// §10); every store that moves a signature stamps the owner's pass mark
  /// with it. 0 stamps nothing (the fleet's K > 1 kernels).
  std::uint32_t tick = 0;

  /// The vertex a signature value names.
  vid vertex(std::uint32_t sig) const noexcept { return vertex_of ? vertex_of[sig] : sig; }
};

/// The paper's atomic-free monotonic store (§3.4). Under the
/// delayed-visibility fault a store may be deferred: dropped this round but
/// reported as movement when it would have changed the slot, so the
/// propagation loop retries until it lands — exactly the lost-update
/// tolerance the monotonic store relies on. Under the lost-update fault the
/// store is dropped AND reported as no movement: the fixpoint silently
/// converges short of the true one, which only the online certifier
/// (core/verify.hpp) can detect downstream.
///
/// `owner` is the vertex whose signature the slot belongs to. Any reported
/// movement — including a deferred store's, so the retry round still sees
/// the edge as active — stamps the owner's frontier epoch with the current
/// round, keeping its incident edges in the active frontier, and its pass
/// mark with the view's tick, keeping them in the block's next pass. Round 0
/// means no frontier clock: the sharded engine's per-shard sweeps pass it
/// (an exchange-raised value would have to re-stamp foreign epochs), the
/// same convention chase_chain uses for its round stamps.
inline bool store_max(const SigView& st, device::AtomicU32& slot, vid owner,
                      std::uint32_t value, std::uint32_t round) noexcept {
  bool moved;
  if (st.fault && st.fault->lose_store()) return false;
  if (st.fault && st.fault->defer_store())
    moved = value > slot.load(std::memory_order_relaxed);
  else
    moved = device::racy_store_max(slot, value);
  if (moved) {
    if (round != 0) st.sigs.epoch(owner).store(round, std::memory_order_relaxed);
    if (st.tick != 0) st.sigs.mark(owner).store(st.tick, std::memory_order_relaxed);
    if (st.bag) st.bag->insert(owner);
  }
  return moved;
}

/// Phase-2 body for one edge (u -> v). Returns true if any signature moved.
inline bool propagate_edge(const SigView& st, graph::Edge e, const EclOptions& opts,
                           std::uint32_t round) noexcept {
  const vid u = e.src;
  const vid v = e.dst;
  bool any = false;

  // out[u] <- max(out[u], out[v])   (compressed: out[out[v]], §3.3). The
  // hop and both lift targets index by the vertex a signature names.
  std::uint32_t ov = st.sigs.vout(v).load(std::memory_order_relaxed);
  if (opts.path_compression) ov = st.sigs.vout(st.vertex(ov)).load(std::memory_order_relaxed);
  const std::uint32_t ou = st.sigs.vout(u).load(std::memory_order_relaxed);
  if (ov > ou) {
    if (opts.path_compression) {
      // Lift: ou names a descendant of u, so u's ancestors are its ancestors.
      const vid d = st.vertex(ou);
      if (d != u) {
        const std::uint32_t iu = st.sigs.vin(u).load(std::memory_order_relaxed);
        any |= store_max(st, st.sigs.vin(d), d, iu, round);
      }
    }
    any |= store_max(st, st.sigs.vout(u), u, ov, round);
  }

  // in[v] <- max(in[v], in[u])   (compressed: in[in[u]])
  std::uint32_t iu = st.sigs.vin(u).load(std::memory_order_relaxed);
  if (opts.path_compression) iu = st.sigs.vin(st.vertex(iu)).load(std::memory_order_relaxed);
  const std::uint32_t iv = st.sigs.vin(v).load(std::memory_order_relaxed);
  if (iu > iv) {
    if (opts.path_compression) {
      // Lift: iv names an ancestor of v, so v's descendants are its descendants.
      const vid a = st.vertex(iv);
      if (a != v) {
        const std::uint32_t ovv = st.sigs.vout(v).load(std::memory_order_relaxed);
        any |= store_max(st, st.sigs.vout(a), a, ovv, round);
      }
    }
    any |= store_max(st, st.sigs.vin(v), v, iu, round);
  }
  return any;
}

/// Component detection over the vertices [begin, end): an unlabelled vertex
/// whose signatures agree (vin = vout) is labelled with the vertex its
/// signature names (`vertex_of[sig]`; the signature itself when `vertex_of`
/// is null, the vertex-ID order). Returns the number labelled. Idempotent:
/// labelled vertices are skipped, so a replayed block labels nothing twice.
inline std::uint64_t detect_components(device::Device& dev, const EclOptions& opts,
                                       device::SignatureStore& sigs, const vid* vertex_of,
                                       vid begin, vid end, std::span<vid> labels) {
  const std::uint64_t span = end - begin;
  if (span == 0) return 0;
  std::atomic<std::uint64_t> labeled{0};
  dev.launch(
      grid_size(dev, span, opts.persistent_threads),
      [&](const device::BlockContext& ctx) {
        std::uint64_t local = 0;
        ctx.for_each_chunk(span, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t i = lo; i < hi; ++i) {
            const vid v = begin + static_cast<vid>(i);
            if (labels[v] != graph::kInvalidVid) continue;
            const std::uint32_t in = sigs.vin(v).load(std::memory_order_relaxed);
            const std::uint32_t out = sigs.vout(v).load(std::memory_order_relaxed);
            if (in == out) {
              labels[v] = vertex_of ? vertex_of[in] : in;
              ++local;
            }
          }
        });
        labeled.fetch_add(local, std::memory_order_relaxed);
      },
      {.idempotent = true});
  return labeled.load(std::memory_order_relaxed);
}

/// Phase 3 (Algorithm 1) over `worklist`: an edge whose endpoints disagree
/// on either signature spans two classes and is dropped, and under
/// remove_scc_edges so is one whose source is labelled, inside a completed
/// class (§3.3). Returns the number of edges removed.
inline std::uint64_t phase3_remove_edges(device::Device& dev, const EclOptions& opts,
                                         device::SignatureStore& sigs,
                                         std::span<const vid> labels,
                                         device::EdgeWorklist& worklist) {
  const auto edges = worklist.edges();
  const std::uint64_t m = edges.size();
  if (m == 0) return 0;
  dev.launch(
      grid_size(dev, m, opts.persistent_threads),
      [&](const device::BlockContext& ctx) {
        // Chunked reservation (DESIGN.md §10): survivors are staged per block
        // and committed with one cursor fetch_add per chunk. The appender's
        // destructor flushes the partial last chunk before the grid barrier.
        device::EdgeWorklist::ChunkAppender chunk(worklist);
        std::uint64_t local_examined = 0;
        for_each_owned(ctx, m, [&](std::uint64_t lo, std::uint64_t hi) {
          local_examined += hi - lo;
          for (std::uint64_t i = lo; i < hi; ++i) {
            const graph::Edge e = edges[i];
            const std::uint32_t iu = sigs.vin(e.src).load(std::memory_order_relaxed);
            const std::uint32_t iv = sigs.vin(e.dst).load(std::memory_order_relaxed);
            const std::uint32_t ou = sigs.vout(e.src).load(std::memory_order_relaxed);
            const std::uint32_t ov = sigs.vout(e.dst).load(std::memory_order_relaxed);
            if (iu != iv || ou != ov) continue;  // spans SCCs: drop
            if (opts.remove_scc_edges && labels[e.src] != graph::kInvalidVid)
              continue;  // inside a completed SCC: no longer needed (§3.3)
            chunk.push(e);
          }
        });
        dev.record_block_work(ctx.block_id, local_examined);
      },
      {.idempotent = false});
  const std::size_t before = worklist.size();
  worklist.swap_buffers();
  return before - worklist.size();
}

// ---------------------------------------------------------------------------
// Vertical granularity control: chain chasing (DESIGN.md §15).
//
// On a path-like region of the SCC-DAG (meshes: degree ≈ 2–3), max-ID
// propagation advances ONE link per round — a signature must land at a grid
// barrier before the next edge's sweep can read it. A worker that just moved
// a vertex with exactly one worklist successor can instead walk that
// single-successor chain locally, applying the same per-edge update rule
// link by link, collapsing up to chain_cap rounds into one.
//
// Soundness: every step applies propagate_edge on an edge of the CURRENT
// worklist — the same monotone stores, lift writes, fault semantics, and
// epoch/bag stamping a round-scheduled visit would perform. The fixpoint is
// a function of the edge set alone, so executing some updates early (within
// a round) cannot change it; and because chains never leave the worklist,
// no Phase-3-removed edge is ever traversed.
//
// A chase reads its links from a link source, which provides:
//   successor(u), predecessor(v)  the one worklist neighbour in that
//                                 direction, or kNoLink / kManyLinks;
//   claim_forward(w, round),      false when an earlier chase of this round
//   claim_backward(w, round)      already walked into w in that direction.
// The solver's source reads the solve graph's CSR under its cluster keys
// (core/ecl_scc.cpp); the fleet's shards use ChainIndex below.
// ---------------------------------------------------------------------------

/// Link sentinels: no worklist edge in this direction, or more than one.
/// Either way the chase stops.
inline constexpr vid kNoLink = graph::kInvalidVid;
inline constexpr vid kManyLinks = graph::kInvalidVid - 1;

/// Degree-one successor/predecessor index over one shard's edge worklist.
/// succ[u] is the worklist successor of u if u has exactly one, else a
/// sentinel; likewise pred[v]. Rebuilt whenever the worklist changes (O(m)
/// with no atomics — build on the shard runner between launches). Shard
/// sweeps pass round 0, so it keeps no chase stamps and claims every link.
struct ChainIndex {
  std::vector<vid> succ, pred;
  /// Vertices with exactly one worklist successor or predecessor — the only
  /// places a chase can take a step. Zero on dense graphs: callers then skip
  /// the per-edge chase lookups entirely.
  std::uint64_t links = 0;

  bool useful() const noexcept { return links != 0; }

  vid successor(vid u) const noexcept { return succ[u]; }
  vid predecessor(vid v) const noexcept { return pred[v]; }
  bool claim_forward(vid, std::uint32_t) const noexcept { return true; }
  bool claim_backward(vid, std::uint32_t) const noexcept { return true; }

  void build(std::size_t n, std::span<const graph::Edge> edges) {
    succ.assign(n, kNoLink);
    pred.assign(n, kNoLink);
    links = 0;
    for (const graph::Edge& e : edges) {
      succ[e.src] = (succ[e.src] == kNoLink) ? e.dst : kManyLinks;
      pred[e.dst] = (pred[e.dst] == kNoLink) ? e.src : kManyLinks;
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (succ[v] < kManyLinks) ++links;
      if (pred[v] < kManyLinks) ++links;
    }
  }
};

/// Result of one chase: links that moved a signature, and the chase length.
struct ChaseResult {
  std::uint32_t steps = 0;    ///< links traversed (moved or not)
  std::uint32_t moved = 0;    ///< links whose update moved a signature
};

/// Chases the single-successor chain forward from e.dst and the
/// single-predecessor chain backward from e.src, applying the full per-edge
/// update at each link, until a link stops moving signatures, the chain
/// branches or dead-ends (kManyLinks / kNoLink), revisits its start
/// (cycle), the link source refuses the claim (another chase already walked
/// the link this round), or the combined budget `opts.chain_cap` is spent.
/// Call after propagate_edge(e) reported movement. Thread-safe: only
/// monotone stores touch shared state, and a claim race at worst duplicates
/// a walk it meant to skip.
template <typename Links>
ChaseResult chase_chain(const SigView& st, const Links& links, graph::Edge e,
                        const EclOptions& opts, std::uint32_t round) noexcept {
  ChaseResult r;
  std::uint32_t budget = opts.chain_cap;

  // Forward: e.dst just absorbed new signature mass; push it down the chain.
  vid u = e.dst;
  const vid fwd_start = u;
  while (budget != 0) {
    const vid w = links.successor(u);
    if (w >= kManyLinks || !links.claim_forward(w, round)) break;
    --budget;
    ++r.steps;
    if (!propagate_edge(st, {u, w}, opts, round)) break;
    ++r.moved;
    u = w;
    if (u == fwd_start) break;  // pure cycle: one lap saturates it
  }

  // Backward: e.src's in-signature may now pull its lone predecessor's
  // ancestors forward; walk the predecessor chain re-applying the rule.
  vid v = e.src;
  const vid bwd_start = v;
  while (budget != 0) {
    const vid w = links.predecessor(v);
    if (w >= kManyLinks || !links.claim_backward(w, round)) break;
    --budget;
    ++r.steps;
    if (!propagate_edge(st, {w, v}, opts, round)) break;
    ++r.moved;
    v = w;
    if (v == bwd_start) break;
  }
  return r;
}

}  // namespace ecl::scc::detail

#endif  // ECL_CORE_PROPAGATE_HPP

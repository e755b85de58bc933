#include "core/ecl_omp.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "graph/condensation.hpp"

namespace ecl::scc {
namespace {

/// Relaxed monotonic store on a plain uint32 slot (the paper's atomic-free
/// max write, expressed with atomic_ref to stay defined behavior).
bool store_max(std::uint32_t& slot, std::uint32_t value) noexcept {
  std::atomic_ref<std::uint32_t> ref(slot);
  if (value > ref.load(std::memory_order_relaxed)) {
    ref.store(value, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::uint32_t load_relaxed(const std::uint32_t& slot) noexcept {
  return std::atomic_ref<const std::uint32_t>(slot).load(std::memory_order_relaxed);
}

/// Sets the OpenMP thread count for one run (0 keeps it) and restores the
/// previous count on every exit, thrown ones included.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(unsigned threads) : saved_(omp_get_max_threads()) {
    if (threads > 0) omp_set_num_threads(static_cast<int>(threads));
  }
  ~ThreadCountScope() { omp_set_num_threads(saved_); }
  ThreadCountScope(const ThreadCountScope&) = delete;
  ThreadCountScope& operator=(const ThreadCountScope&) = delete;

 private:
  int saved_;
};

}  // namespace

SccResult ecl_omp(const Digraph& g, const EclOmpOptions& opts) {
  const vid n = g.num_vertices();
  SccResult result;
  if (n == 0) return result;

  const ThreadCountScope threads(opts.num_threads);
  const bool has_deadline = opts.deadline != std::chrono::steady_clock::time_point{};
  const auto deadline_passed = [&] {
    return has_deadline && std::chrono::steady_clock::now() > opts.deadline;
  };

  std::vector<graph::Edge> edges;
  edges.reserve(g.num_edges());
  for (vid u = 0; u < n; ++u) {
    for (vid v : g.out_neighbors(u)) edges.push_back({u, v});
  }
  std::vector<graph::Edge> next_edges(edges.size());

  std::vector<std::uint32_t> in(n);
  std::vector<std::uint32_t> out(n);
  // Frontier gating (the CPU translation of the device gate, DESIGN.md §10):
  // epoch[v] is the last round any signature of v moved. An edge whose
  // endpoints are both quiescent since before the previous round is already
  // at its fixpoint and is skipped.
  std::vector<std::uint32_t> epoch(n, 0);
  std::uint32_t round = 0;
  std::vector<vid> labels(n, graph::kInvalidVid);
  std::uint64_t labeled = 0;
  const std::uint64_t guard = static_cast<std::uint64_t>(n) + 2;

  auto stamp = [&](vid v, std::uint32_t r) noexcept {
    std::atomic_ref<std::uint32_t>(epoch[v]).store(r, std::memory_order_relaxed);
  };

  // The full per-edge update, shared between the round-scheduled loop and
  // the chain chaser so both apply the identical rule.
  auto apply_edge = [&](vid u, vid v, std::uint32_t r) noexcept {
    bool moved = false;
    std::uint32_t ov = load_relaxed(out[v]);
    if (opts.path_compression) ov = load_relaxed(out[ov]);
    if (ov > load_relaxed(out[u]) && store_max(out[u], ov)) {
      stamp(u, r);
      moved = true;
    }
    std::uint32_t iu = load_relaxed(in[u]);
    if (opts.path_compression) iu = load_relaxed(in[iu]);
    if (iu > load_relaxed(in[v]) && store_max(in[v], iu)) {
      stamp(v, r);
      moved = true;
    }
    return moved;
  };

  // Chain chasing (the CPU translation of the device chaser, DESIGN.md §15):
  // degree-one successor/predecessor maps over the CURRENT edge list, so a
  // chase never walks an edge Phase 3 has removed. Rebuilt each outer
  // iteration, after the compaction.
  constexpr vid kNone = graph::kInvalidVid;
  constexpr vid kMany = graph::kInvalidVid - 1;
  std::vector<vid> succ, pred;
  auto build_chains = [&] {
    succ.assign(n, kNone);
    pred.assign(n, kNone);
    for (const auto& [u, v] : edges) {
      succ[u] = (succ[u] == kNone) ? v : kMany;
      pred[v] = (pred[v] == kNone) ? u : kMany;
    }
  };

  while (labeled < n) {
    if (++result.metrics.outer_iterations > guard)
      throw std::logic_error("ecl_omp: outer loop exceeded iteration guard (internal bug)");
    if (deadline_passed()) {
      result.error = {SccStatus::kDeadlineExceeded,
                      "ecl_omp: request deadline expired between iterations"};
      break;
    }

    // Phase 1: initialize signatures of unlabeled vertices.
    ++round;
#pragma omp parallel for schedule(static)
    for (vid v = 0; v < n; ++v) {
      if (labels[v] == graph::kInvalidVid) {
        in[v] = out[v] = v;
        epoch[v] = round;
      }
    }

    build_chains();

    // Phase 2: propagate maxima to a fixed point.
    bool updated = true;
    while (updated) {
      if (deadline_passed()) break;
      updated = false;
      ++result.metrics.propagation_rounds;
      const std::uint32_t r = ++round;
      std::uint64_t skipped = 0;
      std::uint64_t chains = 0, steps = 0, longest = 0;
#pragma omp parallel for schedule(static) reduction(|| : updated) \
    reduction(+ : skipped, chains, steps) reduction(max : longest)
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto [u, v] = edges[i];
        if (load_relaxed(epoch[u]) + 1 < r && load_relaxed(epoch[v]) + 1 < r) {
          ++skipped;
          continue;
        }
        const bool moved = apply_edge(u, v, r);
        if (moved) {
          // Forward down v's successor chain, then backward up u's
          // predecessor chain, one shared budget (mirrors chase_chain in
          // core/propagate.hpp).
          std::uint32_t chase_budget = opts.chain_cap;
          std::uint64_t moved_links = 0;
          vid c = v;
          while (chase_budget != 0) {
            const vid w = succ[c];
            if (w >= kMany) break;
            --chase_budget;
            if (!apply_edge(c, w, r)) break;
            ++moved_links;
            c = w;
            if (c == v) break;  // pure cycle: one lap saturates it
          }
          c = u;
          while (chase_budget != 0) {
            const vid w = pred[c];
            if (w >= kMany) break;
            --chase_budget;
            if (!apply_edge(w, c, r)) break;
            ++moved_links;
            c = w;
            if (c == u) break;
          }
          if (moved_links != 0) {
            ++chains;
            steps += moved_links;
            longest = std::max(longest, moved_links);
          }
        }
        updated = updated || moved;
      }
      result.metrics.edges_processed += edges.size() - skipped + steps;
      result.metrics.edges_skipped += skipped;
      if (skipped > 0) ++result.metrics.frontier_rounds;
      result.metrics.chains_collapsed += chains;
      result.metrics.chain_steps += steps;
      result.metrics.max_chain_len = std::max(result.metrics.max_chain_len, longest);
    }
    if (updated) {  // the deadline cut the fixpoint short
      result.error = {SccStatus::kDeadlineExceeded,
                      "ecl_omp: request deadline expired mid-fixpoint"};
      break;
    }

    // Detect: vin == vout identifies the component (§3.2.1).
    std::uint64_t found = 0;
#pragma omp parallel for schedule(static) reduction(+ : found)
    for (vid v = 0; v < n; ++v) {
      if (labels[v] == graph::kInvalidVid && in[v] == out[v]) {
        labels[v] = in[v];
        ++found;
      }
    }
    labeled += found;
    if (found == 0)
      throw std::logic_error("ecl_omp: iteration made no progress (internal bug)");

    // Phase 3: compact the surviving edges into the spare worklist.
    std::atomic<std::size_t> next_size{0};
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto [u, v] = edges[i];
      if (in[u] != in[v] || out[u] != out[v]) continue;
      if (opts.remove_scc_edges && labels[u] != graph::kInvalidVid) continue;
      next_edges[next_size.fetch_add(1, std::memory_order_relaxed)] = edges[i];
    }
    const std::size_t new_size = next_size.load(std::memory_order_relaxed);
    result.metrics.edges_removed += edges.size() - new_size;
    edges.swap(next_edges);
    edges.resize(new_size);
    next_edges.resize(std::max(next_edges.size(), new_size));
  }

  result.labels = std::move(labels);
  if (result.ok()) {
    std::vector<vid> dense(result.labels.begin(), result.labels.end());
    result.num_components = graph::normalize_labels(dense);
  }
  return result;
}

}  // namespace ecl::scc

#include "core/fb_trim.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/ecl_scc.hpp"
#include "core/trim.hpp"
#include "graph/condensation.hpp"
#include "support/rng.hpp"

namespace ecl::scc {
namespace {

using device::BlockContext;

/// Level-synchronous, color-confined parallel BFS from all pivots at once.
/// A vertex is visited in round r when `stamp[v] == r`: stamps survive
/// across rounds, so no per-round clearing of the whole array is needed,
/// and one CAS from an older round's stamp claims a vertex exactly once.
struct Bfs {
  explicit Bfs(vid n)
      : stamp(std::make_unique<std::atomic<std::uint64_t>[]>(n)), frontier(n), next(n) {}

  std::unique_ptr<std::atomic<std::uint64_t>[]> stamp;
  std::vector<vid> frontier;
  std::vector<vid> next;

  bool visited(vid v, std::uint64_t round) const noexcept {
    return stamp[v].load(std::memory_order_relaxed) == round;
  }

  /// Returns the number of BFS levels executed.
  std::uint64_t run(const Digraph& dir, device::Device& dev, std::uint64_t round,
                    std::span<const vid> sources, std::span<const std::uint8_t> active,
                    std::span<const std::uint64_t> color,
                    std::atomic<std::uint64_t>& edges_processed) {
    std::size_t frontier_size = 0;
    for (vid s : sources) {
      stamp[s].store(round, std::memory_order_relaxed);
      frontier[frontier_size++] = s;
    }
    std::uint64_t levels = 0;
    while (frontier_size > 0) {
      ++levels;
      std::atomic<std::size_t> next_size{0};
      // Idempotent: the stamp CAS admits each vertex to `next` exactly once,
      // so a spurious replay of a block finds every neighbor already stamped
      // and its staged flush commits nothing.
      dev.launch(
          dev.blocks_for(frontier_size),
          [&](const BlockContext& ctx) {
            std::uint64_t local_edges = 0;
            // Chunked reservation (DESIGN.md §10): newly stamped vertices are
            // staged per block and committed to `next` with one cursor
            // fetch_add per chunk instead of one per vertex.
            constexpr std::size_t kChunk = 1024;
            std::vector<vid> staged;
            staged.reserve(kChunk);
            auto flush = [&] {
              if (staged.empty()) return;
              const std::size_t at =
                  next_size.fetch_add(staged.size(), std::memory_order_relaxed);
              std::copy(staged.begin(), staged.end(), next.begin() + at);
              staged.clear();
            };
            ctx.for_each_chunk(frontier_size, [&](std::uint64_t lo, std::uint64_t hi) {
              for (std::uint64_t i = lo; i < hi; ++i) {
                const vid u = frontier[i];
                for (vid w : dir.out_neighbors(u)) {
                  ++local_edges;
                  if (!active[w] || color[w] != color[u]) continue;
                  std::uint64_t seen = stamp[w].load(std::memory_order_relaxed);
                  if (seen == round ||
                      !stamp[w].compare_exchange_strong(seen, round, std::memory_order_relaxed))
                    continue;
                  staged.push_back(w);
                  if (staged.size() >= kChunk) flush();
                }
              }
            });
            flush();
            edges_processed.fetch_add(local_edges, std::memory_order_relaxed);
            dev.record_block_work(ctx.block_id, local_edges);
          },
          {.idempotent = true});
      frontier.swap(next);
      frontier_size = next_size.load(std::memory_order_relaxed);
    }
    return levels;
  }
};

/// Device-resident trimming, as GPU-SCC runs it: every Trim-1 sweep is a
/// mark kernel plus an apply kernel (snapshot semantics), iterated until no
/// trivial SCC remains — the launch-latency-bound loop that makes deep
/// trivial-SCC DAGs (beam-hex, star) expensive for FB-style codes (§5.1.1).
/// Trim-2 runs as a single-block kernel (one sweep per round).
vid device_trim(TrimView view, device::Device& dev, const FbOptions& opts,
                std::vector<std::uint8_t>& mark, SccMetrics& metrics) {
  const vid n = view.g.num_vertices();

  auto trim1_to_fixpoint = [&] {
    vid removed_total = 0;
    for (;;) {
      std::atomic<std::uint64_t> marked{0};
      dev.launch(dev.blocks_for(n), [&](const BlockContext& ctx) {
        std::uint64_t local = 0;
        ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
          local += trim1_mark_range(view, static_cast<vid>(lo), static_cast<vid>(hi),
                                    mark.data());
        });
        marked.fetch_add(local, std::memory_order_relaxed);
      });
      ++metrics.propagation_rounds;
      const auto count = marked.load(std::memory_order_relaxed);
      if (count == 0) break;
      dev.launch(dev.blocks_for(n), [&](const BlockContext& ctx) {
        ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t v = lo; v < hi; ++v) {
            if (!mark[v]) continue;
            view.labels[v] = static_cast<vid>(v);
            view.active[v] = 0;
            mark[v] = 0;
          }
        });
      });
      removed_total += static_cast<vid>(count);
    }
    return removed_total;
  };

  vid total = 0;
  if (opts.trim1) total += trim1_to_fixpoint();
  if (opts.trim2) {
    vid pairs = 0;
    dev.launch(1, [&](const BlockContext&) { pairs += trim2_pass(view); });
    total += pairs;
    if (pairs > 0 && opts.trim1) total += trim1_to_fixpoint();
  }
  return total;
}

}  // namespace

SccResult fb_trim(const Digraph& g, device::Device& dev, const FbOptions& opts) {
  const vid n = g.num_vertices();
  SccResult result;
  result.labels.assign(n, graph::kInvalidVid);
  if (n == 0) return result;

  const Digraph rev = g.reverse();
  const std::uint64_t launches_before = dev.stats().kernel_launches;

  std::vector<std::uint8_t> active(n, 1);
  std::vector<std::uint8_t> trim_mark(n, 0);
  std::vector<std::uint64_t> color(n, 0);
  Bfs fwd(n);
  Bfs bwd(n);
  std::atomic<std::uint64_t> edges_processed{0};
  std::unordered_map<std::uint64_t, vid> pivot_of;
  std::vector<vid> pivots;

  const std::uint64_t guard = static_cast<std::uint64_t>(n) + 2;
  vid remaining = n;
  std::uint64_t round = 0;

  while (remaining > 0) {
    if (++round > guard)
      throw std::logic_error("fb_trim: round guard exceeded (internal bug)");
    ++result.metrics.outer_iterations;

    // --- Trim phase (iterated Trim-1, optional Trim-2, §2). ---------------
    TrimView view{g, rev, color, active, result.labels};
    remaining -= device_trim(view, dev, opts, trim_mark, result.metrics);
    if (remaining == 0) break;

    // --- Pivot selection: the max active vertex ID per color [4]. The scan
    // ascends, so the last write per color wins. ----------------------------
    pivot_of.clear();
    for (vid v = 0; v < n; ++v)
      if (active[v]) pivot_of[color[v]] = v;
    pivots.clear();
    for (const auto& entry : pivot_of) pivots.push_back(entry.second);

    // --- Forward and backward color-confined BFS (the FB core, [8]). ------
    result.metrics.propagation_rounds +=
        fwd.run(g, dev, round, pivots, active, color, edges_processed);
    result.metrics.propagation_rounds +=
        bwd.run(rev, dev, round, pivots, active, color, edges_processed);

    // --- Intersection = SCC; recolor the remainder subgraphs. -------------
    std::atomic<std::uint64_t> found{0};
    dev.launch(dev.blocks_for(n), [&](const BlockContext& ctx) {
      std::uint64_t local_found = 0;
      ctx.for_each_chunk(n, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t v = lo; v < hi; ++v) {
          if (!active[v]) continue;
          const bool forward = fwd.visited(static_cast<vid>(v), round);
          const bool backward = bwd.visited(static_cast<vid>(v), round);
          if (forward && backward) {
            result.labels[v] = pivot_of.at(color[v]);
            active[v] = 0;
            ++local_found;
          } else {
            // New subgraph ID: hash(old color, branch). A hash collision
            // merely merges two classes, which FB tolerates (every SCC is
            // still contained in one class).
            const std::uint64_t branch = (forward ? 0 : 2) + (backward ? 0 : 1) + 1;
            std::uint64_t seed = color[v] * 5 + branch;
            color[v] = splitmix64(seed);
          }
        }
      });
      found.fetch_add(local_found, std::memory_order_relaxed);
    });
    const std::uint64_t found_total = found.load(std::memory_order_relaxed);
    if (found_total == 0)
      throw std::logic_error("fb_trim: round found no SCC (internal bug)");
    remaining -= static_cast<vid>(found_total);
  }

  result.metrics.edges_processed = edges_processed.load(std::memory_order_relaxed);
  result.metrics.kernel_launches = dev.stats().kernel_launches - launches_before;

  std::vector<vid> dense(result.labels.begin(), result.labels.end());
  result.num_components = graph::normalize_labels(dense);
  return result;
}

SccResult fb_trim(const Digraph& g, const FbOptions& opts) {
  return fb_trim(g, shared_device(), opts);
}

}  // namespace ecl::scc

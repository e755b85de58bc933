#ifndef ECL_CORE_FB_TRIM_HPP
#define ECL_CORE_FB_TRIM_HPP

// Forward-Backward with Trim and coloring: the algorithm family of the
// paper's GPU baseline (GPU-SCC, Li et al. [14], building on Barnat [4] and
// Hong [11]). Serves as the comparison point in Tables 5-7 / Figures 5-13.
//
// Each round: iterated Trim-1 (+ optional Trim-2/3), per-color pivot
// selection by maximum vertex ID (the deterministic analog of the
// winning-write race of [4]), simultaneous color-confined forward and
// backward BFS from all pivots, SCC = intersection, and 3-way recoloring of
// the remainder. BFS levels run as kernels on the virtual device.

#include "core/result.hpp"
#include "device/device.hpp"

namespace ecl::scc {

struct FbOptions {
  bool trim1 = true;
  bool trim2 = true;
  /// GPU-SCC does not use Trim-3 (that is iSpan's addition); off by default.
  bool trim3 = false;
  /// Merge-path BFS expansion (DESIGN.md §11): each level prefix-sums the
  /// frontier's out-degrees into a frontier sub-CSR and blocks own equal
  /// EDGE spans of it (one upper_bound per block), so a frontier hub no
  /// longer serializes its whole adjacency into one block. Off = classic
  /// block-cyclic distribution over frontier VERTICES.
  bool edge_balanced = true;

  // --- High-diameter options (DESIGN.md §15). These are FB-Trim's analogues
  // of ECL-SCC's chain chaser and sparse frontier; turning both off gives
  // the classic single-pivot FB-Trim. -----------------------------------
  /// Per-color pivot SETS instead of a single pivot: up to max_pivots
  /// pivots per color, drawn by seeded degree-weighted sampling without
  /// replacement, so one forward/backward sweep amortizes its BFS levels
  /// across k pivots. Vertices are claimed min-pivot-index-wins by a
  /// label-correcting tag CAS; a round then detects up to k SCCs per color
  /// (the index-0 pivot's SCC is always among them, preserving the
  /// progress guarantee). Off = the classic max-vertex-ID single pivot.
  bool multi_pivot = true;
  unsigned max_pivots = 4;  ///< clamped to 64 (tag encoding budget)
  /// Seed for the degree-weighted pivot sampling; fixed so every run of the
  /// same graph draws the same pivot sets.
  std::uint64_t pivot_seed = 0x5cc5eedULL;
  /// Trim-1 fused with the chain chaser (§15): a worker that trims v
  /// immediately probes v's neighbors and keeps trimming the trivial SCCs
  /// its removal exposed — bounded by trim_chain_cap per seed — instead of
  /// paying one mark/apply kernel pair per trim generation. Exactly-once is
  /// enforced by claiming each vertex with an atomic active-flag CAS.
  bool trim_chase = true;
  unsigned trim_chain_cap = 64;

  std::uint64_t max_rounds = 0;  ///< 0 = |V| + 2 safety guard
};

/// Runs FB-Trim on the given virtual device. Labels are the pivot vertex of
/// each component (trim-detected components: max member ID).
SccResult fb_trim(const Digraph& g, device::Device& dev, const FbOptions& opts = {});

/// Convenience overload on the shared device.
SccResult fb_trim(const Digraph& g, const FbOptions& opts = {});

}  // namespace ecl::scc

#endif  // ECL_CORE_FB_TRIM_HPP

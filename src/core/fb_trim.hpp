#ifndef ECL_CORE_FB_TRIM_HPP
#define ECL_CORE_FB_TRIM_HPP

// Forward-Backward with Trim and coloring: the algorithm family of the
// paper's GPU baseline (GPU-SCC, Li et al. [14], building on Barnat [4] and
// Hong [11]). Serves as the comparison point in Tables 5-7 / Figures 5-13.
//
// Each round: iterated Trim-1 (+ optional Trim-2), per-color pivot
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
};

/// Runs FB-Trim on the given virtual device. Labels are the pivot vertex of
/// each component (trim-detected components: max member ID).
SccResult fb_trim(const Digraph& g, device::Device& dev, const FbOptions& opts = {});

/// Convenience overload on the shared device.
SccResult fb_trim(const Digraph& g, const FbOptions& opts = {});

}  // namespace ecl::scc

#endif  // ECL_CORE_FB_TRIM_HPP

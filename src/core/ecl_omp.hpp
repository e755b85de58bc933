#ifndef ECL_CORE_ECL_OMP_HPP
#define ECL_CORE_ECL_OMP_HPP

// Multicore CPU implementation of ECL-SCC (extension, not in the paper).
//
// The max-ID-propagation algorithm is not GPU-specific: this is an
// independent OpenMP translation of Algorithm 1 with the worklist and
// path-compression optimizations, using relaxed atomic_ref stores for the
// benign signature races. Like the device solver it gates propagation on
// per-vertex epoch stamps (DESIGN.md §10), gives each thread one equal
// contiguous edge span (schedule(static), §11), and chases degree-one
// chains of the current edge list (§15). Besides demonstrating portability,
// it serves the test suite as a second, independently coded implementation
// of the paper's contribution.

#include <chrono>

#include "core/result.hpp"

namespace ecl::scc {

struct EclOmpOptions {
  unsigned num_threads = 0;  ///< OpenMP threads; 0 keeps the runtime default
  bool path_compression = true;
  bool remove_scc_edges = true;
  std::uint32_t chain_cap = 64;  ///< bound on one local chase
  /// Absolute wall-clock deadline, checked before each outer iteration and
  /// each Phase-2 round; the default (epoch) means none. Past it the run
  /// returns SccStatus::kDeadlineExceeded with partial labels (unlabeled
  /// vertices hold graph::kInvalidVid) and num_components 0.
  std::chrono::steady_clock::time_point deadline{};
};

/// Runs ECL-SCC on the CPU. Labels are the max vertex ID per component.
SccResult ecl_omp(const Digraph& g, const EclOmpOptions& opts = {});

}  // namespace ecl::scc

#endif  // ECL_CORE_ECL_OMP_HPP

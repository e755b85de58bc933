#ifndef ECL_BENCH_E2E_BENCH_STATS_HPP
#define ECL_BENCH_E2E_BENCH_STATS_HPP

// Sample statistics for the end-to-end benchmark. Medians come from
// support/timer.hpp; this adds the tail percentile and the quartiles.

#include <cstddef>
#include <vector>

namespace ecl::e2e {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer make the value a single outlier, not a statistic.
inline constexpr std::size_t kMinTailSamples = 10;

/// Smallest sample count for which percentile(samples, p) is defined.
std::size_t samples_needed(double p);

/// Nearest-rank percentile, p in (0, 1): the ceil(p * n)-th smallest
/// sample. Throws std::invalid_argument when fewer than kMinTailSamples
/// samples lie beyond it.
double percentile(std::vector<double> samples, double p);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(n=4)
/// ("exclusive" interpolation), so the bench and bench_diff.py agree.
/// Needs at least two samples.
Quartiles quartiles(std::vector<double> samples);

}  // namespace ecl::e2e

#endif  // ECL_BENCH_E2E_BENCH_STATS_HPP

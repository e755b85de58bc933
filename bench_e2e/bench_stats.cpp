#include "bench_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ecl::e2e {

namespace {

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// p * n from rounding up past an exact rank (0.9 * 100 must give 90).
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
}

}  // namespace

std::size_t samples_needed(double p) {
  // n - ceil(p * n) >= k  <=>  n >= k / (1 - p), up to rounding; search up
  // from that estimate so the answer matches percentile() exactly.
  auto n = static_cast<std::size_t>(static_cast<double>(kMinTailSamples) / (1.0 - p));
  while (n - nearest_rank(p, n) < kMinTailSamples) ++n;
  return n;
}

double percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 1.0)) throw std::invalid_argument("percentile: p must be in (0, 1)");
  const std::size_t n = samples.size();
  const std::size_t rank = nearest_rank(p, n);
  if (n == 0 || n - rank < kMinTailSamples)
    throw std::invalid_argument("percentile: p" + std::to_string(p * 100) + " of " +
                                std::to_string(n) + " samples has fewer than " +
                                std::to_string(kMinTailSamples) + " samples beyond it");
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Quartiles quartiles(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < 2) throw std::invalid_argument("quartiles: need at least two samples");
  std::sort(samples.begin(), samples.end());
  // statistics.quantiles(method="exclusive"): cut i of 4 sits at position
  // i * (n + 1) / 4 (1-based), linearly interpolated between neighbours
  // (extrapolated past the ends for tiny n, as Python does).
  const auto ln = static_cast<long long>(n);
  auto cut = [&](long long i) {
    const long long m = ln + 1;
    const long long j = std::clamp(i * m / 4, 1LL, ln - 1);
    const long long delta = i * m - j * 4;
    return (samples[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

}  // namespace ecl::e2e

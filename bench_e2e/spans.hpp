#ifndef ECL_BENCH_E2E_SPANS_HPP
#define ECL_BENCH_E2E_SPANS_HPP

// In-memory span recorder for the traced benchmark run. Spans are taken
// from the bench's own code around calls into each module's public
// functions (no tracing inside the library): name, start, end, parent and
// request id. They are exported at exit as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open offline.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"

namespace ecl::e2e {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;

  double duration_us() const { return end_us - start_us; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Microseconds since the recorder was created.
  double now_us() const;

  /// Opens a span starting now; returns its id for end().
  int begin(std::string name, std::uint64_t request, int parent = -1);
  void end(int id);

  /// Records a span whose bounds are already known, e.g. a phase duration
  /// the library reported, laid out inside its parent.
  int add(std::string name, double start_us, double end_us, std::uint64_t request,
          int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(int id) const { return spans_.at(static_cast<std::size_t>(id)); }

  /// Part of span `id`'s interval covered by its direct children (their
  /// union, clipped to the span), in microseconds.
  double child_covered_us(int id) const;

  /// Duration minus child coverage: the span's self time.
  double self_us(int id) const { return at(id).duration_us() - child_covered_us(id); }

  /// Self time summed per span name, in microseconds.
  std::map<std::string, double> self_time_by_name() const;

  /// {"traceEvents": [complete ("X") events], "displayTimeUnit": "ms"}.
  Json chrome_trace() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace ecl::e2e

#endif  // ECL_BENCH_E2E_SPANS_HPP

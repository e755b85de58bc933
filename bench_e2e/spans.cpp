#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace ecl::e2e {

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

int SpanRecorder::begin(std::string name, std::uint64_t request, int parent) {
  const double t = now_us();
  return add(std::move(name), t, t, request, parent);
}

void SpanRecorder::end(int id) { spans_.at(static_cast<std::size_t>(id)).end_us = now_us(); }

int SpanRecorder::add(std::string name, double start_us, double end_us, std::uint64_t request,
                      int parent) {
  spans_.push_back({std::move(name), start_us, end_us, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::child_covered_us(int id) const {
  const Span& span = at(id);
  std::vector<std::pair<double, double>> parts;
  for (const Span& s : spans_) {
    if (s.parent != id) continue;
    const double lo = std::max(s.start_us, span.start_us);
    const double hi = std::min(s.end_us, span.end_us);
    if (hi > lo) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  double covered = 0.0;
  double reach = span.start_us;
  for (const auto& [lo, hi] : parts) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return covered;
}

std::map<std::string, double> SpanRecorder::self_time_by_name() const {
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] += self_us(static_cast<int>(i));
  return self;
}

Json SpanRecorder::chrome_trace() const {
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json args = Json::object();
    args.set("span", static_cast<std::uint64_t>(i));
    args.set("parent", s.parent);
    args.set("request", s.request);
    Json event = Json::object();
    event.set("name", s.name);
    event.set("ph", "X");
    event.set("ts", s.start_us);
    event.set("dur", s.duration_us());
    event.set("pid", 1);
    event.set("tid", 1);
    event.set("args", std::move(args));
    events.push(std::move(event));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

}  // namespace ecl::e2e

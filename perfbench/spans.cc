#include "spans.h"

#include <chrono>
#include <cstdio>

#include "common/check.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Open(const char* name, int64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_[index].start_ns = NowNs();
  return index;
}

void SpanRecorder::Close(int index) {
  const int64_t now = NowNs();
  M2G_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
  spans_[index].end_ns = now;
}

std::map<std::string, SpanRecorder::LayerTotals> SpanRecorder::Totals()
    const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
  }
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double ms = (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    LayerTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return totals;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

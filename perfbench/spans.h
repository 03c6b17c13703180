// In-memory spans for the traced run. The benchmark records them around its
// own calls into each module's public functions; the program is unchanged.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  const char* name = nullptr;  // static storage
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  int64_t request = -1;
};

/// Records nested spans of one thread. Not thread-safe: give each client
/// thread its own recorder.
class SpanRecorder {
 public:
  /// Opens a span as a child of the innermost open span.
  int Open(const char* name, int64_t request);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  struct LayerTotals {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the time its child spans cover
  };
  /// Per span name. Children nest sequentially inside their parent, so a
  /// span's self time is its duration minus its children's durations.
  std::map<std::string, LayerTotals> Totals() const;

  /// One JSON object per span: name, start and end (ns), parent, request.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t request)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

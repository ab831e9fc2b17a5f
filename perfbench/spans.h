#ifndef GIGASCOPE_PERFBENCH_SPANS_H_
#define GIGASCOPE_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval around a call (or a burst of calls) into the
/// engine. `items` is what the span processed: packets for an inject burst,
/// rows for a subscription drain.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the recorder, -1 for a root
  uint32_t pass;   // one id per replay pass (0 outside the replay loop)
  uint64_t items;
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  uint64_t items = 0;
  uint64_t count = 0;
};

/// In-memory span log, written out once at exit. Single-threaded: every
/// span is recorded on the benchmark's driving thread, so children of one
/// parent never overlap and self time is duration minus children.
class SpanRecorder {
 public:
  /// Opens a span and returns its index (its end is set by Close).
  int32_t Open(const char* name, int32_t parent, uint32_t pass) {
    spans_.push_back(Span{name, NowNs(), 0, parent, pass, 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index, uint64_t items = 0) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    spans_[static_cast<size_t>(index)].items = items;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time, total time, items and span count per name, over spans that
  /// start at or after `from_ns`.
  std::map<std::string, SpanTotals> Totals(int64_t from_ns) const;

  /// Writes the spans as Chrome trace-event JSON (loadable in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // GIGASCOPE_PERFBENCH_SPANS_H_

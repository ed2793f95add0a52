// In-memory spans for the traced run.
//
// A Span marks one call from the benchmark into a layer of the program
// (name, start, end, thread, parent span on the same thread). Spans stay
// in memory and are written out once, at the end of the run. Tracing is
// off unless EnableSpans() was called, and a disabled Span costs one
// relaxed atomic load, so the end-to-end binary can share the workload
// code unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // static string
  double start = 0;       // steady clock, seconds
  double end = 0;
  uint32_t thread = 0;    // dense per-run thread index
  int64_t parent = -1;    // index into the same thread's spans, or -1
};

void EnableSpans();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;  // -1 when tracing is off
};

// All spans of all threads; spans of one thread keep their order and
// their parent indices refer to that thread's spans.
std::vector<std::vector<SpanRecord>> CollectSpans();

// Writes the spans as Chrome trace-event JSON ("X" events, microseconds).
bool WriteSpans(const std::string& path,
                const std::vector<std::vector<SpanRecord>>& spans);

// Per span name: summed duration and summed self time (duration minus
// the time covered by its direct children), in seconds, and the count.
struct SpanTotals {
  double total = 0;
  double self = 0;
  uint64_t count = 0;
};
std::vector<std::pair<std::string, SpanTotals>> SumSpans(
    const std::vector<std::vector<SpanRecord>>& spans);

}  // namespace perfbench

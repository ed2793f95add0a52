#include "spans.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "util.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};

struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;  // stack of open span indices
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by g_mu

// Buffers outlive their threads (campaign workers end before the spans
// are collected), so the registry owns them.
ThreadSpans& Local() {
  thread_local ThreadSpans* local = nullptr;
  if (!local) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_threads.back().get();
    local->thread = static_cast<uint32_t>(g_threads.size() - 1);
  }
  return *local;
}

}  // namespace

void EnableSpans() { g_enabled.store(true); }

Span::Span(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadSpans& t = Local();
  SpanRecord r;
  r.name = name;
  r.thread = t.thread;
  r.parent = t.open.empty() ? -1 : t.open.back();
  index_ = static_cast<int64_t>(t.spans.size());
  t.spans.push_back(r);
  t.open.push_back(index_);
  t.spans.back().start = Now();
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadSpans& t = Local();
  t.spans[static_cast<size_t>(index_)].end = Now();
  t.open.pop_back();
}

std::vector<std::vector<SpanRecord>> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<std::vector<SpanRecord>> out;
  for (const auto& t : g_threads) out.push_back(t->spans);
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::vector<SpanRecord>>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  double origin = -1;
  for (const auto& thread : spans)
    for (const SpanRecord& r : thread)
      if (origin < 0 || r.start < origin) origin = r.start;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const auto& thread : spans) {
    for (const SpanRecord& r : thread) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                   first ? "" : ",", r.name, r.thread,
                   (r.start - origin) * 1e6, (r.end - r.start) * 1e6);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, SpanTotals>> SumSpans(
    const std::vector<std::vector<SpanRecord>>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const auto& thread : spans) {
    std::vector<double> child_time(thread.size(), 0.0);
    for (const SpanRecord& r : thread)
      if (r.parent >= 0)
        child_time[static_cast<size_t>(r.parent)] += r.end - r.start;
    for (size_t i = 0; i < thread.size(); ++i) {
      SpanTotals& t = totals[thread[i].name];
      const double d = thread[i].end - thread[i].start;
      t.total += d;
      t.self += d - child_time[i];
      ++t.count;
    }
  }
  return {totals.begin(), totals.end()};
}

}  // namespace perfbench

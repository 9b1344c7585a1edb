#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_tid{1};
const auto g_origin = std::chrono::steady_clock::now();

/// One thread's spans. Buffers are owned by the global list so they
/// outlive the threads that filled them.
struct Buffer {
  uint32_t tid = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_mu

Buffer* ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->tid = g_next_tid.fetch_add(1);
    owned->spans.reserve(4096);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
  }
  return buffer;
}

thread_local std::vector<uint64_t> t_open;  // open span ids, innermost last

void JsonString(std::FILE* f, const char* s) {
  std::fputc('"', f);
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') std::fputc('\\', f);
    std::fputc(*s, f);
  }
  std::fputc('"', f);
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

uint64_t CurrentSpan() { return t_open.empty() ? 0 : t_open.back(); }

void Record(const char* name, double start_us, double end_us,
            uint64_t parent, uint64_t request) {
  if (!Enabled()) return;
  Buffer* b = ThreadBuffer();
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.request = request;
  s.tid = b->tid;
  b->spans.push_back(s);
}

Scope::Scope(const char* name, uint64_t request, uint64_t parent) {
  if (!Enabled()) return;
  active_ = true;
  span_.name = name;
  span_.request = request;
  span_.parent = parent == kInheritParent ? CurrentSpan() : parent;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  t_open.push_back(span_.id);
  span_.start_us = NowUs();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_us = NowUs();
  t_open.pop_back();
  Buffer* b = ThreadBuffer();
  span_.tid = b->tid;
  b->spans.push_back(span_);
}

std::vector<Span> Collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& b : g_buffers) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.id < b.id;
  });
  return all;
}

std::vector<const Span*> Named(const std::vector<Span>& spans,
                               const std::string& name, double since_us) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (s.start_us >= since_us && name == s.name) out.push_back(&s);
  }
  return out;
}

std::map<std::string, double> SelfTimeMs(const std::vector<Span>& spans) {
  // Children may run concurrently on other threads (pool tasks under one
  // batch span), so a span's covered time is the union of its children's
  // intervals, clipped to the span.
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[s.name] += (s.dur_us() - covered) / 1000.0;
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "{\"name\":");
    JsonString(f, s.name);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu,"
                 "\"request\":%llu",
                 s.tid, s.start_us, s.dur_us(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    if (s.sim_us >= 0) std::fprintf(f, ",\"sim_us\":%.6f", s.sim_us);
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\"otherData\":{\"self_ms\":{");
  const auto self = SelfTimeMs(spans);
  size_t k = 0;
  for (const auto& [name, ms] : self) {
    JsonString(f, name.c_str());
    std::fprintf(f, ":%.3f%s", ms, ++k < self.size() ? "," : "");
  }
  std::fprintf(f, "}}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace

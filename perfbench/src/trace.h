#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// Spans recorded by the benchmark around its calls into the library's
/// layers. Each span has a name (the layer and call, e.g.
/// "relstore.execute"), wall start and end, its parent span and the id of
/// the request it serves. Spans stay in per-thread memory and are written
/// out once, as Chrome trace-event JSON, when the run ends.
///
/// Recording is off unless `SetEnabled(true)`; a disabled `Scope` reads no
/// clock and records nothing.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not tied to one request
  uint32_t tid = 0;
  double sim_us = -1;    ///< simulated charge of the call, when it has one

  double dur_us() const { return end_us - start_us; }
};

void SetEnabled(bool on);
bool Enabled();

/// Microseconds since the process's trace origin.
double NowUs();

/// Innermost open span on this thread (0 = none).
uint64_t CurrentSpan();

/// Records a span whose ends were observed on different threads (such as
/// a pool task's wait from submit to start).
void Record(const char* name, double start_us, double end_us,
            uint64_t parent, uint64_t request);

/// RAII span. `parent` defaults to the thread's innermost open span.
class Scope {
 public:
  static constexpr uint64_t kInheritParent = ~0ULL;

  explicit Scope(const char* name, uint64_t request = 0,
                 uint64_t parent = kInheritParent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Renames the span before it closes (e.g. to the route a query took).
  void Rename(const char* name) { span_.name = name; }
  void SetSim(double sim_us) { span_.sim_us = sim_us; }
  uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
};

/// Every span recorded so far, by start time. Call while no span is open.
std::vector<Span> Collect();

/// Spans named `name` that started at or after `since_us`.
std::vector<const Span*> Named(const std::vector<Span>& spans,
                               const std::string& name, double since_us = 0);

/// Per span name, the summed self time in milliseconds: each span's
/// duration minus the part of it that its children's spans cover.
std::map<std::string, double> SelfTimeMs(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing), with the self-time table under "otherData".
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_

// Wall-clock tracing: nested host-time spans with Chrome trace-event export.
//
// All other telemetry in the tool is simulated-cycle attribution (where the
// simulated GPU spends cycles); the tracer records where the *host* spends
// wall-clock time — discovery -> graph setup / stage / graph teardown ->
// chase batch -> replica fork/reset / memo resolve / timed pass — so
// host-overhead-bound stages are visible.
//
// Contract: tracing is strictly out of band. Span sites never read a
// recorded timestamp back into any computation, so a report is byte-identical
// with tracing on or off, for every bench_threads x sweep_threads
// combination (tests/test_obs.cpp gates this).
//
// Fast path: when no trace is active (Tracer::start() not called, or
// stop()ped), every span site costs one relaxed atomic load — no clock read,
// no allocation (the zero-allocation test in test_obs.cpp gates this too).
//
// The export is the Chrome trace-event JSON format ("X" complete events),
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mt4g::obs {

/// One completed span. Timestamps are steady-clock nanoseconds (monotonic,
/// arbitrary epoch); tid is a dense 1-based per-process thread index assigned
/// on a thread's first recording.
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// True while a trace is being collected. One relaxed atomic load — the
/// whole cost of every span site in the disabled state.
bool tracing_enabled();

/// Steady-clock nanoseconds (the tracer's clock, exposed for callers that
/// time wall intervals consistently with the spans).
std::uint64_t monotonic_ns();

/// The process-wide span sink. Thread-safe; spans from any thread land in
/// one buffer tagged with their thread index.
class Tracer {
 public:
  static Tracer& instance();

  /// Clears the buffer, marks the trace epoch, and enables recording.
  void start();
  /// Disables recording; collected events stay readable until start().
  void stop();

  /// Appends one span; dropped when disabled or started before the current
  /// trace epoch (a guard that keeps half-open spans out of the export).
  void record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Snapshot of the collected spans (test hook).
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps
  /// relative to start()); open in Perfetto or chrome://tracing.
  std::string chrome_trace_json() const;

 private:
  Tracer() = default;

  mutable std::mutex mutex_;
  std::uint64_t trace_start_ns_ = 0;
  std::vector<TraceEvent> events_;
};

/// RAII span. The name is built only when tracing is enabled; the start
/// timestamp is taken after name construction so string building never
/// inflates the span.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  /// Name = prefix + detail, concatenated only when enabled — call sites
  /// with dynamic span names stay allocation-free on the disabled path.
  SpanGuard(const char* prefix, std::string_view detail);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  bool active_ = false;
  std::uint64_t start_ns_ = 0;
  std::string name_;
};

}  // namespace mt4g::obs

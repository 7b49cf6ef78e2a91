// trace.h — scoped spans with monotonic timestamps, a bounded ring-buffer
// collector and a Chrome trace_event JSON exporter.
//
// A Span is an RAII scope marker: construction stamps the start time,
// destruction records one complete event (name, start, duration, thread)
// into the collector.  Spans nest naturally — sweep point → transient →
// Newton iteration → assemble/solve — and viewers (chrome://tracing,
// Perfetto, https://ui.perfetto.dev) reconstruct the nesting from
// timestamp containment per thread, so no parent pointers are needed.
//
// Cost model:
//
//  * disabled (default): Span construction is one relaxed atomic load and
//    a branch; nothing else happens.  This is the state the <2%
//    bench_assembly telemetry budget is measured in (scripts/check.sh).
//  * enabled: two monotonic clock reads plus one write into the calling
//    thread's preallocated ring — no locks, no allocation, no contention
//    (each thread records into its own ring; a mutex is taken only the
//    first time a thread records after enable()/clear()).
//
// The collector is bounded: each thread's ring holds a fixed number of
// events and overwrites its oldest on overflow (dropped() reports how
// many were lost).  Span names must be string literals (or otherwise
// outlive the collector) — they are stored as const char*.
//
// Concurrency contract: record() (i.e. Span destruction) is safe from any
// number of threads concurrently.  enable(), clear(), events(),
// toChromeJson() and writeChromeJson() must not race with in-flight
// spans — quiesce first (join workers / ThreadPool::wait()), which every
// bench does naturally by enabling at startup and exporting at end of
// run.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace fefet::obs {

/// One completed span.
struct TraceEvent {
  const char* name = "";      ///< static string (span label)
  std::uint64_t startNs = 0;  ///< monotonicNanos() at span entry
  std::uint64_t durNs = 0;    ///< span duration
  int thread = 0;             ///< currentThreadId() of the recording thread
  std::uint64_t arg = 0;      ///< optional numeric payload (point index, …)
  bool hasArg = false;
};

class Trace {
 public:
  /// True while the collector accepts events.  Relaxed load — the only
  /// cost a disabled span pays.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Start collecting.  Discards previously collected events and sizes
  /// each thread's ring to `eventsPerThread` (rounded up to a power of
  /// two).  Also the way to resize: enable(n) while enabled re-arms with
  /// the new capacity.
  static void enable(std::size_t eventsPerThread = 1 << 13);

  /// Stop collecting; already-recorded events stay readable.
  static void disable();

  /// Drop all collected events (keeps the enabled state and capacity).
  static void clear();

  /// If the FEFET_TRACE environment variable names a file, enable() and
  /// return that path (the caller writes it at end of run); otherwise
  /// return empty and leave the collector alone.  Optional
  /// FEFET_TRACE_EVENTS overrides the per-thread ring capacity.
  static std::string enableFromEnv();

  /// Record one complete event (Span does this; callable directly for
  /// pre-measured intervals).  No-op when disabled.
  static void record(const char* name, std::uint64_t startNs,
                     std::uint64_t durNs, std::uint64_t arg = 0,
                     bool hasArg = false);

  /// All retained events, merged across threads, sorted by start time.
  /// See the concurrency contract above.
  static std::vector<TraceEvent> events();

  /// Events overwritten by ring overflow since the last enable()/clear().
  static std::uint64_t dropped();

  /// Chrome trace_event JSON ("X" complete events, ts/dur in µs, plus one
  /// "M" thread_name metadata record per named thread): load in
  /// chrome://tracing or https://ui.perfetto.dev.
  static std::string toChromeJson();

  /// Write toChromeJson() to `path`; false on I/O failure.
  static bool writeChromeJson(const std::string& path);

  /// Name the calling thread for trace viewers (e.g. "sweep[3]").  Names
  /// are keyed by currentThreadId() and survive enable()/clear() — they
  /// describe the thread, not the capture.  Safe to call any time, even
  /// while disabled.
  static void setCurrentThreadName(const std::string& name);

  /// Registered (thread id, name) pairs, sorted by id.
  static std::vector<std::pair<int, std::string>> threadNames();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII scope span.  Usage:
///   obs::Span span("newton.solve");
///   obs::Span span("sweep.point", pointIndex);
class Span {
 public:
  explicit Span(const char* name)
      : name_(name), active_(Trace::enabled()) {
    if (active_) start_ = monotonicNanos();
  }
  Span(const char* name, std::uint64_t arg)
      : name_(name), arg_(arg), active_(Trace::enabled()), hasArg_(true) {
    if (active_) start_ = monotonicNanos();
  }
  ~Span() {
    if (active_) {
      Trace::record(name_, start_, monotonicNanos() - start_, arg_, hasArg_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ = 0;
  std::uint64_t arg_ = 0;
  bool active_;
  bool hasArg_ = false;
};

}  // namespace fefet::obs

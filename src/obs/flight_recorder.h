// flight_recorder.h — the black-box flight recorder: a bounded,
// lock-free, per-thread ring of fixed-size POD event records plus an
// async-signal-safe crash dumper.
//
// Long runs (multi-minute Monte Carlo sweeps, hour-long hierarchical
// solves) can die in ways the end-of-run REPORT line never sees: a
// SIGSEGV in a device model, an abort() from a sanitizer, an external
// kill.  The flight recorder keeps the last N structured events per
// thread — solve start/converged/diverged, gmin escalation, dt cut,
// collapse/expand transitions, per-iteration Newton residuals — in
// preallocated rings, and on a fatal signal writes them (plus the most
// recent preformatted metrics snapshot) to the FEFET_BLACKBOX file using
// only async-signal-safe primitives: a pre-opened fd, preallocated
// buffers, write()/ftruncate()/lseek().
//
// Design rules that make the crash path safe:
//
//  * Every byte the handler writes exists before the crash.  enable()
//    opens the dump fd, allocates every ring up front (kMaxRings slots of
//    `eventsPerThread` records each) and preformats the header.  The
//    handler allocates nothing and takes no locks.
//  * record() is the only hot-path call: one relaxed enabled() load when
//    disabled; when enabled, a thread claims a ring slot once (atomic
//    fetch_add) and then writes records with plain stores + one relaxed
//    atomic head bump.  No mutex, no allocation (tests/test_obs audits
//    the Span/Counter paths the same way).
//  * The metrics snapshot in the dump is a *preformatted* JSON buffer,
//    refreshed from normal (non-signal) context by updateMetricsBuffer()
//    — sim::SweepEngine calls it about once a second as points complete,
//    and TelemetrySession::finish() once at the end — because
//    Metrics::snapshot() allocates and must never run inside a signal
//    handler.  Double-buffered so a refresh racing the crash still leaves
//    one intact copy.
//
// Explicit dumps: dumpNow() writes the same format from normal context
// (refreshing the metrics buffer first) — wired to NumericalError
// construction through common/error.h's numerical-error hook, rate
// limited so a gmin-continuation retry ladder does not rewrite the file
// hundreds of times.
//
// The dump format is binary (magic "FEFBBX1\0", little-endian, raw ring
// arrays); readBlackboxDump() parses it back — shared by the
// fefet-blackbox CLI and the crash tests, and forgiving of the torn
// records other threads may have been mid-write on when the process died.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fefet::obs {

/// Event taxonomy.  Values are stable on-disk codes — append only.
enum class FlightEvent : std::uint16_t {
  kNone = 0,
  kSolveStart = 1,        ///< a = sim time [s], b = 1 for DC
  kSolveConverged = 2,    ///< a = final residual norm, b = iterations
  kSolveDiverged = 3,     ///< a = final residual norm, b = iterations
  kSolveStagnated = 4,    ///< a = final residual norm, b = iterations
  kGminRescue = 5,        ///< a = gmin used, b = escalation levels
  kNewtonResidual = 6,    ///< a = residual norm, b = iteration index
  kGminEscalation = 7,    ///< a = new gmin, b = escalation level
  kDtCut = 8,             ///< a = new dt [s], b = cumulative cuts this run
  kCollapse = 9,          ///< a = collapsed ratio, b = blocks collapsed
  kExpand = 10,           ///< a = collapsed ratio, b = blocks expanded
  // 11-14 and 16-17 were retired; dumps from older builds print them as
  // "?".  Do not reuse them.
  kNumericalError = 15,   ///< a = final residual norm (0 if unknown)
};

/// Printable name of an event code ("?" for unknown codes, so the CLI
/// survives dumps from newer builds).
const char* flightEventName(FlightEvent event);

/// One ring record.  Fixed-size POD — the crash handler writes these raw.
struct FlightRecord {
  std::uint64_t timeNs = 0;   ///< monotonicNanos() at record time
  std::uint16_t type = 0;     ///< FlightEvent code
  std::uint16_t thread = 0;   ///< currentThreadId() of the recording thread
  std::uint32_t seq = 0;      ///< per-thread sequence (tie-break + torn check)
  double a = 0.0;             ///< payload (residual, dt, gmin, ratio, …)
  std::uint64_t b = 0;        ///< payload (iteration, level, block count, …)
};
static_assert(sizeof(FlightRecord) == 32, "dump format is raw records");

class FlightRecorder {
 public:
  /// Ring slots preallocated at enable(); threads beyond this record
  /// nothing (counted in lostThreads).
  static constexpr int kMaxRings = 64;

  /// True while recording.  One relaxed load — the only cost a disabled
  /// record() pays.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Open `path` for dumping, allocate the rings (eventsPerThread rounded
  /// up to a power of two) and install the SIGSEGV/SIGABRT/SIGBUS crash
  /// handlers.  Re-enabling with a new path re-opens the fd and resets
  /// the rings; like Trace::enable(), re-enable must be quiesced (no
  /// in-flight record() calls).  Throws Error when the file cannot be
  /// opened.
  static void enable(const std::string& path,
                     std::size_t eventsPerThread = 2048);

  /// FEFET_BLACKBOX=path enables (FEFET_BLACKBOX_EVENTS overrides the
  /// per-thread ring capacity) and returns the path; otherwise returns
  /// empty and changes nothing.
  static std::string enableFromEnv();

  /// Stop recording (rings and handlers stay; a later crash still dumps
  /// what was captured).
  static void disable();

  /// Append one event to the calling thread's ring.  No-op when disabled.
  static void record(FlightEvent type, double a = 0.0, std::uint64_t b = 0);

  /// Refresh the preformatted metrics-snapshot buffer embedded in dumps.
  /// NOT async-signal-safe — call from normal context (sim::SweepEngine
  /// does, at most once a second while points complete).
  static void updateMetricsBuffer();

  /// Write a dump right now from normal context: refreshes the metrics
  /// buffer, then runs the same signal-safe writer the crash handler
  /// uses.  `reason` is truncated to the header's 96-byte field.  Returns
  /// false when the recorder was never enabled.
  static bool dumpNow(const char* reason);

 private:
  static std::atomic<bool> enabled_;
};

/// A parsed dump.
struct BlackboxDump {
  std::uint32_t version = 0;
  int signal = 0;              ///< fatal signal, 0 for explicit dumps
  std::uint64_t dumpTimeNs = 0;
  std::string reason;          ///< header reason field ("" when crash-only)
  int rings = 0;
  std::uint64_t dropped = 0;   ///< ring-wrap overwrites across rings
  std::uint64_t tornRecords = 0;  ///< records discarded by the torn check
  std::vector<FlightRecord> records;  ///< merged, sorted by (timeNs, seq)
  std::string metricsJson;     ///< preformatted snapshot ("" when absent)
};

/// Parse a black-box file.  Returns false with `*error` set on malformed
/// input; torn trailing records inside a ring are skipped, not fatal.
bool readBlackboxDump(const std::string& path, BlackboxDump* out,
                      std::string* error);

}  // namespace fefet::obs

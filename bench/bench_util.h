// bench_util.h — shared helpers for the figure/table reproduction benches:
// banner printing, downsampled waveform dumps, paper-vs-measured rows and
// the resilient-execution command line shared by the long-sweep benches
// (--threads / --journal / --resume / --point-delay-ms).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/sweep_engine.h"
#include "spice/waveform.h"

namespace fefet::bench {

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Wall-clock stopwatch for the sweep speedup measurements.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Resilient-execution flags shared by the long-sweep benches.
struct SweepCli {
  int threads = 0;                ///< --threads=N (0 = defaultThreadCount)
  std::string journalPath;        ///< --journal=PATH (crash-safe checkpoint)
  bool resume = false;            ///< --resume (replay a previous journal)
  // Test hook for the kill/resume smoke test:
  double pointDelaySeconds = 0.0; ///< --point-delay-ms=M: pad every point

  /// Any resilience feature requested (switches benches to a single
  /// journaled run under kCollectAndContinue instead of the serial-vs-
  /// parallel identity pass).
  bool resilient() const {
    return !journalPath.empty() || pointDelaySeconds > 0.0;
  }

  /// Sleep for --point-delay-ms.  Every resilient point function calls it
  /// first, so a signal sent once a journal holds a point lands mid-sweep.
  void padPoint() const {
    if (pointDelaySeconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(pointDelaySeconds));
    }
  }
};

inline SweepCli parseSweepCli(int argc, char** argv) {
  SweepCli cli;
  const auto valueOf = [](const char* arg, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = valueOf(arg, "--threads=")) {
      cli.threads = std::atoi(v);
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      cli.threads = std::atoi(argv[++i]);
    } else if (const char* v = valueOf(arg, "--journal=")) {
      cli.journalPath = v;
    } else if (std::strcmp(arg, "--resume") == 0) {
      cli.resume = true;
    } else if (const char* v = valueOf(arg, "--point-delay-ms=")) {
      cli.pointDelaySeconds = std::atof(v) * 1e-3;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--threads=N] "
                   "[--journal=PATH] [--resume] [--point-delay-ms=M]\n",
                   arg, argv[0]);
      std::exit(2);
    }
  }
  if (cli.resume && cli.journalPath.empty()) {
    std::fprintf(stderr, "--resume requires --journal=PATH\n");
    std::exit(2);
  }
  return cli;
}

/// Wire the CLI into sweep options: thread count, journal, and
/// CollectAndContinue so a resilient run reports partial results instead
/// of throwing.  `configDigest` must cover everything that shapes the
/// per-point work (see SweepJournalOptions::configDigest).
inline void applySweepCli(const SweepCli& cli, std::uint64_t configDigest,
                          sim::SweepOptions* options) {
  if (cli.threads > 0) options->threads = cli.threads;
  options->journal.path = cli.journalPath;
  options->journal.resume = cli.resume;
  options->journal.configDigest = configDigest;
  if (cli.resilient()) {
    options->failurePolicy = sim::SweepFailurePolicy::kCollectAndContinue;
  }
}

/// One machine-readable perf record per sweep-engine migration: wall clock
/// for the same point set at 1 thread and at `threads` threads, whether
/// the runs produced identical per-point results, the outcome tally of the
/// (final) run and a CRC32 over the encoded results.  "ok" counts points
/// with a valid result (simulated or journal-replayed); the smoke tests
/// compare everything except the wall-clock fields and "from_journal".
inline void printSweepPerf(const std::string& benchName, int threads,
                           double serialSeconds, double parallelSeconds,
                           bool identical, const sim::SweepSummary& summary,
                           std::uint32_t resultsCrc) {
  const double speedup =
      parallelSeconds > 0.0 ? serialSeconds / parallelSeconds : 0.0;
  std::printf(
      "PERF {\"bench\":\"%s\",\"threads\":%d,\"serial_s\":%.3f,"
      "\"parallel_s\":%.3f,\"speedup\":%.2f,\"identical\":%s,"
      "\"ok\":%zu,\"failed\":%zu,\"from_journal\":%zu,"
      "\"results_crc\":\"%08x\"}\n",
      benchName.c_str(), threads, serialSeconds, parallelSeconds, speedup,
      identical ? "true" : "false", summary.completed(), summary.failed,
      summary.fromJournal, resultsCrc);
}

/// CRC over per-point encoded results: the cheap bit-identity fingerprint
/// compared between a fresh run and a kill+resume run.
inline std::uint32_t resultsCrc32(const std::vector<std::string>& payloads) {
  std::string all;
  for (const auto& p : payloads) {
    all += p;
    all += '\n';
  }
  return sim::crc32(all);
}

/// End-of-run telemetry for a bench: arms the trace collector from
/// FEFET_TRACE and the flight recorder from FEFET_BLACKBOX at
/// construction, and at finish() emits the unified run report
/// (obs/report.h) as one "REPORT {...}" stdout line plus the optional
/// file outputs:
///
///   FEFET_TRACE=out.json    — Chrome trace_event JSON (chrome://tracing,
///                             https://ui.perfetto.dev)
///   FEFET_METRICS=out.json  — the report JSON (metrics snapshot + bench
///                             fields); FEFET_METRICS=0 still means
///                             "disable metrics" (obs/metrics.h)
///   FEFET_BLACKBOX=out.bin  — flight-recorder crash dumps (read with
///                             `fefet-blackbox out.bin`)
///
/// finish() must run after all sweeps complete (ThreadPool joined) — the
/// trace exporter's quiescence contract.  The existing PERF lines are
/// unchanged; REPORT is additive.
class TelemetrySession {
 public:
  explicit TelemetrySession(std::string benchName)
      : report_(std::move(benchName)), tracePath_(obs::Trace::enableFromEnv()) {
    obs::FlightRecorder::enableFromEnv();
  }

  obs::RunReport& report() { return report_; }

  /// Record a sweep outcome tally in the report (shared shape across
  /// benches so the failure story is machine-comparable).
  void addSummary(const sim::SweepSummary& summary) {
    report_.addCount("ok", summary.completed());
    report_.addCount("failed", summary.failed);
    report_.addCount("from_journal", summary.fromJournal);
  }

  void finish() {
    const obs::MetricsSnapshot snapshot = obs::Metrics::snapshot();
    std::printf("REPORT %s\n", report_.toJson(snapshot).c_str());
    if (obs::FlightRecorder::enabled()) {
      // Final refresh: a post-exit crash dump (or explicit dump in
      // teardown) carries the end-of-run snapshot.
      obs::FlightRecorder::updateMetricsBuffer();
    }
    if (const char* path = std::getenv("FEFET_METRICS")) {
      if (std::strcmp(path, "0") != 0 && std::strcmp(path, "1") != 0) {
        if (!report_.writeJson(path, snapshot)) {
          std::fprintf(stderr, "telemetry: cannot write metrics JSON to %s\n",
                       path);
        }
      }
    }
    if (!tracePath_.empty()) {
      if (!obs::Trace::writeChromeJson(tracePath_)) {
        std::fprintf(stderr, "telemetry: cannot write trace JSON to %s\n",
                     tracePath_.c_str());
      }
    }
  }

 private:
  obs::RunReport report_;
  std::string tracePath_;
};

/// One paper-vs-measured comparison row.
class Comparison {
 public:
  Comparison() : table_({"metric", "paper", "measured", "unit"}) {}

  void add(const std::string& metric, double paper, double measured,
           const std::string& unit, int digits = 3) {
    table_.addRow({metric, strings::generalFormat(paper, digits),
                   strings::generalFormat(measured, digits), unit});
  }
  void addText(const std::string& metric, const std::string& paper,
               const std::string& measured, const std::string& unit) {
    table_.addRow({metric, paper, measured, unit});
  }
  void print() const { table_.print(std::cout); }

 private:
  TextTable table_;
};

/// Print every Nth sample of selected waveform columns as CSV.
inline void dumpWaveform(const spice::Waveform& waveform,
                         const std::vector<std::string>& columns,
                         std::size_t maxRows = 40) {
  const auto t = waveform.time();
  if (t.empty()) return;
  std::cout << "time_ns";
  for (const auto& c : columns) std::cout << ',' << c;
  std::cout << '\n';
  const std::size_t stride = t.size() > maxRows ? t.size() / maxRows : 1;
  for (std::size_t i = 0; i < t.size(); i += stride) {
    std::printf("%.4f", t[i] * 1e9);
    for (const auto& c : columns) {
      std::printf(",%.6g", waveform.column(c)[i]);
    }
    std::printf("\n");
  }
}

}  // namespace fefet::bench

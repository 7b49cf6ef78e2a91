// exporter.h — embedded HTTP endpoint for live scraping: /metrics in
// Prometheus text exposition format, /statusz process introspection JSON,
// /healthz liveness.
//
// The REPORT line and FEFET_METRICS file only surface metrics at clean
// process exit.  Long runs — a multi-minute Monte Carlo sweep, an
// hour-long hierarchical solve — need a live plane: a wedged worker or a
// slowly-degrading endurance run is invisible until it dies.  The
// exporter is a deliberately tiny TCP server: one background thread, a
// poll() loop over the listen socket plus a self-pipe for shutdown wake,
// blocking per-connection handling (scrapes are a few KiB; Prometheus
// scrapes sequentially).  No third-party dependencies.
//
// Endpoints:
//
//   /metrics  — every registered counter/gauge/histogram from
//               Metrics::snapshot(), names sanitized fefet.a.b →
//               fefet_a_b.  Histogram buckets are converted from the
//               registry's per-bucket counts to Prometheus cumulative
//               `le` series with a trailing +Inf bucket, plus _sum/_count.
//   /statusz  — JSON: build info, uptime, pid, trace-collector occupancy,
//               flight-recorder state and the last REPORT line any
//               TelemetrySession printed.
//   /healthz  — "ok", for load-balancer liveness probes.
//
// Lifecycle: Exporter::startFromEnv() reads FEFET_EXPORT_PORT (0 = pick
// an ephemeral port) and starts the singleton; port() reports the bound
// port so harnesses using port 0 can find it.  stop() joins the thread
// and closes the socket; the destructor stops too.  While running, the
// poll loop also refreshes the flight recorder's preformatted metrics
// buffer about once a second, so a crash dump carries a near-live
// snapshot even when nobody calls dumpNow().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace fefet::obs {

class Exporter {
 public:
  struct Options {
    int port = 0;                         ///< 0 = ephemeral, kernel picks
    std::string bindAddress = "127.0.0.1";  ///< loopback by default
  };

  Exporter() = default;
  ~Exporter();

  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// Bind, listen and start the serving thread.  Throws Error when the
  /// port cannot be bound (already-running instance keeps running).
  void start(const Options& options);

  /// Stop serving: wake the poll loop, join the thread, close sockets.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (the kernel's pick when Options.port was 0); 0 before
  /// start().
  int port() const { return port_; }

  /// Process-wide instance control: if FEFET_EXPORT_PORT is set, start
  /// the shared exporter on that port (0 = ephemeral) and return it;
  /// otherwise return nullptr.  The instance is created once and reused —
  /// a second call returns the already-running exporter.  Throws on bind
  /// failure (a misconfigured port should be loud, not silent).
  static Exporter* startFromEnv();

  /// The shared instance startFromEnv() manages (nullptr until started).
  static Exporter* instance();

  /// Record the most recent REPORT line (TelemetrySession::finish() calls
  /// this); echoed verbatim in /statusz as "last_report".  Pass the bare
  /// JSON object, not the "REPORT " prefix.
  static void setLastReport(const std::string& reportJson);

  // -- Pure rendering, exposed for tests ------------------------------

  /// Prometheus text exposition of a snapshot (# TYPE lines, sanitized
  /// names, cumulative le buckets).
  static std::string prometheusText(const MetricsSnapshot& snapshot);

  /// Full HTTP response (status line + headers + body) for a request
  /// target path.  Unknown paths get 404.
  static std::string handleRequest(const std::string& target);

 private:
  void serveLoop();

  std::atomic<bool> running_{false};
  std::thread thread_;
  int listenFd_ = -1;
  int wakeFds_[2] = {-1, -1};  ///< self-pipe: stop() writes, poll() wakes
  int port_ = 0;
};

}  // namespace fefet::obs

#include "obs/exporter.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/clock.h"
#include "common/error.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace fefet::obs {
namespace {

/// /statusz side state shared across instances (the last REPORT line).
/// Function-local static + mutex: writers are bench main threads, readers
/// the serving thread.
struct StatusState {
  std::mutex mutex;
  std::string lastReport;
};

StatusState& statusState() {
  static StatusState* s = new StatusState();
  return *s;
}

std::mutex& instanceMutex() {
  static std::mutex m;
  return m;
}

Exporter*& instanceSlot() {
  static Exporter* instance = nullptr;
  return instance;
}

/// fefet.newton.iterations → fefet_newton_iterations.  Prometheus metric
/// names admit [a-zA-Z0-9_:]; everything else becomes '_'.
std::string sanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    if (!ok) ch = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Prometheus label/sample float rendering: %.17g round-trips doubles and
/// the exposition format accepts it.
std::string promNumber(double value) { return strings::jsonNumber(value); }

bool writeAllFd(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // client went away mid-response; nothing to do
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string httpResponse(int code, const char* codeText,
                         const std::string& contentType,
                         const std::string& body) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                code, codeText, contentType.c_str(), body.size());
  return head + body;
}

std::uint64_t processStartNs() {
  static const std::uint64_t start = monotonicNanos();
  return start;
}

std::string statuszJson() {
  std::string out = "{";
  out += "\"build\":{\"compiler\":\"" + strings::jsonEscape(__VERSION__) +
         "\",\"timestamp\":\"" __DATE__ " " __TIME__ "\"}";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"uptime_s\":%.3f",
                static_cast<int>(::getpid()),
                static_cast<double>(monotonicNanos() - processStartNs()) /
                    1e9);
  out += buf;

  Trace::Stats traceStats = Trace::stats();
  std::snprintf(buf, sizeof(buf),
                ",\"trace\":{\"enabled\":%s,\"threads\":%d,"
                "\"recorded\":%llu,\"dropped\":%llu}",
                Trace::enabled() ? "true" : "false", traceStats.rings,
                static_cast<unsigned long long>(traceStats.recorded),
                static_cast<unsigned long long>(traceStats.dropped));
  out += buf;

  std::snprintf(buf, sizeof(buf),
                ",\"flight_recorder\":{\"enabled\":%s,\"rings\":%d,"
                "\"recorded\":%llu,\"dropped\":%llu}",
                FlightRecorder::enabled() ? "true" : "false",
                FlightRecorder::ringCount(),
                static_cast<unsigned long long>(
                    FlightRecorder::recordCount()),
                static_cast<unsigned long long>(
                    FlightRecorder::droppedCount()));
  out += buf;

  out += ",\"thread_names\":{";
  bool first = true;
  for (const auto& [tid, name] : Trace::threadNames()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += std::to_string(tid);
    out += "\":\"";
    out += strings::jsonEscape(name);
    out += '"';
  }
  out += "}";

  StatusState& s = statusState();
  std::string lastReport;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    lastReport = s.lastReport;
  }
  // The REPORT line is already JSON — embed raw, not escaped.
  out += ",\"last_report\":" + (lastReport.empty() ? "null" : lastReport);
  out += "}";
  return out;
}

}  // namespace

Exporter::~Exporter() { stop(); }

void Exporter::start(const Options& options) {
  FEFET_REQUIRE(!running(), "exporter already running");

  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    throw Error(std::string("exporter: socket(): ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bindAddress.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("exporter: bad bind address '" + options.bindAddress + "'");
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd_, 16) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("exporter: cannot listen on " + options.bindAddress + ":" +
                std::to_string(options.port) + ": " + what);
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  if (::pipe2(wakeFds_, O_CLOEXEC) < 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error(std::string("exporter: pipe2(): ") + std::strerror(errno));
  }

  (void)processStartNs();  // pin uptime zero no later than exporter start
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serveLoop(); });
}

void Exporter::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  char byte = 1;
  (void)!::write(wakeFds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  for (int* fd : {&listenFd_, &wakeFds_[0], &wakeFds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  port_ = 0;
}

void Exporter::serveLoop() {
  Trace::setCurrentThreadName("obs-exporter");
  std::uint64_t lastMetricsRefreshNs = 0;
  while (running()) {
    pollfd fds[2];
    fds[0] = {listenFd_, POLLIN, 0};
    fds[1] = {wakeFds_[0], POLLIN, 0};
    int ready = ::poll(fds, 2, 500);
    if (!running()) break;

    // Keep the flight recorder's embedded snapshot fresh (~1 s) so a
    // crash dump reflects the live process, not enable() time.
    std::uint64_t now = monotonicNanos();
    if (FlightRecorder::enabled() &&
        now - lastMetricsRefreshNs > 1'000'000'000ULL) {
      FlightRecorder::updateMetricsBuffer();
      lastMetricsRefreshNs = now;
    }

    if (ready <= 0 || (fds[0].revents & POLLIN) == 0) continue;
    int client = ::accept(listenFd_, nullptr, nullptr);
    if (client < 0) continue;

    // Scrapes are one short GET; a 2 s receive budget keeps a stuck
    // client from wedging the (single-threaded) serve loop forever.
    timeval tv{2, 0};
    (void)::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    char request[2048];
    ssize_t n = ::recv(client, request, sizeof(request) - 1, 0);
    if (n > 0) {
      request[n] = '\0';
      // "GET /metrics HTTP/1.1" — method, then target up to the next
      // space.  Anything malformed falls through to 404.
      std::string target;
      if (std::strncmp(request, "GET ", 4) == 0) {
        const char* begin = request + 4;
        const char* end = std::strchr(begin, ' ');
        if (end != nullptr) target.assign(begin, end);
        // Strip a query string: /metrics?name=... scrapes all.
        if (std::size_t q = target.find('?'); q != std::string::npos) {
          target.resize(q);
        }
      }
      const std::string response = handleRequest(target);
      (void)writeAllFd(client, response.data(), response.size());
    }
    ::close(client);
  }
}

std::string Exporter::handleRequest(const std::string& target) {
  if (target == "/metrics") {
    return httpResponse(200, "OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        prometheusText(Metrics::snapshot()));
  }
  if (target == "/statusz") {
    return httpResponse(200, "OK", "application/json", statuszJson());
  }
  if (target == "/healthz" || target == "/") {
    return httpResponse(200, "OK", "text/plain", "ok\n");
  }
  return httpResponse(404, "Not Found", "text/plain",
                      "not found; try /metrics /statusz /healthz\n");
}

std::string Exporter::prometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  char buf[160];

  for (const auto& c : snapshot.counters) {
    const std::string name = sanitizeMetricName(c.name);
    out += "# TYPE " + name + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value));
    out += buf;
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = sanitizeMetricName(g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + promNumber(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = sanitizeMetricName(h.name);
    out += "# TYPE " + name + " histogram\n";
    // Registry buckets are per-bucket counts ("first matching le edge",
    // overflow last); Prometheus wants cumulative counts per le bound.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      out += name + "_bucket{le=\"" + promNumber(h.edges[i]) + "\"} ";
      std::snprintf(buf, sizeof(buf), "%llu\n",
                    static_cast<unsigned long long>(cumulative));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %llu\n",
                  name.c_str(), static_cast<unsigned long long>(h.count));
    out += buf;
    out += name + "_sum " + promNumber(h.sum) + "\n";
    std::snprintf(buf, sizeof(buf), "%s_count %llu\n", name.c_str(),
                  static_cast<unsigned long long>(h.count));
    out += buf;
  }
  return out;
}

Exporter* Exporter::startFromEnv() {
  const char* raw = std::getenv("FEFET_EXPORT_PORT");
  if (raw == nullptr || raw[0] == '\0') return nullptr;
  char* end = nullptr;
  long port = std::strtol(raw, &end, 10);
  if (end == raw || port < 0 || port > 65535) {
    throw Error(std::string("exporter: bad FEFET_EXPORT_PORT '") + raw +
                "'");
  }
  const std::lock_guard<std::mutex> lock(instanceMutex());
  Exporter*& instance = instanceSlot();
  if (instance == nullptr) {
    // Leaked: benches and daemons scrape until the very end of the
    // process; stop() still runs if callers invoke it explicitly.
    instance = new Exporter();
  }
  if (!instance->running()) {
    Options options;
    options.port = static_cast<int>(port);
    instance->start(options);
  }
  return instance;
}

Exporter* Exporter::instance() {
  const std::lock_guard<std::mutex> lock(instanceMutex());
  return instanceSlot();
}

void Exporter::setLastReport(const std::string& reportJson) {
  StatusState& s = statusState();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.lastReport = reportJson;
}

}  // namespace fefet::obs

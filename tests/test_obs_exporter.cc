// Exporter audit (obs/exporter.h):
//
//  * prometheusText() emits valid exposition: sanitized names, # TYPE
//    declarations, cumulative le buckets ending in +Inf == _count;
//  * the embedded server answers /metrics, /statusz and /healthz over a
//    real socket, 404s everything else, and /statusz is valid JSON that
//    echoes the last REPORT line and the build info;
//  * concurrent scrapes during counter/histogram churn are data-race
//    free (this suite runs under TSan in scripts/check.sh);
//  * stop() is idempotent, races cleanly with in-flight clients, and the
//    port is immediately reusable (SO_REUSEADDR) by a fresh instance.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"

namespace fefet::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 GET client (blocking, Connection: close).

std::string httpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return {};
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string bodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

// ---------------------------------------------------------------------------
// Prometheus text-exposition validator: every line is a comment or a
// `name[{labels}] value` sample with a legal metric name and parseable
// float; histogram bucket series must be cumulative and close with
// +Inf == the family's _count sample.

bool validMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (name[0] >= '0' && name[0] <= '9') return false;
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    if (!ok) return false;
  }
  return true;
}

::testing::AssertionResult validExposition(const std::string& text) {
  std::size_t lineStart = 0;
  std::string bucketFamily;   // histogram currently being walked
  double lastCumulative = 0;  // its running le-bucket count
  double infBucket = -1;      // value of its +Inf bucket
  while (lineStart < text.size()) {
    std::size_t lineEnd = text.find('\n', lineStart);
    if (lineEnd == std::string::npos) {
      return ::testing::AssertionFailure() << "missing trailing newline";
    }
    const std::string line = text.substr(lineStart, lineEnd - lineStart);
    lineStart = lineEnd + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) != 0 && line.rfind("# HELP ", 0) != 0) {
        return ::testing::AssertionFailure() << "bad comment: " << line;
      }
      continue;
    }
    std::string name = line;
    std::string labels;
    const std::size_t brace = line.find('{');
    std::size_t valueAt;
    if (brace != std::string::npos) {
      const std::size_t close = line.find('}', brace);
      if (close == std::string::npos || close + 1 >= line.size() ||
          line[close + 1] != ' ') {
        return ::testing::AssertionFailure() << "bad labels: " << line;
      }
      name = line.substr(0, brace);
      labels = line.substr(brace + 1, close - brace - 1);
      valueAt = close + 2;
    } else {
      const std::size_t space = line.find(' ');
      if (space == std::string::npos) {
        return ::testing::AssertionFailure() << "no value: " << line;
      }
      name = line.substr(0, space);
      valueAt = space + 1;
    }
    if (!validMetricName(name)) {
      return ::testing::AssertionFailure() << "bad metric name: " << line;
    }
    const std::string valueText = line.substr(valueAt);
    char* end = nullptr;
    const double value = std::strtod(valueText.c_str(), &end);
    if (end == valueText.c_str() || *end != '\0') {
      return ::testing::AssertionFailure() << "bad value: " << line;
    }

    // Histogram shape: _bucket samples are cumulative, end at +Inf, and
    // the +Inf count equals the family's _count sample.
    const bool isBucket = name.size() > 7 &&
                          name.compare(name.size() - 7, 7, "_bucket") == 0;
    if (isBucket) {
      const std::string family = name.substr(0, name.size() - 7);
      if (family != bucketFamily) {
        bucketFamily = family;
        lastCumulative = 0;
        infBucket = -1;
      }
      if (value < lastCumulative) {
        return ::testing::AssertionFailure()
               << "non-cumulative buckets: " << line;
      }
      lastCumulative = value;
      if (labels.find("le=\"+Inf\"") != std::string::npos) infBucket = value;
    } else if (!bucketFamily.empty() && name == bucketFamily + "_count") {
      if (infBucket != value) {
        return ::testing::AssertionFailure()
               << bucketFamily << ": +Inf bucket " << infBucket
               << " != _count " << value;
      }
      bucketFamily.clear();
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Pure rendering

TEST(PrometheusText, SanitizesNamesAndRendersAllKinds) {
  MetricsSnapshot snap;
  snap.counters.push_back({"fefet.newton.outcome.converged", 3});
  snap.counters.push_back({"9starts.with-digit", 1});
  snap.gauges.push_back({"fefet.sweep.queue_depth.worker0", 2.5});
  MetricsSnapshot::HistogramValue h;
  h.name = "fefet.newton.residual_decay_rate";
  h.edges = {1.0, 2.0};
  h.buckets = {2, 3, 4};  // per-bucket counts, overflow last
  h.count = 9;
  h.sum = 12.5;
  snap.histograms.push_back(h);

  const std::string text = Exporter::prometheusText(snap);
  EXPECT_TRUE(validExposition(text)) << text;
  EXPECT_NE(text.find("# TYPE fefet_newton_outcome_converged counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("fefet_newton_outcome_converged 3\n"),
            std::string::npos);
  // Leading digit gets a '_' prefix; '.' and '-' become '_'.
  EXPECT_NE(text.find("_9starts_with_digit 1\n"), std::string::npos);
  EXPECT_NE(text.find("fefet_sweep_queue_depth_worker0 2.5\n"),
            std::string::npos);
  // Per-bucket 2,3 -> cumulative 2,5; +Inf carries the total count.
  EXPECT_NE(
      text.find("fefet_newton_residual_decay_rate_bucket{le=\"1\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("fefet_newton_residual_decay_rate_bucket{le=\"2\"} 5\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("fefet_newton_residual_decay_rate_bucket{le=\"+Inf\"} 9\n"),
      std::string::npos);
  EXPECT_NE(text.find("fefet_newton_residual_decay_rate_sum 12.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("fefet_newton_residual_decay_rate_count 9\n"),
            std::string::npos);
}

TEST(PrometheusText, LiveRegistrySnapshotValidates) {
  Metrics::counter("test.exporter.live_counter").add(7);
  Metrics::gauge("test.exporter.live_gauge").set(-0.25);
  static constexpr double kEdges[] = {1e-3, 1e-2, 1e-1};
  Histogram& h = Metrics::histogram("test.exporter.live_hist", kEdges);
  h.observe(5e-3);
  h.observe(0.5);
  const std::string text = Exporter::prometheusText(Metrics::snapshot());
  EXPECT_TRUE(validExposition(text)) << text;
  EXPECT_NE(text.find("test_exporter_live_counter"), std::string::npos);
}

TEST(HandleRequest, RoutesAndContentTypes) {
  const std::string metrics = Exporter::handleRequest("/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string statusz = Exporter::handleRequest("/statusz");
  EXPECT_NE(statusz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("application/json"), std::string::npos);
  EXPECT_NE(Exporter::handleRequest("/healthz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(Exporter::handleRequest("/nope").find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(Exporter::handleRequest("").find("404 Not Found"),
            std::string::npos);
}

TEST(HandleRequest, StatuszEchoesReportAndBuildInfo) {
  Exporter::setLastReport("{\"bench\":\"unit\",\"ok\":true}");
  const std::string body = bodyOf(Exporter::handleRequest("/statusz"));
  EXPECT_NE(body.find("\"last_report\":{\"bench\":\"unit\",\"ok\":true}"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"build\":{\"compiler\":"), std::string::npos);
  EXPECT_NE(body.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(body.find("\"pid\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live server

TEST(ExporterServer, ServesOverRealSocket) {
  Exporter exporter;
  exporter.start({});  // port 0: kernel picks
  ASSERT_TRUE(exporter.running());
  ASSERT_GT(exporter.port(), 0);

  Metrics::counter("test.exporter.socket_counter").add(11);
  const std::string metrics = httpGet(exporter.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_TRUE(validExposition(bodyOf(metrics))) << bodyOf(metrics);
  EXPECT_NE(bodyOf(metrics).find("test_exporter_socket_counter"),
            std::string::npos);

  EXPECT_NE(httpGet(exporter.port(), "/healthz").find("ok"),
            std::string::npos);
  EXPECT_NE(httpGet(exporter.port(), "/missing").find("404"),
            std::string::npos);
  // Query strings are stripped.
  EXPECT_NE(httpGet(exporter.port(), "/metrics?name=x").find("200 OK"),
            std::string::npos);
  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

TEST(ExporterServer, ConcurrentScrapeDuringCounterChurn) {
  Counter& counter = Metrics::counter("test.exporter.churn_counter");
  static constexpr double kEdges[] = {1.0, 10.0, 100.0};
  Histogram& hist = Metrics::histogram("test.exporter.churn_hist", kEdges);
  Gauge& gauge = Metrics::gauge("test.exporter.churn_gauge");

  Exporter exporter;
  exporter.start({});
  const int port = exporter.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.increment();
        hist.observe(static_cast<double>((t * 37 + i) % 150));
        gauge.set(static_cast<double>(i));
        ++i;
      }
    });
  }

  std::atomic<int> scrapeFailures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < 15; ++i) {
        const std::string target = (i % 3 == 2) ? "/statusz" : "/metrics";
        const std::string response = httpGet(port, target);
        if (response.find("HTTP/1.1 200 OK") == std::string::npos) {
          scrapeFailures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (target == "/metrics" && !validExposition(bodyOf(response))) {
          scrapeFailures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& c : churners) c.join();
  exporter.stop();
  EXPECT_EQ(scrapeFailures.load(), 0);
}

TEST(ExporterServer, StopIsIdempotentAndPortIsReusable) {
  Exporter first;
  first.start({});
  const int port = first.port();
  ASSERT_GT(port, 0);

  // Clients hammering the server while it shuts down: no crash, no hang;
  // refused connections after the close are fine.
  std::thread scraper([port] {
    for (int i = 0; i < 50; ++i) (void)httpGet(port, "/healthz");
  });
  first.stop();
  first.stop();  // idempotent
  scraper.join();
  EXPECT_FALSE(first.running());
  EXPECT_EQ(first.port(), 0);

  // SO_REUSEADDR: the port rebinds immediately, no TIME_WAIT stall.
  Exporter second;
  Exporter::Options options;
  options.port = port;
  second.start(options);
  EXPECT_EQ(second.port(), port);
  EXPECT_NE(httpGet(port, "/healthz").find("200 OK"), std::string::npos);
  second.stop();
}

TEST(ExporterServer, StartFromEnvHonorsUnsetAndReusesInstance) {
  ::unsetenv("FEFET_EXPORT_PORT");
  EXPECT_EQ(Exporter::startFromEnv(), nullptr);
  ::setenv("FEFET_EXPORT_PORT", "0", 1);
  Exporter* a = Exporter::startFromEnv();
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->running());
  EXPECT_GT(a->port(), 0);
  Exporter* b = Exporter::startFromEnv();  // second call: same instance
  EXPECT_EQ(a, b);
  EXPECT_EQ(Exporter::instance(), a);
  a->stop();
  ::unsetenv("FEFET_EXPORT_PORT");
}

}  // namespace
}  // namespace fefet::obs

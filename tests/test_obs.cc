// Observability subsystem audit (obs/metrics.h, obs/trace.h,
// obs/report.h):
//
//  * counters survive concurrent increments without losing updates;
//  * histogram bucketing follows Prometheus "le" semantics exactly at
//    the edges, with the overflow bucket last;
//  * N threads observing and merging tallies into one histogram while
//    another thread snapshots it must equal a single-threaded reference
//    fill, and a bulk HistogramTally merge equals one observe() per value;
//  * spans nest by timestamp containment and the bounded ring drops the
//    oldest events (counted) on overflow;
//  * the Chrome trace_event and metrics-snapshot JSON exporters emit
//    syntactically valid JSON (checked by a small validator below);
//  * the counter/histogram/span hot paths perform zero heap allocations
//    at steady state (same operator-new hook as test_stamp_alloc).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocations{0};

void* countedAlloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fefet::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (syntax only, no value model).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return p_ == end_;
  }

 private:
  bool value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    skipWs();
    if (p_ != end_ && *p_ == '}') { ++p_; return true; }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (p_ == end_) return false;
      if (*p_ == '}') { ++p_; return true; }
      if (*p_ != ',') return false;
      ++p_;
    }
  }
  bool array() {
    ++p_;  // '['
    skipWs();
    if (p_ != end_ && *p_ == ']') { ++p_; return true; }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (p_ == end_) return false;
      if (*p_ == ']') { ++p_; return true; }
      if (*p_ != ',') return false;
      ++p_;
    }
  }
  bool string() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (static_cast<unsigned char>(*p_) < 0x20) return false;
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        const char e = *p_;
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
              return false;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    return p_ != start && !(p_ - start == 1 && start[0] == '-');
  }
  bool literal(const char* word) {
    while (*word) {
      if (p_ == end_ || *p_ != *word) return false;
      ++p_;
      ++word;
    }
    return true;
  }
  void skipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  const char* p_;
  const char* end_;
};

bool isValidJson(const std::string& text) {
  return JsonChecker(text).valid();
}

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(isValidJson("{}"));
  EXPECT_TRUE(isValidJson(R"({"a":[1,2.5,-3e-2],"b":"x\"y","c":null})"));
  EXPECT_FALSE(isValidJson("{"));
  EXPECT_FALSE(isValidJson(R"({"a":})"));
  EXPECT_FALSE(isValidJson("[1,]"));
  EXPECT_FALSE(isValidJson("{} extra"));
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, CounterSurvivesConcurrentIncrements) {
  Counter& c = Metrics::counter("test.obs.concurrent_counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.total(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, HistogramBucketEdgesAreLeSemantics) {
  static constexpr double kEdges[] = {1.0, 2.0, 5.0};
  Histogram& h = Metrics::histogram("test.obs.edge_hist", kEdges);
  h.reset();
  // v <= edge lands in that bucket; the first edge >= v wins.
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (le: 1.0 <= 1.0)
  h.observe(1.001); // bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(5.0);   // bucket 2
  h.observe(5.001); // overflow
  h.observe(1e9);   // overflow
  const auto buckets = h.bucketTotals();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001 + 1e9);
}

TEST(Metrics, HistogramDropsNanObservations) {
  // Regression: a NaN fails every `v <= edge` comparison, so it used to
  // land in the overflow bucket and poison the running sum into NaN for
  // the histogram's whole lifetime.  NaNs are now dropped from the
  // distribution and tallied in nanCount().
  static constexpr double kEdges[] = {1.0, 10.0};
  Histogram& h = Metrics::histogram("test.obs.nan_hist", kEdges);
  h.reset();
  h.observe(0.5);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(20.0);
  h.observe(std::nan(""));
  const auto buckets = h.bucketTotals();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 0u);
  EXPECT_EQ(buckets[2], 1u);  // overflow holds only the genuine 20.0
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.nanCount(), 2u);
  // The sum stays finite and exact — no NaN poisoning.
  EXPECT_DOUBLE_EQ(h.sum(), 20.5);
  // Snapshot/JSON carry the dropped-NaN tally.
  const MetricsSnapshot snap = Metrics::snapshot();
  for (const auto& hv : snap.histograms) {
    if (hv.name == "test.obs.nan_hist") {
      EXPECT_EQ(hv.nan, 2u);
    }
  }
  const std::string json = snap.toJson();
  EXPECT_TRUE(isValidJson(json)) << json;
  EXPECT_NE(json.find("\"nan\":2"), std::string::npos);
  // reset() clears the NaN tally too.
  h.reset();
  EXPECT_EQ(h.nanCount(), 0u);
}

TEST(Metrics, ConcurrentObserveMergeAndSnapshotMatchSingleThreadReference) {
  // The same deterministic observation stream, once spread over 6 threads
  // that alternate direct observe() calls with merges of their own
  // HistogramTally while another thread keeps snapshotting the registry,
  // and once on this thread alone.  No update may be lost.
  static constexpr double kEdges[] = {2.0, 4.0, 8.0, 16.0};
  Histogram& shared = Metrics::histogram("test.obs.shared_hist", kEdges);
  Histogram& reference = Metrics::histogram("test.obs.reference_hist", kEdges);
  shared.reset();
  reference.reset();
  constexpr int kThreads = 6;
  constexpr int kPerThread = 500;
  const auto valueAt = [](int thread, int i) {
    if (i % 97 == 0) return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>((thread * 7 + i * 3) % 20);  // integers: exact
  };
  std::atomic<bool> done{false};
  std::thread reader([&done] {
    std::uint64_t lastCount = 0;
    do {
      for (const auto& h : Metrics::snapshot().histograms) {
        if (h.name != "test.obs.shared_hist") continue;
        EXPECT_GE(h.count, lastCount);  // one atomic: never runs backwards
        EXPECT_LE(h.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
        lastCount = h.count;
      }
    } while (!done.load(std::memory_order_acquire));
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared, t, &valueAt] {
      HistogramTally tally(shared);
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 2 == 0) {
          shared.observe(valueAt(t, i));
        } else {
          tally.observe(valueAt(t, i));
        }
        if (i % 50 == 49) shared.merge(tally);
      }
      shared.merge(tally);
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) reference.observe(valueAt(t, i));
  }
  EXPECT_EQ(shared.bucketTotals(), reference.bucketTotals());
  EXPECT_EQ(shared.count(), reference.count());
  EXPECT_EQ(shared.nanCount(), reference.nanCount());
  EXPECT_GT(shared.nanCount(), 0u);
  // Integer-valued observations: double accumulation is exact in any
  // order, so even the sums must match bit for bit.
  EXPECT_EQ(shared.sum(), reference.sum());
}

TEST(Metrics, TallyMergeMatchesPerObservationBins) {
  // A hot loop tallies plain bins and merges them in bulk; the merged bins,
  // count and NaN tally must equal one observe() per value exactly, and a
  // merge empties the tally so a second batch is not counted twice.
  static constexpr double kEdges[] = {1.0, 2.0, 4.0, 8.0};
  Histogram& perValue = Metrics::histogram("test.obs.per_value_hist", kEdges);
  Histogram& bulk = Metrics::histogram("test.obs.bulk_hist", kEdges);
  perValue.reset();
  bulk.reset();
  HistogramTally tally(bulk);
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 200; ++i) {
      // Edge values, overflow, negatives and NaNs; quarter-integers keep
      // the sums exact in any order.
      const double v = i % 37 == 0
                           ? std::numeric_limits<double>::quiet_NaN()
                           : 0.25 * ((i * 7 + batch * 3) % 48) - 2.0;
      perValue.observe(v);
      tally.observe(v);
    }
    bulk.merge(tally);
  }
  bulk.merge(tally);  // empty: adds nothing
  EXPECT_EQ(bulk.bucketTotals(), perValue.bucketTotals());
  EXPECT_EQ(bulk.count(), perValue.count());
  EXPECT_EQ(bulk.nanCount(), perValue.nanCount());
  EXPECT_GT(bulk.nanCount(), 0u);
  EXPECT_EQ(bulk.sum(), perValue.sum());
  const auto buckets = bulk.bucketTotals();
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    EXPECT_GT(buckets[b], 0u) << "bucket " << b << " never exercised";
  }
}

TEST(Metrics, SnapshotAndJson) {
  Counter& c = Metrics::counter("test.obs.snapshot_counter");
  c.reset();
  c.add(41);
  c.increment();
  const MetricsSnapshot snap = Metrics::snapshot();
  EXPECT_EQ(snap.counterValue("test.obs.snapshot_counter"), 42u);
  EXPECT_EQ(snap.counterValue("test.obs.never_registered"), 0u);
  const std::string json = snap.toJson();
  EXPECT_TRUE(isValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.obs.snapshot_counter\":42"), std::string::npos);
  // The serializer builds its names and numbers from these helpers;
  // quotes, backslashes and control characters must come back JSON-clean.
  EXPECT_EQ(strings::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_TRUE(isValidJson('"' + strings::jsonEscape("ctrl:\x01\ttab") + '"'));
  EXPECT_TRUE(isValidJson(strings::jsonNumber(1.5)));
  EXPECT_TRUE(isValidJson(strings::jsonNumber(
      std::numeric_limits<double>::quiet_NaN())));
}

TEST(Metrics, DisabledGateIsHonoredByCallSites) {
  // The gate itself is advisory (call sites check it); verify the toggle
  // round-trips and ends enabled for the rest of the suite.
  const bool was = Metrics::enabled();
  Metrics::setEnabled(false);
  EXPECT_FALSE(Metrics::enabled());
  Metrics::setEnabled(true);
  EXPECT_TRUE(Metrics::enabled());
  Metrics::setEnabled(was);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(Trace, SpansNestByTimestampContainment) {
  Trace::enable(1 << 8);
  {
    Span outer("test.outer");
    { Span inner1("test.inner1"); }
    { Span inner2("test.inner2"); }
  }
  Trace::disable();
  const auto events = Trace::events();
  ASSERT_EQ(events.size(), 3u);
  // events() sorts by start time: outer starts first.
  EXPECT_STREQ(events[0].name, "test.outer");
  const auto& outer = events[0];
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].startNs, outer.startNs);
    EXPECT_LE(events[i].startNs + events[i].durNs,
              outer.startNs + outer.durNs);
    EXPECT_EQ(events[i].thread, outer.thread);
  }
  EXPECT_LE(events[1].startNs + events[1].durNs, events[2].startNs);
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  Trace::enable(/*eventsPerThread=*/8);  // already a power of two
  constexpr int kRecorded = 20;
  for (int i = 0; i < kRecorded; ++i) {
    Span span("test.overflow", static_cast<std::uint64_t>(i));
  }
  Trace::disable();
  const auto events = Trace::events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(Trace::dropped(), static_cast<std::uint64_t>(kRecorded - 8));
  // The survivors are the newest 8, still in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, static_cast<std::uint64_t>(kRecorded - 8 + i));
    EXPECT_TRUE(events[i].hasArg);
  }
}

TEST(Trace, DisabledSpansRecordNothing) {
  Trace::enable(1 << 8);
  Trace::disable();
  Trace::clear();
  { Span span("test.disabled"); }
  EXPECT_TRUE(Trace::events().empty());
}

TEST(Trace, ChromeJsonExporterIsValid) {
  Trace::enable(1 << 8);
  {
    Span outer("sweep.point", 3);
    Span inner("newton.solve");
  }
  Trace::disable();
  const std::string json = Trace::toChromeJson();
  EXPECT_TRUE(isValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep.point\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Trace, EventsFromMultipleThreadsMergeChronologically) {
  Trace::enable(1 << 8);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 5; ++i) Span span("test.worker");
    });
  }
  for (auto& w : workers) w.join();
  Trace::disable();
  const auto events = Trace::events();
  ASSERT_EQ(events.size(), 20u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].startNs, events[i - 1].startNs);
  }
}

// ---------------------------------------------------------------------------
// RunReport

TEST(RunReport, MergesFieldsAndMetricsIntoValidJson) {
  Metrics::counter("test.obs.report_counter").add(7);
  RunReport report("test_bench");
  report.addCount("points", 12);
  report.addNumber("wall_s", 1.25);
  report.addString("note", "quoted \"text\"");
  report.addBool("ok", true);
  const std::string json = report.toJson(Metrics::snapshot());
  EXPECT_TRUE(isValidJson(json)) << json;
  EXPECT_NE(json.find("\"bench\":\"test_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"points\":12"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Allocation audit: the hot paths must be allocation-free at steady state.

TEST(ObsAlloc, CounterAndHistogramHotPathsAreAllocationFree) {
  static constexpr double kEdges[] = {1.0, 10.0, 100.0};
  Counter& c = Metrics::counter("test.obs.alloc_counter");
  Histogram& h = Metrics::histogram("test.obs.alloc_hist", kEdges);
  c.increment();  // warm: registration happened above, storage is fixed
  h.observe(5.0);
  HistogramTally tally(h);  // sized here, outside the audited loop

  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    c.add(2);
    h.observe(static_cast<double>(i % 128));
    tally.observe(static_cast<double>(i % 64));
    if (i % 100 == 99) h.merge(tally);
  }
  g_armed.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0);
}

TEST(ObsAlloc, SpanRecordingIsAllocationFreeAfterWarmup) {
  Trace::enable(1 << 10);
  { Span warm("test.alloc_warm"); }  // first record acquires this
                                     // thread's ring (may allocate)
  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    Span span("test.alloc_span", static_cast<std::uint64_t>(i));
  }
  g_armed.store(false, std::memory_order_relaxed);
  Trace::disable();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace fefet::obs

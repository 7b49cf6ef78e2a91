#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "common/error.h"
#include "common/strings.h"

namespace fefet::obs {

namespace {

bool initialEnabled() {
  const char* env = std::getenv("FEFET_METRICS");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

/// Registry storage.  unique_ptr values keep metric addresses stable
/// across map rehashes; the registry itself lives forever (intentionally
/// leaked on exit — call sites hold references from static initializers
/// whose destruction order is unknowable).
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

/// Relaxed CAS accumulation: atomic<double> has no fetch_add pre-C++23.
void addToSum(std::atomic<double>& sum, double value) {
  double expected = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(expected, expected + value,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace

std::atomic<bool> Metrics::enabled_{initialEnabled()};

Histogram::Histogram(std::span<const double> edges)
    : edges_(edges.begin(), edges.end()) {
  FEFET_REQUIRE(!edges_.empty(), "histogram needs at least one bucket edge");
  FEFET_REQUIRE(std::is_sorted(edges_.begin(), edges_.end()),
                "histogram bucket edges must be sorted ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bucketCount());
}

void Histogram::observe(double value) {
  if (std::isnan(value)) {
    // A NaN fails every `value <= edge` comparison (so it would count as
    // overflow) and turns the running sum into NaN permanently.  Drop it
    // from the distribution and tally it separately.
    nan_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buckets_[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  addToSum(sum_, value);
}

void Histogram::merge(HistogramTally& tally) {
  FEFET_REQUIRE(tally.histogram_ == this,
                "histogram tally merged into another histogram");
  for (std::size_t i = 0; i < tally.buckets_.size(); ++i) {
    if (tally.buckets_[i] != 0) {
      buckets_[i].fetch_add(tally.buckets_[i], std::memory_order_relaxed);
      tally.buckets_[i] = 0;
    }
  }
  if (tally.count_ != 0) {
    count_.fetch_add(tally.count_, std::memory_order_relaxed);
    addToSum(sum_, tally.sum_);
  }
  if (tally.nan_ != 0) nan_.fetch_add(tally.nan_, std::memory_order_relaxed);
  tally.count_ = 0;
  tally.sum_ = 0.0;
  tally.nan_ = 0;
}

std::vector<std::uint64_t> Histogram::bucketTotals() const {
  std::vector<std::uint64_t> totals(bucketCount());
  for (std::size_t i = 0; i < totals.size(); ++i) {
    totals[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return totals;
}

std::uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::uint64_t Histogram::nanCount() const {
  return nan_.load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i < bucketCount(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  nan_.store(0, std::memory_order_relaxed);
}

Counter& Metrics::counter(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> guard(r.mutex);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Metrics::histogram(const std::string& name,
                              std::span<const double> edges) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> guard(r.mutex);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(edges);
  return *slot;
}

MetricsSnapshot Metrics::snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> guard(r.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, counter] : r.counters) {
    snap.counters.push_back({name, counter->total()});
  }
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, histogram] : r.histograms) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    h.edges = histogram->edges();
    h.buckets = histogram->bucketTotals();
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.nan = histogram->nanCount();
    snap.histograms.push_back(std::move(h));
  }
  return snap;  // std::map iterates sorted, so the vectors are sorted
}

void Metrics::reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> guard(r.mutex);
  for (auto& [name, counter] : r.counters) counter->reset();
  for (auto& [name, histogram] : r.histograms) histogram->reset();
}

std::uint64_t MetricsSnapshot::counterValue(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::string MetricsSnapshot::toJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + strings::jsonEscape(c.name) + "\":" + std::to_string(c.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + strings::jsonEscape(h.name) + "\":{\"edges\":[";
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
      if (i > 0) out += ',';
      out += strings::jsonNumber(h.edges[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += "],\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + strings::jsonNumber(h.sum) +
           ",\"nan\":" + std::to_string(h.nan) + '}';
  }
  out += "}}";
  return out;
}

}  // namespace fefet::obs

// metrics.h — process-wide registry of named counters and fixed-bucket
// histograms.
//
// Design goals, in order:
//
//  1. Increments are lock-free and allocation-free, and sized to their
//     traffic.  Every add()/observe()/merge() in src/ runs at low
//     frequency — once per flush (transient run, DC solve, solver
//     teardown), once per sweep point or pool task, or once per Newton
//     solve on one thread — because hot loops tally plain members or a
//     HistogramTally and land them here in bulk.  So each metric is one
//     set of relaxed atomics, with no per-thread striping.  All storage
//     is sized at registration — after that, add()/observe() touch only
//     preallocated atomics (tests/test_obs.cc audits this with the same
//     operator-new hook as test_stamp_alloc).
//  2. Registration is cheap but not free (mutex + map lookup), so call
//     sites hold the returned reference — typically a function-local
//     static or a constructor-initialized member.  Registered metrics
//     are never deleted or moved: references stay valid for the process
//     lifetime, and Metrics::reset() zeroes values without invalidating
//     them.
//  3. Snapshots serialize to the same PERF-v2-style JSON the benches
//     emit, under the `fefet.<layer>.<name>` naming scheme (see
//     DESIGN.md §6.3).
//
// Collection is globally gated by Metrics::enabled() (default on; env
// FEFET_METRICS=0 disables) so the zero-telemetry cost is one relaxed
// load per call site.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace fefet::obs {

/// Monotonically increasing event count (iterations, retries, stamped
/// entries, accumulated nanoseconds, …).
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  std::uint64_t total() const { return value_.load(std::memory_order_relaxed); }

  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class HistogramTally;

/// Fixed-bucket histogram: bucket i counts observations v <= edges[i]
/// (first matching bucket, Prometheus "le" semantics); one extra
/// overflow bucket catches v > edges.back().  Edges are fixed at
/// registration; observe() is a linear scan over <= ~16 edges plus one
/// relaxed fetch_add — allocation-free.
///
/// NaN observations are dropped from the buckets, count and sum (a NaN
/// would land in the overflow bucket — every `v <= edge` comparison is
/// false — and poison the running sum forever) and tallied separately in
/// nanCount(), so a producer emitting garbage is visible without
/// corrupting the distribution.
class Histogram {
 public:
  explicit Histogram(std::span<const double> edges);

  void observe(double value);
  /// Land a tally's bins, count, sum and NaN count and clear the tally.
  /// The bins and counts equal those of one observe() per tallied value;
  /// only the sum's summation order differs.
  void merge(HistogramTally& tally);

  std::size_t bucketCount() const { return edges_.size() + 1; }
  const std::vector<double>& edges() const { return edges_; }

  /// Bucket counts (size bucketCount()), total count and sum.  Each is
  /// read atomically on its own, so a read concurrent with observe() may
  /// see a bucket and the count one observation apart.
  std::vector<std::uint64_t> bucketTotals() const;
  std::uint64_t count() const;
  double sum() const;
  /// NaN observations dropped (excluded from buckets/count/sum).
  std::uint64_t nanCount() const;

  void reset();

  /// Bucket of a non-NaN value: the first edge >= value, else overflow.
  std::size_t bucketOf(double value) const {
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (value <= edges_[i]) return i;
    }
    return edges_.size();
  }

 private:
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> nan_{0};
};

/// Plain, single-owner bins of one Histogram, for a hot loop that
/// observes many values between two merges: observe() applies the
/// histogram's bucket rule with no atomics, Histogram::merge() lands the
/// batch.  Sized at construction; observe() never allocates.
class HistogramTally {
 public:
  explicit HistogramTally(const Histogram& histogram)
      : histogram_(&histogram), buckets_(histogram.bucketCount(), 0) {}

  void observe(double value) {
    if (std::isnan(value)) {
      ++nan_;
      return;
    }
    ++buckets_[histogram_->bucketOf(value)];
    ++count_;
    sum_ += value;
  }

 private:
  friend class Histogram;
  const Histogram* histogram_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t nan_ = 0;
};

/// Point-in-time copy of every registered metric, decoupled from the
/// live registry (safe to serialize while workers keep counting).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;  ///< edges.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
    std::uint64_t nan = 0;  ///< NaN observations dropped
  };
  std::vector<CounterValue> counters;    ///< sorted by name
  std::vector<HistogramValue> histograms;  ///< sorted by name

  /// Value of one counter (0 when absent — absent and never-incremented
  /// are indistinguishable by design).
  std::uint64_t counterValue(const std::string& name) const;

  /// PERF-v2-style JSON object:
  /// {"counters":{name:value,...},
  ///  "histograms":{name:{"edges":[...],"buckets":[...],
  ///                      "count":N,"sum":S,"nan":N},...}}
  std::string toJson() const;
};

/// The process-wide registry.  All accessors return references that stay
/// valid for the process lifetime.
class Metrics {
 public:
  /// Global collection gate: default on, FEFET_METRICS=0 in the
  /// environment starts the process disabled.  Call sites with non-trivial
  /// bookkeeping (clock reads, per-item loops) should check this first;
  /// plain add()/observe() calls may skip the check — their cost is one
  /// relaxed atomic op either way.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void setEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Find-or-create.  Names follow `fefet.<layer>.<name>`.  Re-requesting
  /// an existing histogram ignores the new edges (first registration
  /// wins).
  static Counter& counter(const std::string& name);
  static Histogram& histogram(const std::string& name,
                              std::span<const double> edges);

  /// Copy every registered metric.
  static MetricsSnapshot snapshot();

  /// Zero every registered metric (values only; references stay valid).
  /// For benches and tests that want a clean slate per run.
  static void reset();

 private:
  static std::atomic<bool> enabled_;
};

}  // namespace fefet::obs

// stats.h — small descriptive-statistics helpers used by the NVP evaluator
// and the benchmark harnesses.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace fefet::stats {

double mean(std::span<const double> v);
double stddev(std::span<const double> v);  ///< sample (n-1) std deviation
double minOf(std::span<const double> v);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::span<const double> v, double p);

/// Streaming moment accumulator (Welford) with exact min/max, designed for
/// per-thread partials: each sweep worker feeds its own Accumulator and the
/// collector combines them with merge() (Chan's parallel update), so the
/// merged mean/variance equal the single-pass result up to rounding
/// regardless of how samples were split across threads.
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  long count() const { return count_; }
  double mean() const;          ///< requires count() >= 1
  double stddev() const;        ///< sample (n-1) deviation; count() >= 2
  double sumSquaredDeviations() const { return m2_; }
  double minimum() const;       ///< requires count() >= 1
  double maximum() const;       ///< requires count() >= 1

  /// Reconstruct an accumulator from precomputed moments (n, mean, and the
  /// sum of squared deviations m2 = sigma^2 * (n-1)) — the bridge for
  /// merging summaries that only kept mean/sigma/min/max.
  static Accumulator fromMoments(long count, double mean, double m2,
                                 double minimum, double maximum);

 private:
  long count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// splitmix64 finalizer: a well-mixed 64-bit hash used wherever a
/// deterministic, order-independent seed must be derived from (base seed,
/// index) — per-cell fault draws, per-point sweep seeds.
std::uint64_t splitmix64(std::uint64_t z);

/// Deterministic pseudo-random source for workload/trace synthesis.
/// A thin wrapper over std::mt19937_64 with convenience draws; every
/// stochastic component takes an explicit seed so runs are reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  double uniform(double lo, double hi);
  double normal(double mean, double sigma);
  double exponential(double rate);  ///< mean 1/rate
  int uniformInt(int lo, int hi);   ///< inclusive bounds
  bool bernoulli(double p);

 private:
  std::mt19937_64 engine_;
};

}  // namespace fefet::stats

#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fefet::stats {

double mean(std::span<const double> v) {
  FEFET_REQUIRE(!v.empty(), "mean: empty input");
  double acc = 0.0;
  for (double e : v) acc += e;
  return acc / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) {
  FEFET_REQUIRE(v.size() >= 2, "stddev: need at least 2 samples");
  const double m = mean(v);
  double acc = 0.0;
  for (double e : v) acc += (e - m) * (e - m);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

double minOf(std::span<const double> v) {
  FEFET_REQUIRE(!v.empty(), "minOf: empty input");
  return *std::min_element(v.begin(), v.end());
}

double percentile(std::span<const double> v, double p) {
  FEFET_REQUIRE(!v.empty(), "percentile: empty input");
  FEFET_REQUIRE(p >= 0.0 && p <= 100.0, "percentile: p outside [0,100]");
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double t = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - t) + sorted[hi] * t;
}

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double nA = static_cast<double>(count_);
  const double nB = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = nA + nB;
  mean_ += delta * nB / n;
  m2_ += other.m2_ + delta * delta * nA * nB / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::mean() const {
  FEFET_REQUIRE(count_ >= 1, "Accumulator::mean: no samples");
  return mean_;
}

double Accumulator::stddev() const {
  FEFET_REQUIRE(count_ >= 2, "Accumulator::stddev: need at least 2 samples");
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

double Accumulator::minimum() const {
  FEFET_REQUIRE(count_ >= 1, "Accumulator::minimum: no samples");
  return min_;
}

double Accumulator::maximum() const {
  FEFET_REQUIRE(count_ >= 1, "Accumulator::maximum: no samples");
  return max_;
}

Accumulator Accumulator::fromMoments(long count, double mean, double m2,
                                     double minimum, double maximum) {
  FEFET_REQUIRE(count >= 0, "Accumulator::fromMoments: negative count");
  Accumulator a;
  a.count_ = count;
  a.mean_ = mean;
  a.m2_ = m2;
  a.min_ = minimum;
  a.max_ = maximum;
  return a;
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double sigma) {
  std::normal_distribution<double> d(mean, sigma);
  return d(engine_);
}

double Rng::exponential(double rate) {
  std::exponential_distribution<double> d(rate);
  return d(engine_);
}

int Rng::uniformInt(int lo, int hi) {
  std::uniform_int_distribution<int> d(lo, hi);
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

}  // namespace fefet::stats

// Unit tests for common: stats, RNG, formatting, tables, units, errors.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

namespace fefet {
namespace {

using namespace fefet::literals;

TEST(Units, LiteralsProduceSiValues) {
  EXPECT_DOUBLE_EQ(0.68_V, 0.68);
  EXPECT_DOUBLE_EQ(550.0_ps, 550e-12);
  EXPECT_DOUBLE_EQ(2.25_nm, 2.25e-9);
  EXPECT_DOUBLE_EQ(0.2_fF, 0.2e-15);
  EXPECT_DOUBLE_EQ(4.82_pJ, 4.82e-12);
  EXPECT_DOUBLE_EQ(1.0_MOhm, 1e6);
}

TEST(Units, ThermalVoltage) {
  EXPECT_NEAR(constants::kThermalVoltage300K, 0.02585, 1e-4);
}

TEST(Stats, Descriptives) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::mean(v), 2.5);
  EXPECT_NEAR(stats::stddev(v), 1.29099, 1e-4);
  EXPECT_DOUBLE_EQ(stats::minOf(v), 1.0);
  EXPECT_DOUBLE_EQ(stats::maxOf(v), 4.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 100.0), 4.0);
  EXPECT_NEAR(stats::geomean(std::vector<double>{1.0, 4.0}), 2.0, 1e-12);
}

TEST(Stats, GuardsEmptyInput) {
  EXPECT_THROW(stats::mean({}), InvalidArgumentError);
  EXPECT_THROW(stats::geomean(std::vector<double>{1.0, -1.0}),
               InvalidArgumentError);
}

TEST(Accumulator, StreamingMomentsMatchBatchHelpers) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  stats::Accumulator acc;
  for (double x : v) acc.add(x);
  EXPECT_EQ(acc.count(), 4);
  EXPECT_DOUBLE_EQ(acc.mean(), stats::mean(v));
  EXPECT_NEAR(acc.stddev(), stats::stddev(v), 1e-14);
  EXPECT_DOUBLE_EQ(acc.minimum(), 1.0);
  EXPECT_DOUBLE_EQ(acc.maximum(), 4.0);
}

TEST(Accumulator, MergeEqualsSinglePass) {
  stats::Rng rng(11);
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) v.push_back(rng.normal(-2.0, 3.0));
  stats::Accumulator whole;
  for (double x : v) whole.add(x);
  // Split unevenly, including an empty part: merge must be a no-op for it.
  stats::Accumulator a, b, c, empty;
  for (int i = 0; i < 7; ++i) a.add(v[static_cast<std::size_t>(i)]);
  for (int i = 7; i < 180; ++i) b.add(v[static_cast<std::size_t>(i)]);
  for (int i = 180; i < 300; ++i) c.add(v[static_cast<std::size_t>(i)]);
  stats::Accumulator merged;
  merged.merge(a);
  merged.merge(empty);
  merged.merge(b);
  merged.merge(c);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.stddev(), whole.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.minimum(), whole.minimum());
  EXPECT_DOUBLE_EQ(merged.maximum(), whole.maximum());
}

TEST(Accumulator, FromMomentsRoundTrips) {
  stats::Accumulator acc;
  for (double x : {2.0, 4.0, 9.0}) acc.add(x);
  const auto rebuilt = stats::Accumulator::fromMoments(
      acc.count(), acc.mean(), acc.sumSquaredDeviations(), acc.minimum(),
      acc.maximum());
  EXPECT_EQ(rebuilt.count(), acc.count());
  EXPECT_DOUBLE_EQ(rebuilt.mean(), acc.mean());
  EXPECT_NEAR(rebuilt.stddev(), acc.stddev(), 1e-14);
  EXPECT_DOUBLE_EQ(rebuilt.minimum(), acc.minimum());
  EXPECT_DOUBLE_EQ(rebuilt.maximum(), acc.maximum());
}

TEST(Accumulator, GuardsInsufficientCounts) {
  stats::Accumulator acc;
  EXPECT_THROW(acc.mean(), InvalidArgumentError);
  EXPECT_THROW(acc.minimum(), InvalidArgumentError);
  acc.add(1.0);
  EXPECT_THROW(acc.stddev(), InvalidArgumentError);  // needs n >= 2
  EXPECT_DOUBLE_EQ(acc.mean(), 1.0);
}

TEST(Splitmix64, DeterministicAndWellMixed) {
  EXPECT_EQ(stats::splitmix64(42), stats::splitmix64(42));
  // Neighboring inputs must land far apart (the whole point of the hash).
  EXPECT_NE(stats::splitmix64(1), stats::splitmix64(2));
  EXPECT_NE(stats::splitmix64(0), 0u);
}

TEST(Rng, DeterministicPerSeed) {
  stats::Rng a(42), b(42), c(43);
  const double x = a.uniform(0.0, 1.0);
  EXPECT_DOUBLE_EQ(x, b.uniform(0.0, 1.0));
  EXPECT_NE(x, c.uniform(0.0, 1.0));
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  stats::Rng rng(7);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(4.0);
  EXPECT_NEAR(acc / n, 0.25, 0.02);
}

TEST(Strings, SiFormat) {
  EXPECT_EQ(strings::siFormat(550e-12, "s"), "550 ps");
  EXPECT_EQ(strings::siFormat(0.68, "V"), "680 mV");
  EXPECT_EQ(strings::siFormat(4.82e-12, "J"), "4.82 pJ");
  EXPECT_EQ(strings::siFormat(0.0, "A"), "0 A");
  EXPECT_EQ(strings::siFormat(-1.5e6, "Hz"), "-1.5 MHz");
}

TEST(Strings, FixedAndPad) {
  EXPECT_EQ(strings::fixedFormat(0.6789, 2), "0.68");
  EXPECT_EQ(strings::padLeft("x", 3), "  x");
  EXPECT_EQ(strings::padRight("x", 3), "x  ");
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22"});
  const std::string s = t.toString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), InvalidArgumentError);
}

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    FEFET_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("numbers disagree"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace fefet

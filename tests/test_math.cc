// Unit tests for common/math.h: root finding, quadrature, interpolation,
// crossings and ODE helpers.
#include "common/math.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "common/error.h"

namespace fefet::math {
namespace {

TEST(Sign, Basics) {
  EXPECT_EQ(sign(3.0), 1.0);
  EXPECT_EQ(sign(-0.5), -1.0);
  EXPECT_EQ(sign(0.0), 0.0);
}

TEST(Softplus, MatchesLogFormula) {
  for (double x : {-3.0, -1.0, 0.0, 0.5, 2.0, 10.0}) {
    EXPECT_NEAR(softplus(x), std::log1p(std::exp(x)), 1e-12);
  }
}

TEST(Softplus, LargeArgumentsDoNotOverflow) {
  EXPECT_DOUBLE_EQ(softplus(1000.0), 1000.0);
  EXPECT_NEAR(softplus(-1000.0), 0.0, 1e-300);
}

TEST(Logistic, IsDerivativeOfSoftplus) {
  const double h = 1e-6;
  for (double x : {-5.0, -0.3, 0.0, 0.7, 4.0}) {
    const double numeric = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
    EXPECT_NEAR(logistic(x), numeric, 1e-8);
  }
}

TEST(Logistic, SymmetricAroundHalf) {
  EXPECT_NEAR(logistic(0.3) + logistic(-0.3), 1.0, 1e-14);
}

// The pair helper must reproduce both scalar functions bit for bit (the
// MOSFET lane kernel relies on it): a dense sweep across both exponential
// branches and the +-35 cut-offs, plus signed zeros, denormal-adjacent
// magnitudes, infinities and NaN.
TEST(Math, SoftplusLogisticPairMatchesScalar) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> xs;
  for (int i = -600000; i <= 600000; ++i) xs.push_back(i * 1e-4);
  for (const double edge : {35.0, -35.0, 0.0}) {
    xs.push_back(std::nextafter(edge, kInf));
    xs.push_back(std::nextafter(edge, -kInf));
  }
  for (const double x : {35.0, -35.0, 0.0, -0.0, 1e-300, -1e-300, kInf, -kInf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    xs.push_back(x);
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  int mismatches = 0;
  for (const double x : xs) {
    const SoftplusLogistic pair = softplusLogistic(x);
    if (bits(pair.softplus) != bits(softplus(x)) ||
        bits(pair.logistic) != bits(logistic(x))) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "x=" << x << ": pair (" << pair.softplus << ", "
                      << pair.logistic << ") vs scalar (" << softplus(x)
                      << ", " << logistic(x) << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << xs.size() << " arguments";
}

TEST(Bisect, FindsRootOfCubic) {
  const auto f = [](double x) { return x * x * x - 2.0; };
  EXPECT_NEAR(bisect(f, 0.0, 2.0), std::cbrt(2.0), 1e-10);
}

TEST(Bisect, ThrowsWithoutBracket) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW(bisect(f, -1.0, 1.0), NumericalError);
}

TEST(Brent, FindsRootFasterThanBisection) {
  int evals = 0;
  const auto f = [&evals](double x) {
    ++evals;
    return std::exp(x) - 5.0;
  };
  EXPECT_NEAR(brent(f, 0.0, 5.0), std::log(5.0), 1e-10);
  EXPECT_LT(evals, 30);
}

TEST(Brent, HandlesRootAtBracketEdge) {
  const auto f = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(brent(f, 0.0, 1.0), 0.0);
}

TEST(FindAllRoots, LocatesAllThreeCubicRoots) {
  // x(x-1)(x+1) = x^3 - x.
  const auto f = [](double x) { return x * x * x - x; };
  const auto roots = findAllRoots(f, -2.0, 2.0, 400);
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_NEAR(roots[0], -1.0, 1e-9);
  EXPECT_NEAR(roots[1], 0.0, 1e-9);
  EXPECT_NEAR(roots[2], 1.0, 1e-9);
}

TEST(FindAllRoots, EmptyWhenNoRoots) {
  const auto f = [](double x) { return x * x + 0.5; };
  EXPECT_TRUE(findAllRoots(f, -1.0, 1.0).empty());
}

TEST(Trapz, IntegratesLinearExactly) {
  const std::vector<double> x = {0.0, 0.5, 1.0, 2.0};
  const std::vector<double> y = {0.0, 1.0, 2.0, 4.0};  // y = 2x
  EXPECT_NEAR(trapz(x, y), 4.0, 1e-14);
}

TEST(Trapz, QuadraticConverges) {
  std::vector<double> x, y;
  for (int i = 0; i <= 1000; ++i) {
    x.push_back(i / 1000.0);
    y.push_back(x.back() * x.back());
  }
  EXPECT_NEAR(trapz(x, y), 1.0 / 3.0, 1e-6);
}

TEST(Interp1, InterpolatesAndClamps) {
  const std::vector<double> x = {0.0, 1.0, 2.0};
  const std::vector<double> y = {0.0, 10.0, 0.0};
  EXPECT_NEAR(interp1(x, y, 0.5), 5.0, 1e-14);
  EXPECT_NEAR(interp1(x, y, 1.5), 5.0, 1e-14);
  EXPECT_DOUBLE_EQ(interp1(x, y, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(interp1(x, y, 3.0), 0.0);
}

TEST(Interp1, ClampNeverExtrapolatesEitherEdgeSlope) {
  // Asymmetric samples: extending the edge slopes would give -4 at q=-1
  // and 13 at q=5; the contract is to return the boundary sample instead.
  const std::vector<double> x = {0.0, 1.0, 4.0};
  const std::vector<double> y = {2.0, 8.0, 5.0};
  EXPECT_DOUBLE_EQ(interp1(x, y, -1.0), 2.0);
  EXPECT_DOUBLE_EQ(interp1(x, y, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(interp1(x, y, 4.0), 5.0);
  EXPECT_DOUBLE_EQ(interp1(x, y, 5.0), 5.0);
}

TEST(FirstCrossing, RisingAndFalling) {
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {0.0, 2.0, 2.0, -2.0};
  EXPECT_NEAR(firstCrossing(t, y, 1.0, true), 0.5, 1e-12);
  EXPECT_NEAR(firstCrossing(t, y, 0.0, false), 2.5, 1e-12);
}

TEST(FirstCrossing, ThrowsWhenAbsent) {
  const std::vector<double> t = {0.0, 1.0};
  const std::vector<double> y = {0.0, 0.5};
  EXPECT_THROW(firstCrossing(t, y, 2.0, true), SimulationError);
}

TEST(HasCrossing, DetectsBothDirections) {
  const std::vector<double> up = {0.0, 1.0};
  const std::vector<double> down = {1.0, 0.0};
  EXPECT_TRUE(hasCrossing(up, 0.5));
  EXPECT_TRUE(hasCrossing(down, 0.5));
  EXPECT_FALSE(hasCrossing(up, 2.0));
}

// Property sweep: brent and bisect agree on a family of transcendental
// functions.
class RootAgreement : public ::testing::TestWithParam<double> {};

TEST_P(RootAgreement, BrentMatchesBisect) {
  const double k = GetParam();
  const auto f = [k](double x) { return std::tanh(x) - k; };
  const double a = brent(f, -5.0, 5.0);
  const double b = bisect(f, -5.0, 5.0);
  EXPECT_NEAR(a, b, 1e-8);
  EXPECT_NEAR(a, std::atanh(k), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(TanhLevels, RootAgreement,
                         ::testing::Values(-0.9, -0.5, -0.1, 0.0, 0.3, 0.7,
                                           0.95));

}  // namespace
}  // namespace fefet::math

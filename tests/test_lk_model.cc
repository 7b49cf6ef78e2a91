// Unit tests for the Landau-Khalatnikov statics (ferro/lk_model.h).
// The oracles come from the paper's Table 2 coefficient set (DESIGN.md §5):
//   P_r ~ 0.4636 C/m^2, E_c ~ 1.2435 GV/m (1.24 V per nm of film).
#include "ferro/lk_model.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"

namespace fefet::ferro {
namespace {

TEST(LkModel, RemnantPolarizationMatchesTable2) {
  LandauKhalatnikov lk{LkCoefficients{}};
  EXPECT_NEAR(lk.remnantPolarization(), 0.4636, 2e-4);
}

TEST(LkModel, CoerciveFieldMatchesTable2) {
  LandauKhalatnikov lk{LkCoefficients{}};
  EXPECT_NEAR(lk.coerciveField(), 1.2435e9, 2e6);
  // Coercive voltage of a 1 nm film: the paper quotes 1.26 V.
  EXPECT_NEAR(lk.coerciveField() * 1e-9, 1.24, 0.03);
}

TEST(LkModel, StaticFieldIsOddFunction) {
  LandauKhalatnikov lk{LkCoefficients{}};
  for (double p : {0.05, 0.2, 0.4}) {
    EXPECT_DOUBLE_EQ(lk.staticField(p), -lk.staticField(-p));
  }
}

TEST(LkModel, StaticFieldZeroAtWellAndOrigin) {
  LandauKhalatnikov lk{LkCoefficients{}};
  const double pr = lk.remnantPolarization();
  EXPECT_NEAR(lk.staticField(pr), 0.0, 1.0);
  EXPECT_DOUBLE_EQ(lk.staticField(0.0), 0.0);
}

TEST(LkModel, SlopeNegativeAtOriginPositiveAtWell) {
  // Negative capacitance region around P = 0; restoring at the wells.
  LandauKhalatnikov lk{LkCoefficients{}};
  EXPECT_LT(lk.staticFieldSlope(0.0), 0.0);
  EXPECT_GT(lk.staticFieldSlope(lk.remnantPolarization()), 0.0);
}

TEST(LkModel, SlopeMatchesFiniteDifference) {
  LandauKhalatnikov lk{LkCoefficients{}};
  const double h = 1e-6;
  for (double p : {-0.4, -0.1, 0.0, 0.15, 0.3, 0.46}) {
    const double numeric =
        (lk.staticField(p + h) - lk.staticField(p - h)) / (2.0 * h);
    EXPECT_NEAR(lk.staticFieldSlope(p), numeric, std::abs(numeric) * 1e-5 + 1.0);
  }
}

TEST(LkModel, EnergyDoubleWell) {
  LandauKhalatnikov lk{LkCoefficients{}};
  const double pr = lk.remnantPolarization();
  EXPECT_LT(lk.energyDensity(pr), lk.energyDensity(0.0));
  EXPECT_LT(lk.energyDensity(-pr), lk.energyDensity(0.0));
  EXPECT_NEAR(lk.energyDensity(pr), lk.energyDensity(-pr), 1e-3);
  EXPECT_GT(lk.wellBarrier(), 0.0);
  // DESIGN.md §5: barrier ~ 3.74e8 J/m^3 for the Table 2 set.
  EXPECT_NEAR(lk.wellBarrier(), 3.745e8, 5e6);
}

TEST(LkModel, EnergyGradientIsStaticField) {
  LandauKhalatnikov lk{LkCoefficients{}};
  const double h = 1e-7;
  for (double p : {0.1, 0.25, 0.4}) {
    const double numeric =
        (lk.energyDensity(p + h) - lk.energyDensity(p - h)) / (2.0 * h);
    EXPECT_NEAR(numeric, lk.staticField(p), std::abs(lk.staticField(p)) * 1e-4);
  }
}

TEST(LkModel, StaticPolarizationsCountVsField) {
  LandauKhalatnikov lk{LkCoefficients{}};
  // Below the coercive field: three solutions (bistable); above: one.
  EXPECT_EQ(lk.staticPolarizations(0.0).size(), 3u);
  EXPECT_EQ(lk.staticPolarizations(0.5 * lk.coerciveField()).size(), 3u);
  EXPECT_EQ(lk.staticPolarizations(1.5 * lk.coerciveField()).size(), 1u);
}

TEST(LkModel, ParaelectricSetRejected) {
  LkCoefficients c;
  c.alpha = +1e9;  // positive alpha: no double well
  c.gamma = 0.0;
  LandauKhalatnikov lk{c};
  EXPECT_FALSE(lk.isFerroelectric());
  EXPECT_THROW(lk.remnantPolarization(), InvalidArgumentError);
}

TEST(LkModel, RejectsNonPositiveRho) {
  LkCoefficients c;
  c.rho = 0.0;
  EXPECT_THROW(LandauKhalatnikov{c}, InvalidArgumentError);
}

TEST(LkModel, CoercivePolarizationBetweenZeroAndPr) {
  LandauKhalatnikov lk{LkCoefficients{}};
  const double pc = lk.coercivePolarization();
  EXPECT_GT(pc, 0.0);
  EXPECT_LT(pc, lk.remnantPolarization());
  EXPECT_NEAR(pc, 0.2669, 1e-3);
}

// Property: coercive field grows as |alpha| grows (harder material).
class CoerciveVsAlpha : public ::testing::TestWithParam<double> {};

TEST_P(CoerciveVsAlpha, MonotoneInAlphaMagnitude) {
  LkCoefficients weak;
  weak.alpha = -GetParam();
  LkCoefficients strong = weak;
  strong.alpha = -GetParam() * 1.3;
  EXPECT_LT(LandauKhalatnikov(weak).coerciveField(),
            LandauKhalatnikov(strong).coerciveField());
}

INSTANTIATE_TEST_SUITE_P(AlphaMagnitudes, CoerciveVsAlpha,
                         ::testing::Values(3e9, 5e9, 7e9, 9e9));

}  // namespace
}  // namespace fefet::ferro

// Tests of the P-E loop tracer (paper Fig. 1(c) / Fig. 4(b) substrate),
// which drives one FeCapDevice with a triangle source on the circuit
// engine.  The bounds come from the static LK model: P_r and t_FE * E_c.
#include "core/pe_loop.h"

#include <cmath>
#include <gtest/gtest.h>

namespace fefet::core {
namespace {

using ferro::FeGeometry;
using ferro::LkCoefficients;

LkCoefficients fastMaterial() {
  LkCoefficients c;
  c.rho = 1.0;
  return c;
}

FeGeometry paperGeometry(double thickness) {
  return {thickness, 65e-9 * 45e-9};
}

/// Static coercive voltage t_FE * E_c of the film.
double staticCoercive(double thickness) {
  return thickness * ferro::LandauKhalatnikov(fastMaterial()).coerciveField();
}

TEST(PeLoop, FullLoopHasPaperShape) {
  PeLoopOptions options;
  options.amplitude = 2.5;
  options.period = 100e-9;
  const PeLoop loop =
      tracePeLoop(fastMaterial(), paperGeometry(1e-9), options);
  const double pr =
      ferro::LandauKhalatnikov(fastMaterial()).remnantPolarization();
  const double vc = staticCoercive(1e-9);
  // Saturates near the wells and retains ~P_r at zero bias.
  EXPECT_NEAR(std::abs(loop.remnantDown), pr, 0.05 * pr);
  EXPECT_NEAR(std::abs(loop.remnantUp), pr, 0.05 * pr);
  EXPECT_GT(loop.remnantDown, 0.0);
  EXPECT_LT(loop.remnantUp, 0.0);
  // Coercive voltages near the static value (slightly larger: kinetics).
  EXPECT_NEAR(loop.coerciveVoltageUp, vc, 0.35);
  EXPECT_NEAR(loop.coerciveVoltageDown, -vc, 0.35);
  EXPECT_GT(loop.coerciveVoltageUp, 0.0);
  EXPECT_LT(loop.coerciveVoltageDown, 0.0);
  // Hysteresis encloses area.
  EXPECT_GT(loop.area(), 0.5 * (2.0 * pr) * vc);
}

TEST(PeLoop, SubCoerciveLoopIsMinor) {
  const LkCoefficients material = fastMaterial();
  const FeGeometry geometry = paperGeometry(1e-9);
  PeLoopOptions minor;
  minor.amplitude = 0.6;  // well below Vc = 1.244
  minor.period = 100e-9;
  PeLoopOptions full;
  full.amplitude = 2.5;
  full.period = 100e-9;
  EXPECT_LT(tracePeLoop(material, geometry, minor).area(),
            0.1 * tracePeLoop(material, geometry, full).area());
}

TEST(PeLoop, SlowerSweepApproachesStaticCoercive) {
  const LkCoefficients material = fastMaterial();
  const FeGeometry geometry = paperGeometry(1e-9);
  PeLoopOptions fast;
  fast.amplitude = 2.5;
  fast.period = 20e-9;
  PeLoopOptions slow = fast;
  slow.period = 400e-9;
  const double vcFast =
      tracePeLoop(material, geometry, fast).coerciveVoltageUp;
  const double vcSlow =
      tracePeLoop(material, geometry, slow).coerciveVoltageUp;
  const double vcStatic = staticCoercive(1e-9);
  EXPECT_GT(vcFast, vcSlow);          // kinetics widen the loop
  EXPECT_GT(vcSlow, vcStatic * 0.98); // never below static
  EXPECT_LT(vcSlow - vcStatic, vcFast - vcStatic);
}

// Property sweep over thickness: loop coercive voltage tracks t_FE * E_c.
class LoopVsThickness : public ::testing::TestWithParam<double> {};

TEST_P(LoopVsThickness, CoerciveVoltageTracksThickness) {
  const double t = GetParam();
  const double vc = staticCoercive(t);
  PeLoopOptions options;
  options.amplitude = 2.0 * vc;
  options.period = 200e-9;
  const PeLoop loop = tracePeLoop(fastMaterial(), paperGeometry(t), options);
  EXPECT_NEAR(loop.coerciveVoltageUp, vc, 0.25 * vc);
}

INSTANTIATE_TEST_SUITE_P(Thicknesses, LoopVsThickness,
                         ::testing::Values(0.5e-9, 1e-9, 1.5e-9, 2.25e-9,
                                           3e-9));

}  // namespace
}  // namespace fefet::core

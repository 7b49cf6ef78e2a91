// Tests of the EKV-style compact transistor model (xtor/mosfet_model.h).
#include "xtor/mosfet_model.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/math.h"
#include "common/units.h"

namespace fefet::xtor {
namespace {

MosfetModel nmos() { return MosfetModel(nmos45(), 65e-9); }

TEST(Mosfet, SubthresholdSlopeNear90mVPerDecade) {
  const auto m = nmos();
  const double i1 = m.idsAt(1.0, 0.10, 0.0);
  const double i2 = m.idsAt(1.0, 0.20, 0.0);
  const double decadesPerVolt = std::log10(i2 / i1) / 0.1;
  const double ss = 1000.0 / decadesPerVolt;  // mV/dec
  EXPECT_NEAR(ss, 90.0, 8.0);
}

TEST(Mosfet, OffAndOnCurrents) {
  const auto m = nmos();
  const double ioff = m.idsAt(1.0, 0.0, 0.0);
  const double ion = m.idsAt(1.0, 1.0, 0.0);
  EXPECT_LT(ioff, 1e-9);
  EXPECT_GT(ioff, 1e-13);
  EXPECT_GT(ion, 2e-5);
  EXPECT_GT(ion / ioff, 1e5);
}

TEST(Mosfet, TriodeVsSaturation) {
  const auto m = nmos();
  const double itriode = m.idsAt(0.05, 0.8, 0.0);
  const double isat = m.idsAt(0.8, 0.8, 0.0);
  EXPECT_GT(isat, itriode);
  // Deep in saturation current saturates (CLM-limited growth only).
  const double isat2 = m.idsAt(1.2, 0.8, 0.0);
  EXPECT_LT((isat2 - isat) / isat, 0.25);
}

TEST(Mosfet, CurrentIsAntisymmetricUnderTerminalSwap) {
  const auto m = nmos();
  for (double vg : {0.3, 0.6, 1.0}) {
    const double fwd = m.idsAt(0.5, vg, 0.1);
    const double rev = m.idsAt(0.1, vg, 0.5);
    EXPECT_NEAR(fwd, -rev, std::abs(fwd) * 1e-9);
  }
}

TEST(Mosfet, PmosMirrorsNmos) {
  const auto n = nmos();
  MosParams pp = pmos45();
  pp.mobility = nmos45().mobility;  // equalize drive for the mirror test
  const MosfetModel p(pp, 65e-9);
  const double in = n.idsAt(0.5, 0.8, 0.0);
  const double ip = p.idsAt(-0.5, -0.8, 0.0);
  EXPECT_NEAR(ip, -in, std::abs(in) * 1e-9);
}

TEST(Mosfet, ZeroVdsZeroCurrent) {
  const auto m = nmos();
  EXPECT_NEAR(m.idsAt(0.0, 1.0, 0.0), 0.0, 1e-15);
}

TEST(Mosfet, GateChargeMonotonic) {
  const auto m = nmos();
  double prev = m.gateChargeDensity(-2.0);
  for (double v = -1.95; v <= 3.0; v += 0.05) {
    const double q = m.gateChargeDensity(v);
    EXPECT_GT(q, prev) << "at vgs=" << v;
    prev = q;
  }
}

TEST(Mosfet, GateChargeBranches) {
  const auto m = nmos();
  // Deep subthreshold: essentially no charge.
  EXPECT_LT(std::abs(m.gateChargeDensity(0.0)), 1e-3);
  // Strong inversion: positive; accumulation: negative.
  EXPECT_GT(m.gateChargeDensity(1.5), 0.05);
  EXPECT_LT(m.gateChargeDensity(-1.8), -0.05);
}

TEST(Mosfet, CapacitanceIsChargeDerivative) {
  const auto m = nmos();
  const double h = 1e-5;
  for (double v : {-1.5, -0.5, 0.0, 0.45, 1.0, 2.0}) {
    const double numeric =
        (m.gateChargeDensity(v + h) - m.gateChargeDensity(v - h)) / (2.0 * h);
    EXPECT_NEAR(m.gateCapacitanceDensity(v), numeric,
                std::abs(numeric) * 1e-3 + 1e-9)
        << "at vgs=" << v;
  }
}

TEST(Mosfet, CapacitanceBelowOxideLimit) {
  const auto m = nmos();
  for (double v = -2.0; v <= 3.0; v += 0.1) {
    EXPECT_LE(m.gateCapacitanceDensity(v), m.params().cox * 1.0001);
    EXPECT_GE(m.gateCapacitanceDensity(v), 0.0);
  }
}

TEST(Mosfet, ChargeStiffeningReducesHighFieldCapacitance) {
  // The quadratic stiffening term makes C fall off in strong inversion.
  const auto m = nmos();
  EXPECT_LT(m.gateCapacitanceDensity(3.0), m.gateCapacitanceDensity(0.8));
}

TEST(Mosfet, GateVoltageForChargeIsInverse) {
  const auto m = nmos();
  for (double q : {-0.1, -0.01, 0.005, 0.05, 0.2}) {
    EXPECT_NEAR(m.gateChargeDensity(m.gateVoltageForCharge(q)), q,
                std::abs(q) * 1e-6 + 1e-12);
  }
}

TEST(Mosfet, EffectiveThresholdDropsWithDibl) {
  const auto m = nmos();
  EXPECT_LT(m.effectiveThreshold(1.0), m.effectiveThreshold(0.0));
}

TEST(Mosfet, RejectsBadParameters) {
  EXPECT_THROW(MosfetModel(nmos45(), 0.0), InvalidArgumentError);
  MosParams bad = nmos45();
  bad.cox = -1.0;
  EXPECT_THROW(MosfetModel(bad, 65e-9), InvalidArgumentError);
}

TEST(Mosfet, DescribeMentionsGeometry) {
  EXPECT_NE(nmos().describe().find("65"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bit-identity oracle for the lane kernel: a straight transcription of the
// model's original expression sequence — separate softplus/logistic calls,
// phi_t recomputed per call, the charge and capacitance densities as two
// independent passes.  It lives here only as the reference the shared
// per-lane helpers (scalar methods and batch kernels alike) must reproduce
// bit for bit.
namespace oracle {

using math::logistic;
using math::softplus;

double thermalVoltage(const MosParams& p) {
  return constants::kBoltzmann * p.temperature / constants::kElementaryCharge;
}

struct NormalModeResult {
  double ids;
  double dIdVgs;
  double dIdVds;
};

NormalModeResult evaluateNormalMode(const MosParams& p, double width,
                                    double phit, double vgs, double vds) {
  const double n = p.slopeFactor;
  const double ispec = 2.0 * n * p.mobility * p.cox * (width / p.length) *
                       phit * phit;
  const double vtEff = p.vt0 - p.dibl * vds;
  const double argF = (vgs - vtEff) / (2.0 * n * phit);
  const double argR = argF - vds / (2.0 * phit);
  const double lf = softplus(argF);
  const double lr = softplus(argR);
  const double sf = logistic(argF);
  const double sr = logistic(argR);
  const double iF = lf * lf;
  const double iR = lr * lr;
  const double argOv = (vgs - vtEff) / (2.0 * phit);
  const double ovs = 2.0 * phit * softplus(argOv);
  const double sOv = logistic(argOv);
  const double mobDen = 1.0 + p.mobilityTheta * ovs;
  const double clm = 1.0 + p.lambda * vds;
  const double m = clm / mobDen;
  const double core = iF - iR;
  const double ids = ispec * core * m;
  const double diFdVgs = lf * sf / (n * phit);
  const double diRdVgs = lr * sr / (n * phit);
  const double diFdVds = lf * sf * p.dibl / (n * phit);
  const double diRdVds = lr * sr * (p.dibl - n) / (n * phit);
  const double dMdVgs = -m * p.mobilityTheta * sOv / mobDen;
  const double dOvsdVds = sOv * p.dibl;
  const double dMdVds =
      p.lambda / mobDen - m * p.mobilityTheta * dOvsdVds / mobDen;
  return {ids, ispec * ((diFdVgs - diRdVgs) * m + core * dMdVgs),
          ispec * ((diFdVds - diRdVds) * m + core * dMdVds)};
}

MosOperatingPoint evaluate(const MosParams& p, double width, double vd,
                           double vg, double vs) {
  double sgn = 1.0;
  if (p.type == MosType::kPmos) {
    vd = -vd;
    vg = -vg;
    vs = -vs;
    sgn = -1.0;
  }
  const double phit = thermalVoltage(p);
  MosOperatingPoint op;
  if (vd >= vs) {
    const auto r = evaluateNormalMode(p, width, phit, vg - vs, vd - vs);
    op.ids = sgn * r.ids;
    op.gm = r.dIdVgs;
    op.gds = r.dIdVds;
  } else {
    const auto r = evaluateNormalMode(p, width, phit, vg - vd, vs - vd);
    op.ids = -sgn * r.ids;
    op.gm = -r.dIdVgs;
    op.gds = r.dIdVgs + r.dIdVds;
  }
  return op;
}

double branchCharge(const MosParams& p, double overdrive) {
  if (overdrive <= 0.0) return 0.0;
  const double c = 1.0 / p.cox;
  const double k = p.chargeStiffening;
  const double s = std::sqrt(c * c + 4.0 * k * overdrive);
  return 2.0 * overdrive / (c + s);
}

double branchCapacitance(const MosParams& p, double overdrive,
                         double logisticFactor) {
  if (overdrive <= 0.0) return p.cox * logisticFactor;
  const double c = 1.0 / p.cox;
  const double k = p.chargeStiffening;
  const double s = std::sqrt(c * c + 4.0 * k * overdrive);
  const double dQdU = 2.0 / (c + s) - 4.0 * k * overdrive /
                                          (s * (c + s) * (c + s));
  return dQdU * logisticFactor;
}

double gateChargeDensityMirror(const MosParams& p, double vgs) {
  const double phit = thermalVoltage(p);
  const double n = p.slopeFactor;
  const double na = p.accSlopeFactor;
  const double uInv = n * phit * softplus((vgs - p.vt0) / (n * phit));
  const double uAcc = na * phit * softplus(-(vgs - p.vfb) / (na * phit));
  return branchCharge(p, uInv) - branchCharge(p, uAcc);
}

double gateChargeDensity(const MosParams& p, double vgs) {
  if (p.type == MosType::kPmos) return -gateChargeDensityMirror(p, -vgs);
  return gateChargeDensityMirror(p, vgs);
}

double gateCapacitanceDensity(const MosParams& p, double vgs) {
  if (p.type == MosType::kPmos) vgs = -vgs;
  const double phit = thermalVoltage(p);
  const double n = p.slopeFactor;
  const double na = p.accSlopeFactor;
  const double xInv = (vgs - p.vt0) / (n * phit);
  const double xAcc = -(vgs - p.vfb) / (na * phit);
  const double uInv = n * phit * softplus(xInv);
  const double uAcc = na * phit * softplus(xAcc);
  return branchCapacitance(p, uInv, logistic(xInv)) +
         branchCapacitance(p, uAcc, logistic(xAcc));
}

}  // namespace oracle

TEST(MosfetModel, LaneKernelMatchesTodaysExpressions) {
  MosParams hot = nmos45();
  hot.temperature = 358.0;
  hot.vt0 = 0.33;
  const std::array<MosfetModel, 3> models{MosfetModel(nmos45(), 65e-9),
                                          MosfetModel(pmos45(), 90e-9),
                                          MosfetModel(hot, 120e-9)};
  // vd/vg/vs grid over [-1.5, 1.5] V: every point of it for each model, so
  // both polarities, normal (vd >= vs) and swapped (vd < vs) modes, and
  // gate voltages from deep accumulation to strong inversion.
  constexpr int kSteps = 40;
  std::vector<double> grid;
  for (int i = 0; i <= kSteps; ++i) grid.push_back(-1.5 + 3.0 * i / kSteps);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const MosfetModel& model : models) {
    const MosParams& p = model.params();
    std::vector<const MosfetModel*> lanes;
    std::vector<double> vd, vg, vs, vgs;
    for (const double d : grid) {
      for (const double g : grid) {
        for (const double s : grid) {
          lanes.push_back(&model);
          vd.push_back(d);
          vg.push_back(g);
          vs.push_back(s);
          vgs.push_back(g - s);
        }
      }
    }
    const std::size_t n = lanes.size();
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    std::vector<MosOperatingPoint> batchOp(n);
    std::vector<double> batchQ(n), batchC(n);
    MosfetModel::evaluateBatch(all, lanes.data(), vd.data(), vg.data(),
                               vs.data(), batchOp.data());
    MosfetModel::gateChargeBatch(all, lanes.data(), vgs.data(), batchQ.data(),
                                 batchC.data());

    EXPECT_EQ(bits(model.thermalVoltage()), bits(oracle::thermalVoltage(p)));
    int mismatches = 0;
    int swapped = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (vd[k] < vs[k]) ++swapped;
      const MosOperatingPoint want =
          oracle::evaluate(p, model.width(), vd[k], vg[k], vs[k]);
      const MosOperatingPoint scalar = model.evaluate(vd[k], vg[k], vs[k]);
      const double wantQ = oracle::gateChargeDensity(p, vgs[k]);
      const double wantC = oracle::gateCapacitanceDensity(p, vgs[k]);
      const bool same =
          bits(scalar.ids) == bits(want.ids) &&
          bits(scalar.gm) == bits(want.gm) &&
          bits(scalar.gds) == bits(want.gds) &&
          bits(batchOp[k].ids) == bits(want.ids) &&
          bits(batchOp[k].gm) == bits(want.gm) &&
          bits(batchOp[k].gds) == bits(want.gds) &&
          bits(model.gateChargeDensity(vgs[k])) == bits(wantQ) &&
          bits(model.gateCapacitanceDensity(vgs[k])) == bits(wantC) &&
          bits(batchQ[k]) == bits(wantQ) && bits(batchC[k]) == bits(wantC);
      if (!same && ++mismatches <= 5) {
        ADD_FAILURE() << model.describe() << " at vd=" << vd[k]
                      << " vg=" << vg[k] << " vs=" << vs[k];
      }
    }
    EXPECT_EQ(mismatches, 0) << model.describe() << ", " << n << " lanes";
    EXPECT_GT(swapped, 0);
  }
}

// Property sweep: analytic gm/gds match finite differences over a bias grid
// (both operating quadrants, including swapped source/drain).
struct Bias {
  double vd, vg, vs;
};
class DerivativeCheck : public ::testing::TestWithParam<Bias> {};

TEST_P(DerivativeCheck, AnalyticMatchesNumeric) {
  const auto m = nmos();
  const auto [vd, vg, vs] = GetParam();
  const auto op = m.evaluate(vd, vg, vs);
  const double h = 1e-6;
  const double gmNum =
      (m.idsAt(vd, vg + h, vs) - m.idsAt(vd, vg - h, vs)) / (2.0 * h);
  const double gdsNum =
      (m.idsAt(vd + h, vg, vs) - m.idsAt(vd - h, vg, vs)) / (2.0 * h);
  const double scale = std::abs(op.ids) + 1e-9;
  EXPECT_NEAR(op.gm, gmNum, scale * 1e-2 + std::abs(gmNum) * 1e-4);
  EXPECT_NEAR(op.gds, gdsNum, scale * 1e-2 + std::abs(gdsNum) * 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, DerivativeCheck,
    ::testing::Values(Bias{0.4, 0.0, 0.0}, Bias{0.4, 0.3, 0.0},
                      Bias{0.4, 0.68, 0.0}, Bias{1.0, 1.0, 0.0},
                      Bias{0.05, 0.8, 0.0}, Bias{0.0, 0.5, 0.4},
                      Bias{0.1, 0.5, 0.4}, Bias{-0.3, 0.5, 0.0},
                      Bias{0.3, 2.0, 0.0}, Bias{0.68, 1.36, 0.68}));

}  // namespace
}  // namespace fefet::xtor

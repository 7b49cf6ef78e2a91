#include "xtor/mosfet_model.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/math.h"
#include "common/units.h"

namespace fefet::xtor {

MosfetModel::MosfetModel(const MosParams& params, double width)
    : params_(params), width_(width) {
  FEFET_REQUIRE(width_ > 0.0, "MOSFET width must be positive");
  FEFET_REQUIRE(params_.length > 0.0, "MOSFET length must be positive");
  FEFET_REQUIRE(params_.cox > 0.0, "oxide capacitance must be positive");
  FEFET_REQUIRE(params_.slopeFactor >= 1.0, "slope factor must be >= 1");
  FEFET_REQUIRE(params_.mobility > 0.0, "mobility must be positive");
  phit_ = constants::kBoltzmann * params_.temperature /
          constants::kElementaryCharge;
  ispec_ = 2.0 * params_.slopeFactor * params_.mobility * params_.cox *
           (width_ / params_.length) * phit_ * phit_;
}

// ---------------------------------------------------------------------------
// Per-lane helpers: the one expression sequence behind both the scalar
// methods and the batch kernels (device_batch.h relies on scalar and batch
// lanes being bit-identical).  Each transcendental runs once per lane:
// softplus and logistic of one argument share their exponential
// (math::softplusLogistic), and the gate charge and capacitance densities
// come out of one pass with one sqrt per branch.

namespace {

/// Normal-mode (vds >= 0) NMOS drain current and its partial derivatives
/// w.r.t. vgs and vds.
struct NormalModeResult {
  double ids;
  double dIdVgs;
  double dIdVds;
};

inline NormalModeResult evaluateNormalMode(const MosParams& p, double ispec,
                                           double phit, double vgs,
                                           double vds) {
  const double n = p.slopeFactor;
  const double vtEff = p.vt0 - p.dibl * vds;

  const double argF = (vgs - vtEff) / (2.0 * n * phit);
  const double argR = argF - vds / (2.0 * phit);
  const auto [lf, sf] = math::softplusLogistic(argF);
  const auto [lr, sr] = math::softplusLogistic(argR);
  const double iF = lf * lf;
  const double iR = lr * lr;

  // Smoothed gate overdrive for the mobility-degradation factor.
  const double argOv = (vgs - vtEff) / (2.0 * phit);
  const auto [spOv, sOv] = math::softplusLogistic(argOv);
  const double ovs = 2.0 * phit * spOv;
  const double mobDen = 1.0 + p.mobilityTheta * ovs;
  const double clm = 1.0 + p.lambda * vds;
  const double m = clm / mobDen;

  const double core = iF - iR;
  const double ids = ispec * core * m;

  // d(iF)/dvgs = lf*sf/(n*phit); same form for iR.
  const double diFdVgs = lf * sf / (n * phit);
  const double diRdVgs = lr * sr / (n * phit);
  // Via vtEff(vds): d(arg)/dvds adds dibl/(2 n phit); iR also has the
  // explicit -vds/(2 phit) term.
  const double diFdVds = lf * sf * p.dibl / (n * phit);
  const double diRdVds = lr * sr * (p.dibl - n) / (n * phit);

  const double dMdVgs = -m * p.mobilityTheta * sOv / mobDen;
  const double dOvsdVds = sOv * p.dibl;
  const double dMdVds =
      p.lambda / mobDen - m * p.mobilityTheta * dOvsdVds / mobDen;

  NormalModeResult r;
  r.ids = ids;
  r.dIdVgs = ispec * ((diFdVgs - diRdVgs) * m + core * dMdVgs);
  r.dIdVds = ispec * ((diFdVds - diRdVds) * m + core * dMdVds);
  return r;
}

/// Drain current and derivatives at absolute terminal voltages: PMOS
/// mirroring and source/drain swap around evaluateNormalMode.
inline MosOperatingPoint evaluateLane(const MosParams& p, double ispec,
                                      double phit, double vd, double vg,
                                      double vs) {
  // Mirror PMOS into NMOS space.
  double sgn = 1.0;
  if (p.type == MosType::kPmos) {
    vd = -vd;
    vg = -vg;
    vs = -vs;
    sgn = -1.0;
  }

  MosOperatingPoint op;
  if (vd >= vs) {
    const auto r = evaluateNormalMode(p, ispec, phit, vg - vs, vd - vs);
    op.ids = sgn * r.ids;
    op.gm = r.dIdVgs;        // dI/dvg
    op.gds = r.dIdVds;       // dI/dvd
  } else {
    // Swapped mode: I(vd,vg,vs) = -I_N with source and drain exchanged.
    const auto r = evaluateNormalMode(p, ispec, phit, vg - vd, vs - vd);
    op.ids = -sgn * r.ids;
    op.gm = -r.dIdVgs;                 // dI/dvg
    op.gds = r.dIdVgs + r.dIdVds;      // dI/dvd (was -dI_N/dvs')
  }
  // PMOS: dI_p/dv = d[-I_n(-v)]/dv = +dI_n/dv' — derivative values carry over.
  return op;
}

/// Areal gate charge and its vgs-derivative.
struct GateCharge {
  double density;
  double capacitance;
};

/// One gate-charge branch at x = (signed overdrive)/(slope·phit): the
/// onset-smoothed overdrive u = slope·phit·softplus(x) maps to charge via
/// the stiffened quadratic u = Q/C_ox + kappa·Q², and dQ/dvgs = dQ/du ·
/// logistic(x).
inline GateCharge gateChargeBranch(const MosParams& p, double slopePhit,
                                   double x) {
  const auto [sp, lg] = math::softplusLogistic(x);
  const double u = slopePhit * sp;
  if (u <= 0.0) return {0.0, p.cox * lg};
  const double c = 1.0 / p.cox;
  const double k = p.chargeStiffening;
  const double s = std::sqrt(c * c + 4.0 * k * u);
  const double dQdU = 2.0 / (c + s) - 4.0 * k * u / (s * (c + s) * (c + s));
  return {2.0 * u / (c + s), dQdU * lg};
}

/// Gate charge at an intrinsic gate-to-channel voltage: inversion branch
/// minus accumulation branch, evaluated in NMOS space (PMOS mirrors the
/// argument and the charge, the capacitance is symmetric).
inline GateCharge gateChargeLane(const MosParams& p, double phit, double vgs) {
  const bool pmos = p.type == MosType::kPmos;
  if (pmos) vgs = -vgs;
  const double n = p.slopeFactor;
  const double na = p.accSlopeFactor;
  const double xInv = (vgs - p.vt0) / (n * phit);
  const double xAcc = -(vgs - p.vfb) / (na * phit);
  const GateCharge inv = gateChargeBranch(p, n * phit, xInv);
  const GateCharge acc = gateChargeBranch(p, na * phit, xAcc);
  const double density = inv.density - acc.density;
  return {pmos ? -density : density, inv.capacitance + acc.capacitance};
}

}  // namespace

MosOperatingPoint MosfetModel::evaluate(double vd, double vg,
                                        double vs) const {
  return evaluateLane(params_, ispec_, phit_, vd, vg, vs);
}

double MosfetModel::idsAt(double vd, double vg, double vs) const {
  return evaluate(vd, vg, vs).ids;
}

void MosfetModel::evaluateBatch(std::span<const std::uint32_t> lanes,
                                const MosfetModel* const* models,
                                const double* vd, const double* vg,
                                const double* vs, MosOperatingPoint* out) {
  for (const std::uint32_t k : lanes) {
    const MosfetModel& m = *models[k];
    out[k] = evaluateLane(m.params_, m.ispec_, m.phit_, vd[k], vg[k], vs[k]);
  }
}

void MosfetModel::gateChargeBatch(std::span<const std::uint32_t> lanes,
                                  const MosfetModel* const* models,
                                  const double* vgs, double* chargeDensity,
                                  double* capacitanceDensity) {
  for (const std::uint32_t k : lanes) {
    // Read the lane input first: chargeDensity may alias vgs.
    const MosfetModel& m = *models[k];
    const GateCharge g = gateChargeLane(m.params_, m.phit_, vgs[k]);
    chargeDensity[k] = g.density;
    capacitanceDensity[k] = g.capacitance;
  }
}

double MosfetModel::gateChargeDensity(double vgs) const {
  return gateChargeLane(params_, phit_, vgs).density;
}

double MosfetModel::gateCapacitanceDensity(double vgs) const {
  return gateChargeLane(params_, phit_, vgs).capacitance;
}

double MosfetModel::gateVoltageForCharge(double q) const {
  const double lo = -10.0, hi = 10.0;
  return math::brent(
      [this, q](double v) { return gateChargeDensity(v) - q; }, lo, hi,
      {.xTolerance = 1e-12});
}

double MosfetModel::effectiveThreshold(double vds) const {
  return params_.vt0 - params_.dibl * std::abs(vds);
}

std::string MosfetModel::describe() const {
  std::ostringstream os;
  os << (params_.type == MosType::kNmos ? "nmos" : "pmos") << " W="
     << width_ * 1e9 << "nm L=" << params_.length * 1e9 << "nm VT="
     << params_.vt0 << "V";
  return os.str();
}

MosParams nmos45() { return MosParams{}; }

MosParams pmos45() {
  MosParams p;
  p.type = MosType::kPmos;
  p.mobility = 4.1e-3;  // ~0.45x NMOS drive
  return p;
}

}  // namespace fefet::xtor

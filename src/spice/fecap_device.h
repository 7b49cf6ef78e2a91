// fecap_device.h — circuit-level ferroelectric capacitor governed by the
// time-dependent LK equation (paper eq. 1).
//
// The polarization P is an auxiliary MNA unknown with constraint equation
//
//     v(a) - v(b) = t_FE * ( E_s(P) + rho * dP/dt )
//
// and terminal current  i = A * dP/dt  (plus an optional linear background
// dielectric).  dP/dt is discretized with the step's companion form, so the
// LK dynamics integrate implicitly together with the circuit — this is the
// key piece that lets the same solver run FERAM cells and FEFET gate stacks.
//
// In DC the viscous term vanishes and the constraint becomes the static
// load-line equation; Newton converges to the solution in the basin of the
// committed polarization state, which is exactly the memory semantics.
#pragma once

#include <optional>

#include "ferro/lk_model.h"
#include "spice/device.h"

namespace fefet::spice {

/// Input of the FeCap's entry-major stamp body (a batch keeps one per lane
/// as scratch).  The terminal current and the background dielectric are
/// read in transient only, the latter only when the device has one.
struct FeCapStampTerms {
  bool background = false;  ///< backgroundCap > 0
  double lkResidual = 0.0;  ///< va - vb - tFe*(E_s(P) + rho*dP/dt)
  double lkSlope = 0.0;     ///< its derivative in P
  double i = 0.0;           ///< terminal current A*dP/dt
  double dIdP = 0.0;
  double bgI = 0.0, bgG = 0.0;  ///< background dielectric companion
};

/// Entry-major stamp body of a FeCap on terminals a (0), b (1) and its
/// polarization unknown (2).
template <class Sink>
void stampFeCap(const Sink& s, const FeCapStampTerms& t, bool dc) {
  constexpr int a = 0, b = 1, p = 2;
  // Constraint row: va - vb - tFe*(Es(P) + rho*dP/dt) = 0.
  s.residual(p) += t.lkResidual;
  s.jacobian(p, a) += 1.0;
  s.jacobian(p, b) += -1.0;
  s.jacobian(p, p) += t.lkSlope;
  if (dc) return;
  // Terminal current from polarization displacement, then the linear
  // background dielectric.
  {
    auto r = s.residual(a);
    r += t.i;
    if (t.background) r += t.bgI;
  }
  {
    auto r = s.residual(b);
    r += -t.i;
    if (t.background) r += -t.bgI;
  }
  s.jacobian(a, p) += t.dIdP;
  s.jacobian(b, p) += -t.dIdP;
  if (!t.background) return;
  s.jacobian(a, a) += t.bgG;
  s.jacobian(a, b) += -t.bgG;
  s.jacobian(b, a) += -t.bgG;
  s.jacobian(b, b) += t.bgG;
}

class FeCapDevice final : public Device {
 public:
  /// `a` is the positive plate (field from a to b is positive for P > 0).
  /// `backgroundEpsR` adds a linear parallel dielectric of the same
  /// geometry (0 disables it).
  FeCapDevice(std::string name, NodeId a, NodeId b,
              const ferro::LkCoefficients& coefficients,
              const ferro::FeGeometry& geometry, double initialPolarization,
              double backgroundEpsR = 0.0);

  void setup(SetupContext& ctx) override;
  void seedUnknowns(std::vector<double>& x) const override;
  void stamp(const EvalContext& ctx) override;
  void initializeState(const SystemView& view) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  double maxStepHint(const SystemView& view) const override;
  static constexpr std::string_view kStateNames[] = {"P", "v"};
  StateNames stateNames() const override { return kStateNames; }
  double state(int k, const SystemView& view) const override;

  /// Committed polarization state [C/m^2].
  double polarization() const { return pCommitted_; }
  /// Override the committed polarization (set the stored bit directly).
  void setPolarization(double p);

  const ferro::LandauKhalatnikov& lk() const { return lk_; }
  const ferro::FeGeometry& geometry() const { return geom_; }
  int auxRow() const { return auxRow_; }

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  /// dP/dt and its dP-derivative factor for the current companion form.
  std::pair<double, double> rateFor(double p, const EvalContext& ctx) const;

  NodeId a_, b_;
  ferro::LandauKhalatnikov lk_;
  ferro::FeGeometry geom_;
  double backgroundCap_;
  /// P_r of the coefficients, fixed at construction for maxStepHint;
  /// empty when the set has none (the hint then asks lk_, which throws).
  std::optional<double> remnantPolarization_;
  int auxRow_ = -1;
  double pCommitted_;
  double rateCommitted_ = 0.0;  ///< dP/dt at the last commit (for TRAP)
  ChargeIntegrator background_;
};

}  // namespace fefet::spice

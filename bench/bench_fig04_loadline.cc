// Reproduces paper Fig. 4:
//  (a) load-line analysis — charge vs voltage of the FE film against the
//      MOSFET gate: one intersection at T_FE = 1 nm (no hysteresis), three
//      at 2.25 nm (hysteresis);
//  (b) coercive-voltage reduction — the FEFET's switching voltages vs the
//      standalone FE capacitor's coercive voltage across thickness (at
//      2.5 nm the capacitor needs > 2 V while the FEFET loop stays inside
//      +/- 1 V).
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/design_space.h"
#include "core/fefet.h"
#include "core/materials.h"

using namespace fefet;

namespace {

/// The quasi-static curve of the design device at T_FE = t.
core::QuasiStaticCurve curveAt(const core::FefetParams& params, double t) {
  core::FefetParams p = params;
  p.feThickness = t;
  return core::QuasiStaticCurve(p);
}

}  // namespace

int main() {
  core::FefetParams params;
  params.lk = core::fefetMaterial();

  // The load line is the quasi-static curve in charge coordinates: at
  // V_G = 0 the FE branch -T_FE*E_s(Q) meets the MOS branch psi(Q) at each
  // equilibrium, and Q = Q_G(psi) is monotone in psi.
  bench::banner("Fig. 4(a): load line at V_G = 0 (intersection count)");
  std::cout << "thickness_nm,equilibria,bistable\n";
  for (double t : {1.0e-9, 1.5e-9, 1.9e-9, 2.25e-9, 2.5e-9}) {
    const std::size_t n = curveAt(params, t).equilibria(0.0).size();
    std::printf("%.2f,%zu,%s\n", t * 1e9, n, n >= 3 ? "yes" : "no");
  }

  std::cout << "\ncharge-voltage branches at T_FE = 2.25 nm "
               "(Q, V_MOS, V_G - V_FE):\n";
  const auto curve = curveAt(params, 2.25e-9);
  std::cout << "q_C_per_m2,mos_branch_V,fe_branch_V\n";
  for (int i = 0; i <= 40; ++i) {
    const double psi = -4.0 + 0.2 * i;
    std::printf("%.4f,%.4f,%.4f\n", curve.chargeDensity(psi), psi,
                psi - curve.gateVoltage(psi));
  }
  const auto equilibria = curve.equilibria(0.0);
  std::cout << "equilibrium charges:";
  for (const auto& eq : equilibria) {
    std::printf(" %.4f(%s)", curve.chargeDensity(eq.internalVoltage),
                eq.stable ? "stable" : "unstable");
  }
  std::cout << "\n";

  bench::banner("Fig. 4(b): FEFET vs standalone-capacitor switching voltage");
  const auto points = core::sweepThickness(
      params, {1.0e-9, 1.5e-9, 1.9e-9, 2.0e-9, 2.25e-9, 2.5e-9});
  std::cout << "thickness_nm,cap_Vc_V,fefet_up_V,fefet_down_V,nonvolatile\n";
  for (const auto& p : points) {
    std::printf("%.2f,%.3f,%.3f,%.3f,%s\n", p.feThickness * 1e9,
                p.standaloneCoerciveVoltage, p.upSwitchVoltage,
                p.downSwitchVoltage, p.nonvolatile ? "yes" : "no");
  }

  bench::Comparison cmp;
  cmp.add("intersections @ 1 nm (monostable)", 1.0,
          static_cast<double>(curveAt(params, 1e-9).equilibria(0.0).size()),
          "count");
  cmp.add("intersections @ 2.25 nm (bistable, >= 3)", 3.0,
          static_cast<double>(equilibria.size()), "count");
  cmp.add("standalone cap V_c @ 2.5 nm (paper: outside +/-2 V)", 3.11,
          points.back().standaloneCoerciveVoltage, "V");
  cmp.add("FEFET loop upper edge @ 2.5 nm (inside +/-1 V)", 1.0,
          points.back().upSwitchVoltage, "V (must be < 1)");
  cmp.add("FEFET loop lower edge @ 2.5 nm (inside +/-1 V)", -1.0,
          points.back().downSwitchVoltage, "V (must be > -1)");
  cmp.print();
  return 0;
}

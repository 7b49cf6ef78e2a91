#include "core/materials.h"

#include "core/cell2t.h"
#include "core/feram_cell.h"
#include "core/write_pulse.h"
#include "ferro/calibrate.h"

namespace fefet::core {

ferro::LkCoefficients fefetMaterial() {
  ferro::LkCoefficients c;  // Table 2 Landau set
  c.rho = 0.885;            // calibrateFefetRho() = 0.891; shipped with a
                            // ~0.7% kinetic margin so writes at exactly the
                            // 550 ps anchor land robustly inside the basin
  return c;
}

ferro::LkCoefficients feramMaterial() {
  ferro::LkCoefficients c;  // Table 2 Landau set
  c.rho = 0.822;            // calibrateFeramRho() result
  return c;
}

namespace {
double bisectRho(const std::function<double(double)>& worstPulse,
                 double targetTime) {
  return ferro::calibrateRho(worstPulse, targetTime, /*rhoMin=*/0.3,
                             /*rhoMax=*/20.0, /*relTolerance=*/2e-4);
}
}  // namespace

double calibrateFefetRho(double vWrite, double targetTime) {
  return bisectRho(
      [&](double rho) {
        Cell2TConfig cfg;
        cfg.fefet.lk.rho = rho;
        Cell2T cell(cfg);
        const double worst = worstWritePulse(cell, vWrite, 8e-9, 2e-12);
        return worst < 0.0 ? 1.0 : worst;  // "infinite" (fails even at max)
      },
      targetTime);
}

double calibrateFeramRho(double vWrite, double targetTime) {
  return bisectRho(
      [&](double rho) {
        FeRamConfig cfg;
        cfg.lk.rho = rho;
        FeRamCell cell(cfg);
        const double worst = worstWritePulse(cell, vWrite, 8e-9, 2e-12);
        return worst < 0.0 ? 1.0 : worst;
      },
      targetTime);
}

}  // namespace fefet::core

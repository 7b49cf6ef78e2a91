// design_explorer — the paper's §3 device co-design loop as a tool: sweep
// the ferroelectric thickness, classify each design (no memory / volatile /
// nonvolatile), pick an operating point for a target write voltage, and
// report the resulting cell metrics and retention trade-off.
//
//   $ ./design_explorer [vwrite]          (default 0.68 V)
#include <cstdio>
#include <cstdlib>

#include "core/cell2t.h"
#include "core/design_space.h"
#include "core/materials.h"
#include "core/write_pulse.h"

using namespace fefet;

int main(int argc, char** argv) {
  const double vWrite = argc > 1 ? std::atof(argv[1]) : 0.68;
  std::printf("FEFET design exploration for V_write = %.2f V\n\n", vWrite);

  core::FefetParams base;
  base.lk = core::fefetMaterial();

  // 1. Thickness sweep: where does memory behaviour appear?
  std::printf("%-6s %-10s %-12s %-22s %s\n", "T_FE", "regime", "window",
              "switching voltages", "on/off");
  for (double t = 1.0e-9; t <= 2.6e-9; t += 0.15e-9) {
    core::FefetParams p = base;
    p.feThickness = t;
    const auto w = core::analyzeHysteresis(p);
    const char* regime = !w.hysteretic ? "logic"
                         : (w.nonvolatile ? "NONVOLATILE" : "volatile");
    if (w.hysteretic) {
      std::printf("%.2fnm %-10s %6.0f mV   [%+6.3f, %+6.3f] V      %s\n",
                  t * 1e9, regime, w.width() * 1e3, w.downSwitchVoltage,
                  w.upSwitchVoltage,
                  w.nonvolatile
                      ? std::to_string(core::distinguishability(p, 0.4))
                            .substr(0, 9)
                            .c_str()
                      : "-");
    } else {
      std::printf("%.2fnm %-10s %6s      %22s -\n", t * 1e9, regime, "-", "");
    }
  }

  // 2. The smallest thickness that is writable at vWrite with margin.
  const double tNv = core::minimumNonvolatileThickness(base, 1.0e-9, 2.5e-9);
  std::printf("\nnon-volatility onset: %.3f nm\n", tNv * 1e9);
  double tPick;
  try {
    tPick = core::recommendThickness(base, vWrite, 0.1);
  } catch (const Error& e) {
    std::printf("no workable thickness for %.2f V: %s\n", vWrite, e.what());
    return 1;
  }
  std::printf("recommended design point: T_FE = %.2f nm\n", tPick * 1e9);

  // 3. Cell metrics at the chosen point.
  core::Cell2TConfig cfg;
  cfg.fefet = base;
  cfg.fefet.feThickness = tPick;
  cfg.levels.vWrite = vWrite;
  core::Cell2T cell(cfg);
  const double t1 = core::minimumWritePulse(cell, true, vWrite);
  const double t0 = core::minimumWritePulse(cell, false, vWrite);
  std::printf("write access time at %.2f V: %.0f ps ('1') / %.0f ps ('0')\n",
              vWrite, t1 * 1e12, t0 * 1e12);
  cell.setStoredBit(true);
  const double iOn = cell.read().readCurrent;
  cell.setStoredBit(false);
  const double iOff = cell.read().readCurrent;
  std::printf("read currents: %.4g uA ('1') vs %.4g pA ('0')\n", iOn * 1e6,
              iOff * 1e12);

  // 4. Retention trade-off (paper §6.2.4).
  const auto ret = core::compareRetention(cfg.fefet, 1.244, 65e-9 * 45e-9);
  std::printf("\nretention: log10(t) = %.1f (FEFET) vs %.1f (FERAM ref); "
              "width for parity = %.0f nm\n",
              ret.fefetLog10Seconds, ret.feramLog10Seconds,
              ret.fefetWidthForParity * 1e9);
  return 0;
}

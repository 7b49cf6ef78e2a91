// Access-granularity study (paper §1: "this work supports bit-level
// access" vs FERAM).  Word/plate lines shared per row make FERAM
// intrinsically row-at-a-time: updating one bit costs a destructive
// whole-row read plus a whole-row write-back.  The FEFET array's decoupled
// paths update exactly one cell.  Both arrays here are full circuit-level
// simulations (2x3, Fig. 7 scale).
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/array_netlist.h"
#include "core/feram_array.h"
#include "core/materials.h"

using namespace fefet;

int main() {
  bench::banner("single-bit update energy: circuit-level arrays (2x3)");

  core::ArrayNetlistConfig fefetCfg;
  fefetCfg.rows = 2;
  fefetCfg.cols = 3;
  fefetCfg.fefet.lk = core::fefetMaterial();
  core::ArrayNetlist fefet(fefetCfg);
  fefet.setPattern({{false, true, false}, {true, false, true}});
  const auto fefetUpdate = fefet.writeBit(0, 0, true);

  core::FeRamArrayConfig feramCfg;
  feramCfg.cell.lk = core::feramMaterial();
  core::FeRamArray feram(feramCfg);
  feram.setPattern({{false, true, false}, {true, false, true}});
  const auto feramUpdate = feram.updateBit(0, 0, true);

  std::printf("FEFET  bit update: %6.3f fJ (one cell write; neighbours "
              "untouched)\n",
              fefetUpdate.totalEnergy * 1e15);
  std::printf("FERAM  bit update: %6.3f fJ (row read + restore + row "
              "rewrite)\n",
              feramUpdate.totalEnergy * 1e15);

  bench::banner("row-width scaling of the penalty");
  std::cout << "cols,fefet_bit_update_fJ,feram_bit_update_fJ,penalty_x\n";
  for (int cols : {2, 3, 4, 6}) {
    core::ArrayNetlistConfig fc;
    fc.fefet.lk = core::fefetMaterial();
    fc.rows = 2;
    fc.cols = cols;
    core::ArrayNetlist fa(fc);
    const double ef = fa.writeBit(0, 0, true).totalEnergy;

    core::FeRamArrayConfig rc;
    rc.cell.lk = core::feramMaterial();
    rc.cols = cols;
    core::FeRamArray ra(rc);
    std::vector<std::vector<bool>> zeros(
        2, std::vector<bool>(static_cast<std::size_t>(cols), false));
    ra.setPattern(zeros);
    const double er = ra.updateBit(0, 0, true).totalEnergy;
    std::printf("%d,%.3f,%.3f,%.1f\n", cols, ef * 1e15, er * 1e15, er / ef);
  }

  bench::Comparison cmp;
  cmp.addText("FEFET bit update leaves the row intact", "yes",
              fefet.bitAt(0, 1) && !fefet.bitAt(0, 2) ? "yes" : "no", "");
  cmp.addText("FERAM bit update succeeded (row-granular)", "yes",
              feramUpdate.ok ? "yes" : "no", "");
  cmp.add("bit-update energy penalty of row granularity", 10.0,
          feramUpdate.totalEnergy / fefetUpdate.totalEnergy, "x");
  cmp.print();
  std::printf("\nThe penalty grows linearly with the row width: a realistic "
              "256-column FERAM page makes single-bit updates hundreds of "
              "times costlier, which is why the paper's NVP backup favours "
              "the bit-addressable FEFET macro.\n");
  return 0;
}

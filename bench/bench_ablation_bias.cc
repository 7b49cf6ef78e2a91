// Ablation of the Table 1 bias scheme (paper §4.1): what happens if the
// unaccessed write-select lines are grounded instead of driven to -VDD?
//
// With WBL at -V_write and an unaccessed gate at 0 V, the unaccessed
// access transistor sees V_GS = +V_write — it turns on and couples the
// negative bit-line level into the unaccessed cell's gate, disturbing (or
// outright erasing) its stored '1'.  The paper's negative select level
// keeps V_GS <= 0 at all times.  This bench quantifies both schemes.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/array_netlist.h"

using namespace fefet;

namespace {
struct StressResult {
  bool victimSurvived = true;
  double worstDisturb = 0.0;
};

StressResult stressColumn(bool negativeSelect, int cycles) {
  core::ArrayNetlistConfig cfg;
  cfg.rows = 2;
  cfg.cols = 3;
  cfg.negativeUnaccessedSelect = negativeSelect;
  core::ArrayNetlist arr(cfg);
  // Victim: cell (1,0) stores '1'; aggressor writes hammer (0,0) with '0'
  // (negative bit line on the shared column).
  arr.setPattern({{true, false, false}, {true, false, false}});
  StressResult out;
  for (int k = 0; k < cycles; ++k) {
    const auto res = arr.writeBit(0, 0, k % 2 == 0 ? false : true);
    out.worstDisturb = std::max(out.worstDisturb, res.maxUnaccessedDisturb);
  }
  out.victimSurvived = arr.bitAt(1, 0);
  return out;
}
}  // namespace

int main() {
  bench::banner("bias-scheme ablation: unaccessed WS = -VDD vs grounded");
  constexpr int kCycles = 6;

  const auto withNeg = stressColumn(true, kCycles);
  const auto withGnd = stressColumn(false, kCycles);

  std::printf("column-hammer stress: %d alternating writes to the cell "
              "above a '1'-storing victim\n\n", kCycles);
  std::printf("%-34s %-18s %s\n", "scheme", "victim survived?",
              "worst unaccessed dP (C/m^2)");
  std::printf("%-34s %-18s %.4f\n", "Table 1 (WS_unacc = -0.68 V)",
              withNeg.victimSurvived ? "yes" : "NO", withNeg.worstDisturb);
  std::printf("%-34s %-18s %.4f\n", "ablated (WS_unacc = 0 V)",
              withGnd.victimSurvived ? "yes" : "NO", withGnd.worstDisturb);

  bench::Comparison cmp;
  cmp.addText("victim survives with the paper's scheme", "yes",
              withNeg.victimSurvived ? "yes" : "no", "");
  cmp.addText("grounded scheme disturbs the victim", "yes",
              (withGnd.worstDisturb > 4.0 * withNeg.worstDisturb ||
               !withGnd.victimSurvived)
                  ? "yes"
                  : "no",
              "");
  cmp.add("disturb ratio (grounded / Table 1)", 0.0,
          withGnd.worstDisturb / std::max(withNeg.worstDisturb, 1e-12),
          "x");
  cmp.print();
  return 0;
}

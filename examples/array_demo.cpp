// array_demo — store a bit pattern in the paper's FEFET array (Fig. 7,
// Table 1 biasing), read it back through the virtual-ground sense lines,
// and report the disturb/sneak health of every operation.
//
//   $ ./array_demo [rows cols]          (default 2x3, the paper's figure)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/array_netlist.h"
#include "core/bias_scheme.h"

using namespace fefet;

int main(int argc, char** argv) {
  core::ArrayNetlistConfig cfg;
  cfg.rows = 2;
  cfg.cols = 3;
  if (argc > 2) {
    cfg.rows = std::atoi(argv[1]);
    cfg.cols = std::atoi(argv[2]);
  }
  std::printf("FEFET 2T array: %d x %d cells\n\n", cfg.rows, cfg.cols);
  std::printf("%s\n", core::describeBiasTable(cfg.levels).c_str());

  core::ArrayNetlist array(cfg);

  // A diagonal-stripe pattern, written one bit at a time.
  std::vector<std::vector<bool>> pattern(
      cfg.rows, std::vector<bool>(cfg.cols, false));
  double worstDisturb = 0.0;
  for (int r = 0; r < cfg.rows; ++r) {
    for (int c = 0; c < cfg.cols; ++c) {
      pattern[r][c] = ((r + c) % 2) == 0;
      const auto res = array.writeBit(r, c, pattern[r][c]);
      worstDisturb = std::max(worstDisturb, res.maxUnaccessedDisturb);
      if (!res.ok) std::printf("  write (%d,%d) FAILED\n", r, c);
    }
  }
  std::printf("pattern written; worst unaccessed-cell disturb %.2g C/m^2 "
              "(state separation ~0.22)\n\n",
              worstDisturb);

  // Read back everything; print stored bits and read currents.
  std::printf("read-back (bit / current):\n");
  bool allCorrect = true;
  for (int r = 0; r < cfg.rows; ++r) {
    std::printf("  row %d: ", r);
    for (int c = 0; c < cfg.cols; ++c) {
      const auto res = array.readBit(r, c);
      allCorrect = allCorrect && (res.bitRead == pattern[r][c]);
      if (res.bitRead) {
        std::printf("[1 %6.1fuA] ", res.readCurrent * 1e6);
      } else {
        std::printf("[0 %6.1fpA] ", res.readCurrent * 1e12);
      }
    }
    std::printf("\n");
  }
  std::printf("\nread-back %s; reads are non-destructive (pattern intact: "
              "%s)\n",
              allCorrect ? "CORRECT" : "WRONG",
              [&] {
                for (int r = 0; r < cfg.rows; ++r)
                  for (int c = 0; c < cfg.cols; ++c)
                    if (array.bitAt(r, c) != pattern[r][c]) return "no";
                return "yes";
              }());

  const auto hold = array.hold(10e-9);
  std::printf("hold mode: all lines grounded, %.3g aJ consumed in 10 ns\n",
              hold.totalEnergy * 1e18);
  return allCorrect ? 0 : 1;
}

// Reproduces paper Fig. 7 + Table 1 on a generated N x M electrical array:
// selective writes/reads under the proposed bias scheme, unaccessed-row
// isolation, disturb and sneak-current quantification — through the
// circuit-level core::ArrayNetlist, so the same binary exercises the flat
// and the hierarchical (BBD/Schur, --hier=1) solve paths at any
// --rows/--cols.
//
// Modes (composable with --rows/--cols/--threads/--writes):
//   default    checkerboard-or-strided writes, hold, read-back; one PERF
//              line with the solve split (fefet.transient vs fefet.hier
//              counters), the collapsed-block ratio and the half-select
//              worst-case disturb margin, plus the REPORT line carrying
//              the average write energy (obs::RunReport).
//   --parity   run the identical op schedule hierarchically AND flat and
//              gate on the DESIGN.md §6.7 tolerances (1e-3 of the memory
//              window on polarizations, 0.5% on the read current).
//   --speedup  time the same transient hold flat vs hierarchically and
//              report the solve-path speedup (check.sh stage 8 smoke).
//   --telemetry-overhead
//              run the write/read schedule on two identical flat arrays,
//              metrics disabled on one and enabled on the other, and
//              report the median per-op thread-CPU cost of collection
//              (check.sh stage 4 gate).
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "core/array_netlist.h"
#include "core/bias_scheme.h"
#include "obs/metrics.h"
#include "spice/hier_engine.h"
#include "spice/newton.h"

using namespace fefet;

namespace {

struct Cli {
  int rows = 2;
  int cols = 3;
  bool hier = false;  ///< --hier=1: BBD/Schur solve instead of flat
  int threads = 1;
  int writes = 0;  ///< 0 = auto (checkerboard when small, 8 strided else)
  bool parity = false;
  bool speedup = false;
  bool telemetryOverhead = false;
};

Cli parseCli(int argc, char** argv) {
  Cli cli;
  const auto valueOf = [](const char* arg, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = valueOf(arg, "--rows=")) {
      cli.rows = std::atoi(v);
    } else if (const char* v = valueOf(arg, "--cols=")) {
      cli.cols = std::atoi(v);
    } else if (const char* v = valueOf(arg, "--hier=")) {
      cli.hier = std::atoi(v) != 0;
    } else if (const char* v = valueOf(arg, "--threads=")) {
      cli.threads = std::atoi(v);
    } else if (const char* v = valueOf(arg, "--writes=")) {
      cli.writes = std::atoi(v);
    } else if (std::strcmp(arg, "--parity") == 0) {
      cli.parity = true;
    } else if (std::strcmp(arg, "--speedup") == 0) {
      cli.speedup = true;
    } else if (std::strcmp(arg, "--telemetry-overhead") == 0) {
      cli.telemetryOverhead = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--rows=N] [--cols=M] "
                   "[--hier=0|1] [--threads=N] [--writes=K] [--parity] "
                   "[--speedup] [--telemetry-overhead]\n",
                   arg, argv[0]);
      std::exit(2);
    }
  }
  if (cli.rows < 1 || cli.cols < 1) {
    std::fprintf(stderr, "--rows/--cols must be >= 1\n");
    std::exit(2);
  }
  return cli;
}

core::ArrayNetlistConfig makeConfig(const Cli& cli, bool hierarchical) {
  core::ArrayNetlistConfig config;
  config.rows = cli.rows;
  config.cols = cli.cols;
  config.newton.useHierarchicalSolve = hierarchical;
  config.newton.hierThreads = cli.threads;
  return config;
}

struct WriteOp {
  int row = 0;
  int col = 0;
  bool bit = false;
};

/// Deterministic op schedule: full checkerboard for small arrays, a strided
/// diagonal walk (every row and column class gets visited) otherwise.
std::vector<WriteOp> makeSchedule(const Cli& cli) {
  std::vector<WriteOp> ops;
  if (cli.writes <= 0 && cli.rows * cli.cols <= 36) {
    for (int r = 0; r < cli.rows; ++r) {
      for (int c = 0; c < cli.cols; ++c) {
        ops.push_back({r, c, (r + c) % 2 == 0});
      }
    }
    return ops;
  }
  const int count = cli.writes > 0 ? cli.writes : 8;
  for (int k = 0; k < count; ++k) {
    ops.push_back({(k * 5 + 2) % cli.rows, (k * 3 + 1) % cli.cols,
                   k % 2 == 0});
  }
  return ops;
}

struct RunOutcome {
  bool ok = true;
  int writes = 0;
  double worstDisturb = 0.0;
  double worstSneak = 0.0;
  double totalEnergy = 0.0;
  double wallSeconds = 0.0;
  double readCurrent = 0.0;  ///< last read-back current
};

/// Execute the schedule (writes, 1 ns hold, read-back of every written
/// cell) and verify the read-back pattern.
RunOutcome runSchedule(core::ArrayNetlist& array,
                       const std::vector<WriteOp>& ops) {
  RunOutcome out;
  const bench::WallTimer timer;
  std::map<std::pair<int, int>, bool> expected;
  for (const auto& op : ops) {
    const auto res = array.writeBit(op.row, op.col, op.bit);
    out.ok = out.ok && res.ok;
    out.worstDisturb = std::max(out.worstDisturb, res.maxUnaccessedDisturb);
    out.worstSneak = std::max(out.worstSneak, res.maxSneakCurrent);
    out.totalEnergy += res.totalEnergy;
    ++out.writes;
    expected[{op.row, op.col}] = op.bit;
  }
  array.hold(1e-9);
  for (const auto& [cell, bit] : expected) {
    const auto res = array.readBit(cell.first, cell.second);
    out.ok = out.ok && res.ok && res.bitRead == bit;
    out.worstSneak = std::max(out.worstSneak, res.maxSneakCurrent);
    out.readCurrent = res.readCurrent;
  }
  out.wallSeconds = timer.seconds();
  return out;
}

void printState(const core::ArrayNetlist& arr, const char* label) {
  std::printf("%s\n", label);
  for (int r = 0; r < arr.rows(); ++r) {
    std::printf("  row %d:", r);
    for (int c = 0; c < arr.cols(); ++c) {
      std::printf(" %d", arr.bitAt(r, c) ? 1 : 0);
    }
    std::printf("\n");
  }
}

/// DESIGN.md §6.7 parity gate: identical schedule hierarchically and flat.
int runParity(const Cli& cli, const std::vector<WriteOp>& ops) {
  bench::banner("hierarchical-vs-flat parity gate");
  core::ArrayNetlist hier(makeConfig(cli, /*hierarchical=*/true));
  core::ArrayNetlist flat(makeConfig(cli, /*hierarchical=*/false));
  const auto oh = runSchedule(hier, ops);
  const auto of = runSchedule(flat, ops);

  const double window = std::abs(hier.pOn() - hier.pOff());
  const auto ph = hier.polarizations();
  const auto pf = flat.polarizations();
  double worstDp = 0.0;
  bool bitsMatch = true;
  for (int r = 0; r < cli.rows; ++r) {
    for (int c = 0; c < cli.cols; ++c) {
      worstDp = std::max(worstDp,
                         std::abs(ph[static_cast<std::size_t>(r)]
                                    [static_cast<std::size_t>(c)] -
                                  pf[static_cast<std::size_t>(r)]
                                    [static_cast<std::size_t>(c)]));
      bitsMatch = bitsMatch && hier.bitAt(r, c) == flat.bitAt(r, c);
    }
  }
  const double readRel =
      std::abs(oh.readCurrent - of.readCurrent) /
      std::max(std::abs(of.readCurrent), 1e-30);
  const bool pass = oh.ok && of.ok && bitsMatch &&
                    worstDp <= 1e-3 * window && readRel <= 5e-3;
  std::printf(
      "PERF {\"bench\":\"fig07_array_bias\",\"mode\":\"parity\","
      "\"rows\":%d,\"cols\":%d,\"writes\":%d,\"dp_worst\":%.3e,"
      "\"dp_tol\":%.3e,\"read_rel\":%.3e,\"read_tol\":5e-3,"
      "\"bits_match\":%s,\"pass\":%s,\"hier_s\":%.3f,\"flat_s\":%.3f}\n",
      cli.rows, cli.cols, static_cast<int>(ops.size()), worstDp,
      1e-3 * window, readRel, bitsMatch ? "true" : "false",
      pass ? "true" : "false", oh.wallSeconds, of.wallSeconds);
  return pass ? 0 : 1;
}

/// check.sh stage 8 smoke: the same short transient flat vs hierarchical.
int runSpeedup(const Cli& cli) {
  bench::banner("hierarchical solve speedup smoke");
  core::ArrayNetlist hier(makeConfig(cli, /*hierarchical=*/true));
  core::ArrayNetlist flat(makeConfig(cli, /*hierarchical=*/false));
  // One short op keeps the comparison quick at large sizes.
  const double holdTime = 0.3e-9;
  const bench::WallTimer tf;
  flat.hold(holdTime);
  const double flatSeconds = tf.seconds();
  const bench::WallTimer th;
  hier.hold(holdTime);
  const double hierSeconds = th.seconds();
  const double speedup = hierSeconds > 0.0 ? flatSeconds / hierSeconds : 0.0;
  std::printf(
      "PERF {\"bench\":\"fig07_array_bias\",\"mode\":\"speedup\","
      "\"rows\":%d,\"cols\":%d,\"threads\":%d,\"flat_s\":%.3f,"
      "\"hier_s\":%.3f,\"speedup\":%.2f}\n",
      cli.rows, cli.cols, cli.threads, flatSeconds, hierSeconds, speedup);
  return 0;
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// check.sh stage 4 gate: what metrics collection costs on the Fig. 7
/// array transients.  Two identical flat arrays run the same schedule in
/// lockstep (the counters do not touch the numerics, so both do the same
/// work).  Each op runs once per array, one run with metrics disabled and
/// one enabled, timed in thread CPU time; the two runs form a pair, so
/// both halves see the same machine state.  Pairs cycle through the four
/// combinations of which array runs first and which has metrics on, so
/// neither order nor memory layout favours one side.  The overhead is the
/// median enabled/disabled ratio over the pairs, minus 1.
int runTelemetryOverhead(const Cli& cli, const std::vector<WriteOp>& ops) {
  bench::banner("telemetry overhead: metrics off vs on, op-interleaved");
  const bool wasEnabled = obs::Metrics::enabled();
  core::ArrayNetlist a(makeConfig(cli, /*hierarchical=*/false));
  core::ArrayNetlist b(makeConfig(cli, /*hierarchical=*/false));
  std::vector<double> ratios;
  const auto pair = [&](const auto& op) {
    const auto timed = [&](core::ArrayNetlist& array, bool metrics) {
      obs::Metrics::setEnabled(metrics);
      const double t0 = threadCpuSeconds();
      op(array);
      return threadCpuSeconds() - t0;
    };
    const std::size_t cycle = ratios.size() % 4;
    const bool aFirst = cycle < 2;
    const bool firstOn = cycle % 2 == 1;
    const double first = timed(aFirst ? a : b, firstOn);
    const double second = timed(aFirst ? b : a, !firstOn);
    ratios.push_back(firstOn ? first / second : second / first);
  };
  for (const auto& w : ops) {
    pair([&](core::ArrayNetlist& x) { x.writeBit(w.row, w.col, w.bit); });
    pair([&](core::ArrayNetlist& x) { x.readBit(w.row, w.col); });
  }
  obs::Metrics::setEnabled(wasEnabled);
  const double median = stats::percentile(ratios, 50.0);
  std::printf(
      "PERF {\"bench\":\"fig07_array_bias\",\"mode\":\"telemetry_overhead\","
      "\"rows\":%d,\"cols\":%d,\"pairs\":%zu,\"overhead\":%.4f}\n",
      cli.rows, cli.cols, ratios.size(), median - 1.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parseCli(argc, argv);

  bench::banner("Table 1: bias conditions of the memory array");
  core::BiasLevels levels;
  std::cout << core::describeBiasTable(levels);

  const auto ops = makeSchedule(cli);
  if (cli.parity) return runParity(cli, ops);
  if (cli.speedup) return runSpeedup(cli);
  if (cli.telemetryOverhead) return runTelemetryOverhead(cli, ops);

  bench::TelemetrySession telemetry("fig07_array_bias");
  char title[128];
  std::snprintf(title, sizeof(title),
                "Fig. 7: %dx%d array operations (%s solve)", cli.rows,
                cli.cols, cli.hier ? "hierarchical" : "flat");
  bench::banner(title);

  core::ArrayNetlist array(makeConfig(cli, cli.hier));
  const std::uint64_t newtonBefore =
      obs::Metrics::counter("fefet.transient.newton_iterations").total();
  const auto outcome = runSchedule(array, ops);
  const std::uint64_t newtonIters =
      obs::Metrics::counter("fefet.transient.newton_iterations").total() -
      newtonBefore;

  if (cli.rows * cli.cols <= 36) {
    printState(array, "array state after writes + read-back:");
  }
  const double window = std::abs(array.pOn() - array.pOff());
  const double disturbFrac = window > 0.0 ? outcome.worstDisturb / window : 0.0;
  // Half-select budget: Table 1's sneak-path-free claim, gated at 5% of
  // the memory window (the margin is how much of the budget is unused).
  const double disturbMargin = 1.0 - disturbFrac / 0.05;
  const double avgWriteEnergy =
      outcome.writes > 0 ? outcome.totalEnergy / outcome.writes : 0.0;
  std::printf("worst unaccessed-cell disturb: %.4g C/m^2 (%.3g%% of the "
              "window)\n", outcome.worstDisturb, disturbFrac * 100.0);
  std::printf("worst sneak current: %.4g nA\n", outcome.worstSneak * 1e9);
  std::printf("average write energy (cell+lines): %.3g fJ\n",
              avgWriteEnergy * 1e15);

  // Solve split + collapsed-block ratio from the hierarchical engine.
  long hierSolves = 0, blockFactors = 0, blockSkips = 0;
  long schurRefactors = 0, schurReuses = 0;
  double collapsedRatio = 0.0;
  int blocks = 0, border = 0;
  if (const spice::HierEngine* hier = array.simulator().newton().hier()) {
    const linalg::SchurStats& stats = hier->stats();
    hierSolves = stats.solves;
    blockFactors = stats.blockFactorizations;
    blockSkips = stats.blockFactorSkips;
    schurRefactors = stats.schurRefactorizations;
    schurReuses = stats.schurReuses;
    const long evals = blockFactors + blockSkips;
    collapsedRatio = evals > 0 ? static_cast<double>(blockSkips) / evals : 0.0;
    blocks = hier->blockCount();
    border = hier->borderSize();
    std::printf("hierarchical solve: %d blocks, border %d, %.1f%% of block "
                "evals skipped\n", blocks, border, collapsedRatio * 100.0);
  }

  std::printf(
      "PERF {\"bench\":\"fig07_array_bias\",\"mode\":\"run\",\"rows\":%d,"
      "\"cols\":%d,\"hier\":%s,\"threads\":%d,\"writes\":%d,\"ok\":%s,"
      "\"wall_s\":%.3f,\"newton_iters\":%llu,\"hier_solves\":%ld,"
      "\"block_factors\":%ld,\"block_skips\":%ld,\"collapsed_ratio\":%.4f,"
      "\"schur_refactors\":%ld,\"schur_reuses\":%ld,\"blocks\":%d,"
      "\"border\":%d,\"disturb_worst\":%.4g,\"disturb_frac\":%.4g,"
      "\"disturb_margin\":%.3f,\"sneak_worst_nA\":%.4g,"
      "\"avg_write_energy_fJ\":%.4g}\n",
      cli.rows, cli.cols, cli.hier ? "true" : "false", cli.threads,
      outcome.writes, outcome.ok ? "true" : "false", outcome.wallSeconds,
      static_cast<unsigned long long>(newtonIters), hierSolves, blockFactors,
      blockSkips, collapsedRatio, schurRefactors, schurReuses, blocks, border,
      outcome.worstDisturb, disturbFrac, disturbMargin,
      outcome.worstSneak * 1e9, avgWriteEnergy * 1e15);

  bench::Comparison cmp;
  cmp.addText("write + read-back", "correct",
              outcome.ok ? "correct" : "WRONG", "");
  cmp.add("write disturb on unaccessed cells", 0.0, outcome.worstDisturb,
          "C/m^2 (<< 0.22)");
  cmp.add("sneak current (eliminated)", 0.0, outcome.worstSneak * 1e9, "nA");
  cmp.print();

  // REPORT line: the write-energy figure of merit through obs::RunReport.
  telemetry.report().addNumber("rows", cli.rows);
  telemetry.report().addNumber("cols", cli.cols);
  telemetry.report().addBool("hierarchical", cli.hier);
  telemetry.report().addCount("writes",
                              static_cast<std::uint64_t>(outcome.writes));
  telemetry.report().addNumber("avg_write_energy_fJ", avgWriteEnergy * 1e15);
  telemetry.report().addNumber("worst_disturb_frac", disturbFrac);
  telemetry.report().addNumber("disturb_margin", disturbMargin);
  telemetry.report().addNumber("collapsed_ratio", collapsedRatio);
  telemetry.report().addBool("ok", outcome.ok);
  telemetry.finish();
  return outcome.ok ? 0 : 1;
}

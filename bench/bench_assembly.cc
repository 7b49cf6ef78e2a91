// bench_assembly — microbenchmark of the compiled stamp pipeline (slot
// programs + SoA device batches) at array scale.
//
// Two netlists, each assembled repeatedly at one fixed iterate in the
// transient stamp mode with trapezoidal companions, as every transient step
// after a run's first:
//
//  * an RC ladder with periodic diodes (the linear/nonlinear row structure
//    of a bit-line column; the diodes stamp through the generic per-device
//    path, the R/C/V lanes through their batches); the assemble and solve
//    phases are timed separately;
//  * the Fig. 7 8x8 FEFET array (core::ArrayNetlist: 64 FEFETs = 128
//    MOSFETs + 64 FE capacitors, plus line drivers and wire caps), at the
//    iterate a 1 ns hold after a checkerboard pattern leaves.  This is the
//    MOSFET lane kernel and the netlist-order scatter that dominate array
//    assembly.  Repeating one iterate makes every MOSFET lane a bypass hit
//    after the first pass (array_assemble_s), so the array is timed a
//    second way: alternating with a copy of the iterate 1 mV higher on
//    every node, far outside the bypass band, which makes every lane run
//    the model (array_eval_assemble_s).
//
// Prints only the banners and one machine-readable PERF line, which
// carries every timing and its repetition count:
//
//   PERF {"bench":"bench_assembly","unknowns":...,"reps":...,
//         "compiled_assemble_s":...,"compiled_solve_s":...,
//         "stamps_per_sec":...,"array_unknowns":...,"array_reps":...,
//         "array_assemble_s":...,"array_stamps_per_sec":...,
//         "array_eval_assemble_s":...}
#include <array>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/array_netlist.h"
#include "spice/assembler.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/sources.h"
#include "spice/stamp_pattern.h"

namespace fefet {
namespace {

using namespace spice;

// RC ladder with periodic diodes: the same mixed linear/nonlinear row
// structure a bit-line column presents, at array scale.
void buildLadderNetlist(Netlist& n, int stages) {
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(),
                       shapes::pulse(0.0, 1.0, 0.0, 50e-12, 1.0, 50e-12));
  for (int i = 0; i < stages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
    if (i % 7 == 0) n.add<Diode>("D" + std::to_string(i), b, n.ground());
  }
}

constexpr double kGmin = 1e-12;
constexpr double kTime = 0.3e-9;
constexpr double kDt = 1e-12;

/// Wall seconds for `reps` assemblies of `n` cycling through `views`
/// (after one warm-up), and the matching Jacobian stamps per second.
struct AssemblyTiming {
  double assembleS = 0.0;
  double stampsPerSec = 0.0;
};

AssemblyTiming timeAssembly(Assembler& assembler, const Netlist& n,
                            std::span<const SystemView> views, int reps) {
  const auto assemble = [&](int r) {
    assembler.assemble(n, views[static_cast<std::size_t>(r) % views.size()],
                       /*dc=*/false, kTime, kDt,
                       IntegrationMethod::kTrapezoidal, kGmin);
  };
  assemble(reps - 1);  // warm-up on the view the timed loop does not start at
  bench::WallTimer timer;
  for (int r = 0; r < reps; ++r) assemble(r);
  AssemblyTiming t;
  t.assembleS = timer.seconds();
  const std::size_t stampsPerAssembly =
      n.stampPattern().jacobianCalls(StampMode::kTransient).size();
  t.stampsPerSec = t.assembleS > 0.0 ? static_cast<double>(stampsPerAssembly) *
                                           reps / t.assembleS
                                     : 0.0;
  return t;
}

int run() {
  bench::TelemetrySession telemetry("bench_assembly");
  constexpr int kStages = 240;
  constexpr int kReps = 2000;
  constexpr int kArrayReps = 20000;

  // --- RC/diode ladder ----------------------------------------------------
  Netlist n;
  buildLadderNetlist(n, kStages);
  const int unknowns = n.freeze();
  bench::banner("assembly: compiled stamp pipeline, RC/diode ladder (" +
                std::to_string(unknowns) + " unknowns)");

  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.05);
  for (const auto& device : n.devices()) device->seedUnknowns(x);
  const SystemView view(x, n.nodeCount());

  Assembler compiled(n.stampPattern());
  std::vector<double> dx;
  // Warm up the solve (the first one pays the one-time symbolic LU).
  compiled.assemble(n, view, /*dc=*/false, kTime, kDt,
                    IntegrationMethod::kTrapezoidal, kGmin);
  compiled.solveForUpdate(dx);
  const AssemblyTiming ladder = timeAssembly(compiled, n, {&view, 1}, kReps);

  bench::WallTimer tCompiledSolve;
  for (int r = 0; r < kReps; ++r) compiled.solveForUpdate(dx);
  const double compiledSolveS = tCompiledSolve.seconds();

  // --- 8x8 FEFET array ----------------------------------------------------
  core::ArrayNetlistConfig config;
  config.rows = config.cols = 8;
  core::ArrayNetlist array(config);
  std::vector<std::vector<bool>> pattern(8, std::vector<bool>(8, false));
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) pattern[r][c] = (r + c) % 2 == 0;
  }
  array.setPattern(pattern);
  array.hold(1e-9);
  const Netlist& an = array.netlist();
  const std::vector<double>& ax = array.simulator().solution();
  const int arrayUnknowns = static_cast<int>(ax.size());
  bench::banner("assembly: 8x8 FEFET array (" +
                std::to_string(arrayUnknowns) + " unknowns)");
  const SystemView arrayView(ax, an.nodeCount());
  Assembler arrayAssembler(an.stampPattern());
  const AssemblyTiming arrayTiming =
      timeAssembly(arrayAssembler, an, {&arrayView, 1}, kArrayReps);

  std::vector<double> axShifted = ax;
  for (int i = 0; i < an.nodeCount(); ++i) {
    axShifted[static_cast<std::size_t>(i)] += 1e-3;
  }
  const std::array<SystemView, 2> alternating{
      arrayView, SystemView(axShifted, an.nodeCount())};
  const AssemblyTiming evalTiming =
      timeAssembly(arrayAssembler, an, alternating, kArrayReps);

  std::printf(
      "PERF {\"bench\":\"bench_assembly\",\"unknowns\":%d,\"reps\":%d,"
      "\"compiled_assemble_s\":%.4f,\"compiled_solve_s\":%.4f,"
      "\"stamps_per_sec\":%.3g,\"array_unknowns\":%d,\"array_reps\":%d,"
      "\"array_assemble_s\":%.4f,\"array_stamps_per_sec\":%.3g,"
      "\"array_eval_assemble_s\":%.4f}\n",
      unknowns, kReps, ladder.assembleS, compiledSolveS, ladder.stampsPerSec,
      arrayUnknowns, kArrayReps, arrayTiming.assembleS,
      arrayTiming.stampsPerSec, evalTiming.assembleS);

  telemetry.report().addCount("unknowns", static_cast<std::uint64_t>(unknowns));
  telemetry.report().addCount("reps", static_cast<std::uint64_t>(kReps));
  telemetry.report().addNumber("stamps_per_sec", ladder.stampsPerSec);
  telemetry.report().addCount("array_unknowns",
                              static_cast<std::uint64_t>(arrayUnknowns));
  telemetry.report().addNumber("array_stamps_per_sec",
                               arrayTiming.stampsPerSec);
  telemetry.finish();
  return 0;
}

}  // namespace
}  // namespace fefet

int main() { return fefet::run(); }

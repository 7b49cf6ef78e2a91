// bench_assembly — microbenchmark of the compiled stamp pipeline (lane
// tables + SoA device batches) at array scale.
//
// Two netlists, each assembled repeatedly at one fixed iterate in the
// transient stamp mode with trapezoidal companions, as every transient step
// after a run's first:
//
//  * an RC ladder with periodic diodes (the linear/nonlinear row structure
//    of a bit-line column; every device, the diodes included, stamps as a
//    lane of its kind's batch); the assemble and solve phases are timed
//    separately;
//  * the Fig. 7 8x8 FEFET array (core::ArrayNetlist: 64 FEFETs = 128
//    MOSFETs + 64 FE capacitors, plus line drivers and wire caps), at the
//    iterate a 1 ns hold after a checkerboard pattern leaves.  This is the
//    MOSFET lane kernel and the netlist-order stamping that dominate array
//    assembly.  Repeating one iterate makes every MOSFET lane a bypass hit
//    after the first pass (array_assemble_s), so the array is timed a
//    second way: alternating with a copy of the iterate 1 mV higher on
//    every node, far outside the bypass band, which makes every lane run
//    the model (array_eval_assemble_s);
//  * the 2T cell perfbench's cell_sweep builds (core::Cell2T on the
//    calibrated FEFET material: 2 MOSFETs, 1 FE capacitor, 4 line drivers),
//    at the iterate a 550 ps write of '1' leaves, timed the same two ways
//    (cell_assemble_s, cell_eval_assemble_s).  Its 11 unknowns give the
//    fixed cost per assembly at cell scale its own number.
//
// Prints only the banners and one machine-readable PERF line, which
// carries every timing, its repetition count and the Jacobian pattern's
// non-zero count (nnz) of the netlist it assembles:
//
//   PERF {"bench":"bench_assembly","unknowns":...,"reps":...,
//         "compiled_assemble_s":...,"nnz":...,"compiled_solve_s":...,
//         "array_unknowns":...,"array_reps":...,"array_assemble_s":...,
//         "array_nnz":...,"array_eval_assemble_s":...,"cell_unknowns":...,
//         "cell_reps":...,"cell_assemble_s":...,"cell_nnz":...,
//         "cell_eval_assemble_s":...}
#include <array>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/array_netlist.h"
#include "core/cell2t.h"
#include "core/materials.h"
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

/// Assembly wall seconds at one iterate, repeated (every MOSFET lane a
/// bypass hit) and alternating with a copy 1 mV higher on every node (every
/// lane evaluated).
struct BypassTimings {
  double hitsS = 0.0;
  double evaluatedS = 0.0;
};

double timeAssembly(Assembler& assembler, const Netlist& n,
                    std::span<const SystemView> views, int reps);

BypassTimings timeBypassAndEval(const Netlist& n, const std::vector<double>& x,
                                int reps) {
  const SystemView view(x, n.nodeCount());
  Assembler assembler(n.stampPattern());
  BypassTimings t;
  t.hitsS = timeAssembly(assembler, n, {&view, 1}, reps);
  std::vector<double> shifted = x;
  for (int i = 0; i < n.nodeCount(); ++i) {
    shifted[static_cast<std::size_t>(i)] += 1e-3;
  }
  const std::array<SystemView, 2> alternating{
      view, SystemView(shifted, n.nodeCount())};
  t.evaluatedS = timeAssembly(assembler, n, alternating, reps);
  return t;
}

/// Wall seconds for `reps` assemblies of `n` cycling through `views`
/// (after one warm-up).
double timeAssembly(Assembler& assembler, const Netlist& n,
                    std::span<const SystemView> views, int reps) {
  const auto assemble = [&](int r) {
    assembler.assemble(n, views[static_cast<std::size_t>(r) % views.size()],
                       /*dc=*/false, kTime, kDt,
                       IntegrationMethod::kTrapezoidal, kGmin);
  };
  assemble(reps - 1);  // warm-up on the view the timed loop does not start at
  bench::WallTimer timer;
  for (int r = 0; r < reps; ++r) assemble(r);
  return timer.seconds();
}

int run() {
  bench::TelemetrySession telemetry("bench_assembly");
  constexpr int kStages = 240;
  constexpr int kReps = 2000;
  constexpr int kArrayReps = 20000;
  constexpr int kCellReps = 400000;

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
  const double ladderS = timeAssembly(compiled, n, {&view, 1}, kReps);

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
  const BypassTimings arrayTimings = timeBypassAndEval(an, ax, kArrayReps);

  // --- 2T cell ------------------------------------------------------------
  core::Cell2TConfig cellConfig;
  cellConfig.fefet.lk = core::fefetMaterial();
  core::Cell2T cell(cellConfig);
  cell.write(true, 550e-12);
  const Netlist& cn = cell.simulator().netlist();
  const std::vector<double>& cx = cell.simulator().solution();
  const int cellUnknowns = static_cast<int>(cx.size());
  bench::banner("assembly: 2T cell (" + std::to_string(cellUnknowns) +
                " unknowns)");
  const BypassTimings cellTimings = timeBypassAndEval(cn, cx, kCellReps);

  const std::size_t nnz = n.stampPattern().nonZeros();
  const std::size_t arrayNnz = an.stampPattern().nonZeros();
  const std::size_t cellNnz = cn.stampPattern().nonZeros();
  std::printf(
      "PERF {\"bench\":\"bench_assembly\",\"unknowns\":%d,\"reps\":%d,"
      "\"compiled_assemble_s\":%.4f,\"nnz\":%zu,\"compiled_solve_s\":%.4f,"
      "\"array_unknowns\":%d,\"array_reps\":%d,"
      "\"array_assemble_s\":%.4f,\"array_nnz\":%zu,"
      "\"array_eval_assemble_s\":%.4f,\"cell_unknowns\":%d,"
      "\"cell_reps\":%d,\"cell_assemble_s\":%.4f,\"cell_nnz\":%zu,"
      "\"cell_eval_assemble_s\":%.4f}\n",
      unknowns, kReps, ladderS, nnz, compiledSolveS, arrayUnknowns,
      kArrayReps, arrayTimings.hitsS, arrayNnz, arrayTimings.evaluatedS,
      cellUnknowns, kCellReps, cellTimings.hitsS, cellNnz,
      cellTimings.evaluatedS);

  telemetry.report().addCount("unknowns", static_cast<std::uint64_t>(unknowns));
  telemetry.report().addCount("reps", static_cast<std::uint64_t>(kReps));
  telemetry.report().addCount("nnz", nnz);
  telemetry.report().addCount("array_unknowns",
                              static_cast<std::uint64_t>(arrayUnknowns));
  telemetry.report().addCount("array_nnz", arrayNnz);
  telemetry.report().addCount("cell_unknowns",
                              static_cast<std::uint64_t>(cellUnknowns));
  telemetry.report().addCount("cell_nnz", cellNnz);
  telemetry.finish();
  return 0;
}

}  // namespace
}  // namespace fefet

int main() { return fefet::run(); }

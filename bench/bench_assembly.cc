// bench_assembly — microbenchmark of the compiled stamp pipeline (slot
// programs + SoA device batches) on an array-scale netlist, the
// configuration where assembly cost used to rival the LU itself.
//
// Times the assemble and solve phases separately over identical iterates
// and emits one machine-readable PERF line:
//
//   PERF {"bench":"bench_assembly","unknowns":...,"reps":...,
//         "compiled_assemble_s":...,"compiled_solve_s":...,
//         "stamps_per_sec":...}
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "spice/assembler.h"
#include "spice/extras.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/sources.h"
#include "spice/stamp_pattern.h"

namespace fefet {
namespace {

using namespace spice;

// RC ladder with periodic diodes: the same mixed linear/nonlinear row
// structure a bit-line column presents, at array scale.
void buildArrayNetlist(Netlist& n, int stages) {
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

int run() {
  bench::TelemetrySession telemetry("bench_assembly");
  constexpr int kStages = 240;
  constexpr int kReps = 2000;
  constexpr double kGmin = 1e-12;
  constexpr double kTime = 0.3e-9;
  constexpr double kDt = 1e-12;
  constexpr auto kMethod = IntegrationMethod::kBackwardEuler;

  Netlist n;
  buildArrayNetlist(n, kStages);
  const int unknowns = n.freeze();
  const int nodes = n.nodeCount();
  bench::banner("assembly: compiled stamp pipeline (" +
                std::to_string(unknowns) + " unknowns)");

  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.05);
  for (const auto& device : n.devices()) device->seedUnknowns(x);
  const SystemView view(x, nodes);

  Assembler compiled(n.stampPattern());
  std::vector<double> dx;
  const auto assemble = [&] {
    compiled.assemble(n, view, /*dc=*/false, kTime, kDt, kMethod, kGmin);
  };

  // Warm up (the first solve pays the one-time symbolic LU).
  assemble();
  compiled.solveForUpdate(dx);

  bench::WallTimer tCompiledAsm;
  for (int r = 0; r < kReps; ++r) assemble();
  const double compiledAssembleS = tCompiledAsm.seconds();

  bench::WallTimer tCompiledSolve;
  for (int r = 0; r < kReps; ++r) {
    compiled.solveForUpdate(dx);
  }
  const double compiledSolveS = tCompiledSolve.seconds();

  const auto mode = stampModeFor(/*dc=*/false, kMethod);
  const std::size_t stampsPerAssembly =
      n.stampPattern().jacobianCalls(mode).size();
  const double stampsPerSec =
      compiledAssembleS > 0.0
          ? static_cast<double>(stampsPerAssembly) * kReps / compiledAssembleS
          : 0.0;

  std::printf("assemble: %.1f us/iter\n", compiledAssembleS / kReps * 1e6);
  std::printf("solve:    %.1f us/iter\n", compiledSolveS / kReps * 1e6);
  std::printf(
      "PERF {\"bench\":\"bench_assembly\",\"unknowns\":%d,\"reps\":%d,"
      "\"compiled_assemble_s\":%.4f,\"compiled_solve_s\":%.4f,"
      "\"stamps_per_sec\":%.3g}\n",
      unknowns, kReps, compiledAssembleS, compiledSolveS, stampsPerSec);

  telemetry.report().addCount("unknowns", static_cast<std::uint64_t>(unknowns));
  telemetry.report().addCount("reps", static_cast<std::uint64_t>(kReps));
  telemetry.report().addNumber("stamps_per_sec", stampsPerSec);
  telemetry.finish();
  return 0;
}

}  // namespace
}  // namespace fefet

int main() { return fefet::run(); }

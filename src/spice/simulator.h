// simulator.h — DC operating point and adaptive transient analysis.
//
// The Simulator is stateful: node voltages and device history persist
// across runTransient() calls, so memory operations (write, hold, read)
// can be simulated back-to-back on one netlist by swapping source shapes
// between runs.  Each run uses its own local time axis starting at 0.
#pragma once

#include <vector>

#include "spice/netlist.h"
#include "spice/newton.h"
#include "spice/waveform.h"

namespace fefet::spice {

struct TransientOptions {
  double duration = 0.0;        ///< [s] (required)
  double dtInitial = 1e-12;     ///< first step
  double dtMin = 1e-17;         ///< below this the run aborts
  double dtMax = 0.0;           ///< 0 = duration / 50
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  /// Grow dt by this factor after an easy step (few Newton iterations).
  double growthFactor = 1.4;
  /// Newton iteration count considered "easy" (eligible for growth).
  int easyIterations = 8;
  /// Backoff: dt is multiplied by this on every rejected step (exponential
  /// schedule; must be in (0, 1)).
  double dtCutFactor = 0.5;
  /// Last-resort rescue once dt has been cut to dtMin: retry the step with
  /// gmin raised x100 per level, up to this many levels (0 disables).
  int maxGminEscalations = 3;
  double gminMax = 1e-6;  ///< [S] escalation ceiling
  /// Hard step budget: accepted + rejected Newton solves.  Exceeding it
  /// aborts the run with a NumericalError carrying the retry history.
  /// 0 means unlimited.
  long maxSteps = 0;
};

struct TransientStats {
  int steps = 0;
  int rejectedSteps = 0;
  int newtonIterations = 0;
  int dtCuts = 0;            ///< step-size reductions (backoff events)
  int gminEscalations = 0;   ///< cumulative rescue levels applied
  double smallestDt = 0.0;   ///< [s] smallest step attempted
};

struct TransientResult {
  Waveform waveform;
  TransientStats stats;
};

class Simulator {
 public:
  explicit Simulator(Netlist& netlist, const NewtonOptions& newton = {});

  /// Solve the DC operating point and make it the current state.  Device
  /// dynamic history is (re)initialized from the solution.
  NewtonStats solveDc();

  /// Initialize all node voltages / aux unknowns for a UIC start: node
  /// voltages zero (or values previously set via setNodeVoltage), device
  /// aux unknowns seeded by the devices, histories initialized.
  void initializeUic();

  /// Run a transient continuing from the current state.  Sources are
  /// evaluated on the local time axis of this run (0 .. duration).
  TransientResult runTransient(const TransientOptions& options,
                               const std::vector<Probe>& probes);

  /// Current voltage of a node.
  double nodeVoltage(const std::string& name) const;
  /// Evaluate any probe against the current solution.
  double measure(const Probe& probe) const;
  /// Force a node voltage into the current state (before initializeUic /
  /// a UIC transient; has no effect on constraint rows).
  void setNodeVoltage(const std::string& name, double value);

  Netlist& netlist() { return netlist_; }
  const std::vector<double>& solution() const { return x_; }
  /// Newton solver (read-only; LU structure-reuse diagnostics).
  const NewtonSolver& newton() const { return newton_; }

 private:
  double probeValue(const Probe& probe, const SystemView& view) const;

  Netlist& netlist_;
  NewtonOptions newtonOptions_;
  NewtonSolver newton_;
  std::vector<double> x_;
  bool stateValid_ = false;
};

}  // namespace fefet::spice

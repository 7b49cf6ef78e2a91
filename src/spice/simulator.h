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

/// The step schedule (first step, growth, backoff, the dt floor and its
/// gmin rescue) is fixed in simulator.cc; a run chooses only its length
/// and largest step.
struct TransientOptions {
  double duration = 0.0;  ///< [s] (required)
  double dtMax = 0.0;     ///< 0 = duration / 50
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
  /// A probe resolved against the frozen netlist: the voltage of node
  /// `index` when `device` is null, else state `index` of `device`.
  struct ResolvedProbe {
    const Device* device = nullptr;
    int index = 0;
  };
  /// Throws InvalidArgumentError naming a missing node, device or state.
  ResolvedProbe resolve(const Probe& probe) const;
  static double read(const ResolvedProbe& probe, const SystemView& view) {
    return probe.device == nullptr ? view.nodeVoltage(probe.index)
                                   : probe.device->state(probe.index, view);
  }

  Netlist& netlist_;
  NewtonSolver newton_;
  std::vector<double> x_;
  /// Newton iterate of the step being attempted; swapped into x_ on
  /// acceptance, so steps reuse its storage instead of allocating.
  std::vector<double> trial_;
  /// Probes of the current run, resolved once, and the sample buffer each
  /// accepted step is recorded through.
  std::vector<ResolvedProbe> probes_;
  std::vector<double> sample_;
  bool stateValid_ = false;
};

}  // namespace fefet::spice

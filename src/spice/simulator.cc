#include "spice/simulator.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/error.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fefet::spice {

namespace {

// Step schedule: the first step is backward Euler from kDtInitial (capped
// at dtMax), the rest trapezoidal.  dt grows x kGrowthFactor after a step
// that took <= kEasyIterations Newton iterations and is cut x kDtCutFactor
// on non-convergence; below kDtMin the step gets one gmin-escalated retry
// (NewtonSolver::solveWithEscalation) before the run aborts.
constexpr double kDtInitial = 1e-12;  ///< [s]
constexpr double kDtMin = 1e-17;      ///< [s]
constexpr double kGrowthFactor = 1.4;
constexpr int kEasyIterations = 8;
constexpr double kDtCutFactor = 0.5;
/// Most waveform samples a run reserves up front.
constexpr double kMaxReservedSamples = 65536.0;

/// Transient retry-history telemetry under fefet.transient.*.  Flushed
/// once per run — on clean completion AND on throw exits — so dt cuts and
/// gmin escalations from successful runs land in the registry too, not
/// only the copies carried by SolverDiagnostics on failure.  The Newton
/// solver's fefet.newton.* and fefet.assembler.* tallies flush with it.
struct TransientTelemetry {
  obs::Counter& runs;
  obs::Counter& failedRuns;
  obs::Counter& steps;
  obs::Counter& newtonIterations;
  obs::Counter& dtCuts;
  obs::Counter& rejectedSteps;
  obs::Counter& gminEscalations;
};

TransientTelemetry& transientTelemetry() {
  static TransientTelemetry t{
      obs::Metrics::counter("fefet.transient.runs"),
      obs::Metrics::counter("fefet.transient.failed_runs"),
      obs::Metrics::counter("fefet.transient.steps"),
      obs::Metrics::counter("fefet.transient.newton_iterations"),
      obs::Metrics::counter("fefet.transient.dt_cuts"),
      obs::Metrics::counter("fefet.transient.rejected_steps"),
      obs::Metrics::counter("fefet.transient.gmin_escalations")};
  return t;
}

}  // namespace

Simulator::Simulator(Netlist& netlist, const NewtonOptions& newton)
    : netlist_(netlist), newton_(netlist, newton) {
  // The NewtonSolver constructor froze the netlist (freeze() is where the
  // unknown layout and the compiled stamp pattern are fixed).
}

NewtonStats Simulator::solveDc() {
  initializeUic();
  // Lands the solver's telemetry whether the solve returns or throws.
  struct TelemetryFlush {
    NewtonSolver& newton;
    ~TelemetryFlush() { newton.flushTelemetry(); }
  } telemetryFlush{newton_};
  const NewtonStats stats = newton_.solveDcWithContinuation(x_);
  SystemView view(x_, netlist_.nodeCount());
  for (const auto& device : netlist_.devices()) device->initializeState(view);
  stateValid_ = true;
  return stats;
}

void Simulator::initializeUic() {
  const std::size_t n = static_cast<std::size_t>(netlist_.unknownCount());
  if (x_.size() != n) x_.assign(n, 0.0);
  for (const auto& device : netlist_.devices()) device->seedUnknowns(x_);
  SystemView view(x_, netlist_.nodeCount());
  for (const auto& device : netlist_.devices()) device->initializeState(view);
  stateValid_ = true;
}

double Simulator::nodeVoltage(const std::string& name) const {
  FEFET_REQUIRE(!x_.empty(), "no solution available yet");
  SystemView view(x_, netlist_.nodeCount());
  return view.nodeVoltage(netlist_.findNode(name));
}

void Simulator::setNodeVoltage(const std::string& name, double value) {
  const std::size_t n = static_cast<std::size_t>(netlist_.unknownCount());
  if (x_.size() != n) x_.assign(n, 0.0);
  const NodeId id = netlist_.findNode(name);
  if (id != kGround) x_[static_cast<std::size_t>(id - 1)] = value;
}

double Simulator::measure(const Probe& probe) const {
  FEFET_REQUIRE(!x_.empty(), "no solution available yet");
  SystemView view(x_, netlist_.nodeCount());
  return read(resolve(probe), view);
}

Simulator::ResolvedProbe Simulator::resolve(const Probe& probe) const {
  if (probe.kind == Probe::Kind::kNodeVoltage) {
    return {nullptr, netlist_.findNode(probe.target)};
  }
  const Device* device = netlist_.find(probe.target);
  FEFET_REQUIRE(device != nullptr, "no such device: " + probe.target);
  const auto names = device->stateNames();
  const auto it = std::find(names.begin(), names.end(), probe.state);
  if (it == names.end()) {
    throw InvalidArgumentError("device " + probe.target + " has no state '" +
                               probe.state + "'");
  }
  return {device, static_cast<int>(it - names.begin())};
}

TransientResult Simulator::runTransient(const TransientOptions& options,
                                        const std::vector<Probe>& probes) {
  FEFET_REQUIRE(options.duration > 0.0, "transient duration must be positive");
  if (!stateValid_) initializeUic();

  const double dtMax =
      options.dtMax > 0.0 ? options.dtMax : options.duration / 50.0;
  double dt = std::min(kDtInitial, dtMax);

  // Resolve every probe before the first step, so a bad name fails the
  // run without advancing the state.
  probes_.clear();
  for (const auto& probe : probes) probes_.push_back(resolve(probe));
  sample_.resize(probes_.size());
  TransientResult result;
  for (const auto& probe : probes) result.waveform.addColumn(probe.label);
  // A run takes about duration/dtMax steps plus the short ones of its
  // start and source edges; the cap bounds what a tiny dtMax reserves.
  const double expectedSteps = options.duration / dtMax;
  result.waveform.reserve(static_cast<std::size_t>(
      std::min(1.25 * expectedSteps + 32.0, kMaxReservedSamples)));

  const obs::Span transientSpan("transient");
  // Destructor-driven flush: counts the run whether it returns or throws.
  struct TelemetryFlush {
    const TransientResult& result;
    NewtonSolver& newton;
    bool ok = false;
    ~TelemetryFlush() {
      newton.flushTelemetry();
      if (!obs::Metrics::enabled()) return;
      TransientTelemetry& t = transientTelemetry();
      t.runs.increment();
      if (!ok) t.failedRuns.increment();
      t.steps.add(static_cast<std::uint64_t>(result.stats.steps));
      t.newtonIterations.add(
          static_cast<std::uint64_t>(result.stats.newtonIterations));
      t.dtCuts.add(static_cast<std::uint64_t>(result.stats.dtCuts));
      t.rejectedSteps.add(
          static_cast<std::uint64_t>(result.stats.rejectedSteps));
      t.gminEscalations.add(
          static_cast<std::uint64_t>(result.stats.gminEscalations));
    }
  } telemetryFlush{result, newton_};

  const int nodes = netlist_.nodeCount();
  const auto record = [&](double t) {
    SystemView view(x_, nodes);
    for (std::size_t k = 0; k < probes_.size(); ++k) {
      sample_[k] = read(probes_[k], view);
    }
    result.waveform.appendSample(t, sample_);
  };
  record(0.0);

  double t = 0.0;
  double lastResidual = 0.0;
  result.stats.smallestDt = dt;

  // Retry-history snapshot for underflow aborts.
  const auto diagnose = [&] {
    SolverDiagnostics diag;
    diag.time = t;
    diag.smallestDt = result.stats.smallestDt;
    diag.dtCuts = result.stats.dtCuts;
    diag.gminEscalations = result.stats.gminEscalations;
    diag.steps = result.stats.steps;
    diag.newtonIterations = result.stats.newtonIterations;
    diag.finalResidualNorm = lastResidual;
    return diag;
  };

  bool firstStep = true;
  while (t < options.duration * (1.0 - 1e-12)) {
    dt = std::min(dt, options.duration - t);
    // Honor device step-size hints (e.g. fast polarization switching).
    {
      SystemView view(x_, nodes);
      for (const auto& device : netlist_.devices()) {
        const double hint = device->maxStepHint(view);
        if (hint > 0.0) dt = std::min(dt, std::max(hint, kDtMin * 10));
      }
    }
    // Underflow guard: a step so small it cannot advance t is an infinite
    // loop, not progress.
    if (dt <= 0.0 || t + dt == t) {
      std::ostringstream os;
      os << "transient step underflow at t=" << t << " s (dt=" << dt
         << " s cannot advance time)";
      throw NumericalError(os.str(), diagnose());
    }
    result.stats.smallestDt = std::min(result.stats.smallestDt, dt);
    const IntegrationMethod method = firstStep
                                         ? IntegrationMethod::kBackwardEuler
                                         : IntegrationMethod::kTrapezoidal;

    // Same size as x_ after the first step: a plain copy, no reassignment.
    trial_.resize(x_.size());
    std::copy(x_.begin(), x_.end(), trial_.begin());
    NewtonStats stats =
        newton_.solve(trial_, /*dc=*/false, t + dt, dt, method);
    result.stats.newtonIterations += stats.iterations;
    lastResidual = stats.finalResidualNorm;
    if (!stats.converged) {
      ++result.stats.rejectedSteps;
      const double cut = dt * kDtCutFactor;
      if (cut >= kDtMin) {
        ++result.stats.dtCuts;
        if (obs::FlightRecorder::enabled()) {
          obs::FlightRecorder::record(
              obs::FlightEvent::kDtCut, cut,
              static_cast<std::uint64_t>(result.stats.dtCuts));
        }
        dt = cut;
        continue;
      }
      // dt exhausted: last-resort gmin escalation at the floor step.
      std::copy(x_.begin(), x_.end(), trial_.begin());
      stats = newton_.solveWithEscalation(trial_, /*dc=*/false, t + dt, dt,
                                          method);
      result.stats.newtonIterations += stats.iterations;
      result.stats.gminEscalations += stats.gminEscalations;
      lastResidual = stats.finalResidualNorm;
      if (!stats.converged) {
        std::ostringstream os;
        os << "transient step underflow at t=" << t
           << " s (smallest dt attempted " << result.stats.smallestDt
           << " s, residual=" << stats.finalResidualNorm << ")";
        throw NumericalError(os.str(), diagnose());
      }
    }

    x_.swap(trial_);
    t += dt;
    ++result.stats.steps;
    firstStep = false;
    {
      SystemView view(x_, nodes);
      for (const auto& device : netlist_.devices()) {
        device->commitStep(view, t, dt, method);
      }
    }
    record(t);
    if (stats.iterations <= kEasyIterations) {
      dt = std::min(dt * kGrowthFactor, dtMax);
    }
  }
  telemetryFlush.ok = true;
  return result;
}

}  // namespace fefet::spice

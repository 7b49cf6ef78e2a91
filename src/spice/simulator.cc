#include "spice/simulator.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/error.h"
#include "common/log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fefet::spice {

namespace {

/// Transient retry-history telemetry under fefet.transient.*.  Flushed
/// once per run — on clean completion AND on throw exits — so dt cuts and
/// gmin escalations from successful runs land in the registry too, not
/// only the copies carried by SolverDiagnostics on failure.
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
    : netlist_(netlist), newtonOptions_(newton), newton_(netlist, newton) {
  // The NewtonSolver constructor froze the netlist (freeze() is where the
  // unknown layout and the compiled stamp pattern are fixed).
}

NewtonStats Simulator::solveDc() {
  initializeUic();
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
  FEFET_REQUIRE(netlist_.hasNode(name), "no such node: " + name);
  const NodeId id = const_cast<Netlist&>(netlist_).node(name);
  SystemView view(x_, netlist_.nodeCount());
  return view.nodeVoltage(id);
}

void Simulator::setNodeVoltage(const std::string& name, double value) {
  const std::size_t n = static_cast<std::size_t>(netlist_.unknownCount());
  if (x_.size() != n) x_.assign(n, 0.0);
  const NodeId id = netlist_.node(name);
  if (id != kGround) x_[static_cast<std::size_t>(id - 1)] = value;
}

double Simulator::measure(const Probe& probe) const {
  FEFET_REQUIRE(!x_.empty(), "no solution available yet");
  SystemView view(x_, netlist_.nodeCount());
  return probeValue(probe, view);
}

double Simulator::probeValue(const Probe& probe,
                             const SystemView& view) const {
  if (probe.kind == Probe::Kind::kNodeVoltage) {
    const NodeId id = const_cast<Netlist&>(netlist_).node(probe.target);
    return view.nodeVoltage(id);
  }
  const Device* device = netlist_.find(probe.target);
  FEFET_REQUIRE(device != nullptr, "no such device: " + probe.target);
  for (const auto& st : device->reportState(view)) {
    if (st.name == probe.state) return st.value;
  }
  throw InvalidArgumentError("device " + probe.target + " has no state '" +
                             probe.state + "'");
}

TransientResult Simulator::runTransient(const TransientOptions& options,
                                        const std::vector<Probe>& probes) {
  FEFET_REQUIRE(options.duration > 0.0, "transient duration must be positive");
  FEFET_REQUIRE(options.dtCutFactor > 0.0 && options.dtCutFactor < 1.0,
                "dtCutFactor must be in (0, 1)");
  if (!stateValid_) initializeUic();

  const double dtMax =
      options.dtMax > 0.0 ? options.dtMax : options.duration / 50.0;
  double dt = std::min(options.dtInitial, dtMax);

  TransientResult result;
  for (const auto& probe : probes) result.waveform.addColumn(probe.label);

  const obs::Span transientSpan("transient");
  // Destructor-driven flush: counts the run whether it returns or throws.
  struct TelemetryFlush {
    const TransientResult& result;
    bool ok = false;
    ~TelemetryFlush() {
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
  } telemetryFlush{result};

  const int nodes = netlist_.nodeCount();
  const auto record = [&](double t) {
    SystemView view(x_, nodes);
    std::vector<double> values;
    values.reserve(probes.size());
    for (const auto& probe : probes) values.push_back(probeValue(probe, view));
    result.waveform.appendSample(t, values);
  };
  record(0.0);

  double t = 0.0;
  double lastResidual = 0.0;
  result.stats.smallestDt = dt;

  // Retry-history snapshot for budget/underflow aborts.
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

  long solves = 0;
  bool firstStep = true;
  while (t < options.duration * (1.0 - 1e-12)) {
    if (options.maxSteps > 0 && solves >= options.maxSteps) {
      std::ostringstream os;
      os << "transient exceeded its step budget of " << options.maxSteps
         << " solves at t=" << t << " s";
      throw NumericalError(os.str(), diagnose());
    }

    dt = std::min(dt, options.duration - t);
    // Honor device step-size hints (e.g. fast polarization switching).
    {
      SystemView view(x_, nodes);
      for (const auto& device : netlist_.devices()) {
        const double hint = device->maxStepHint(view);
        if (hint > 0.0) dt = std::min(dt, std::max(hint, options.dtMin * 10));
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
    const IntegrationMethod method =
        firstStep ? IntegrationMethod::kBackwardEuler : options.method;

    std::vector<double> trial = x_;
    ++solves;
    NewtonStats stats =
        newton_.solve(trial, /*dc=*/false, t + dt, dt, method);
    result.stats.newtonIterations += stats.iterations;
    lastResidual = stats.finalResidualNorm;
    if (!stats.converged) {
      ++result.stats.rejectedSteps;
      const double cut = dt * options.dtCutFactor;
      if (cut >= options.dtMin) {
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
      if (options.maxGminEscalations > 0) {
        trial = x_;
        ++solves;
        stats = newton_.solveWithEscalation(
            trial, /*dc=*/false, t + dt, dt, method,
            options.maxGminEscalations, options.gminMax);
        result.stats.newtonIterations += stats.iterations;
        result.stats.gminEscalations += stats.gminEscalations;
        lastResidual = stats.finalResidualNorm;
      }
      if (!stats.converged) {
        std::ostringstream os;
        os << "transient step underflow at t=" << t
           << " s (smallest dt attempted " << result.stats.smallestDt
           << " s, residual=" << stats.finalResidualNorm << ")";
        throw NumericalError(os.str(), diagnose());
      }
    }

    x_ = std::move(trial);
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
    if (stats.iterations <= options.easyIterations) {
      dt = std::min(dt * options.growthFactor, dtMax);
    }
  }
  telemetryFlush.ok = true;
  return result;
}

}  // namespace fefet::spice

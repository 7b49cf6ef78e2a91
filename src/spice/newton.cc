#include "spice/newton.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/error.h"
#include "common/log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/hier_engine.h"
#include "spice/partition.h"

namespace fefet::spice {

namespace {

/// Solver telemetry under fefet.newton.*: every solve exit —
/// converged or not — lands in these, so convergence-health histograms
/// cover whole runs rather than only the failures that used to surface
/// through NumericalError's SolverDiagnostics.  Registered once; the hot
/// loop only touches preallocated atomics.
struct NewtonTelemetry {
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& nonconverged;
  obs::Counter& gminEscalations;
  obs::Counter& escalationAttempts;
  obs::Counter& assembleNs;
  obs::Counter& solveNs;
  obs::Histogram& iterationsPerSolve;

  // The ".compiled" suffix names the compiled stamp pipeline, the one
  // assembly engine; dashboards and gates key on the full names.
  static NewtonTelemetry& get() {
    static constexpr double kIterEdges[] = {1,  2,  3,  4,  6,  8, 12,
                                            16, 24, 32, 48, 64, 80};
    static NewtonTelemetry t{
        obs::Metrics::counter("fefet.newton.solves.compiled"),
        obs::Metrics::counter("fefet.newton.iterations.compiled"),
        obs::Metrics::counter("fefet.newton.nonconverged.compiled"),
        obs::Metrics::counter("fefet.newton.gmin_escalations.compiled"),
        obs::Metrics::counter("fefet.newton.escalation_attempts.compiled"),
        obs::Metrics::counter("fefet.newton.assemble_ns.compiled"),
        obs::Metrics::counter("fefet.newton.solve_ns.compiled"),
        obs::Metrics::histogram("fefet.newton.iterations_per_solve",
                                kIterEdges)};
    return t;
  }
};

/// Convergence forensics: every solve exit is classified
/// into exactly one of converged/stagnated/diverged (gmin_rescued counts
/// additionally, at the escalation layer, when a retry at raised gmin
/// saved a solve).  The decay-rate histogram records
/// log10(r_first / r_last) / (iterations - 1) — decades of residual shed
/// per iteration; healthy quadratic Newton sits well above 1, a sick
/// solve hovers near 0 or goes negative.
struct NewtonForensics {
  obs::Counter& converged;
  obs::Counter& stagnated;
  obs::Counter& diverged;
  obs::Counter& gminRescued;
  obs::Histogram& residualDecayRate;

  static NewtonForensics& get() {
    static constexpr double kDecayEdges[] = {-1.0, -0.5, 0.0, 0.25, 0.5,
                                             1.0,  1.5,  2.0, 3.0,  4.0,
                                             6.0,  8.0};
    static NewtonForensics f{
        obs::Metrics::counter("fefet.newton.outcome.converged"),
        obs::Metrics::counter("fefet.newton.outcome.stagnated"),
        obs::Metrics::counter("fefet.newton.outcome.diverged"),
        obs::Metrics::counter("fefet.newton.outcome.gmin_rescued"),
        obs::Metrics::histogram("fefet.newton.residual_decay_rate",
                                kDecayEdges)};
    return f;
  }
};

/// Freeze (idempotent) before use: netlist_ is the first member, so the
/// assembler initialized after it sees the recorded stamp pattern.
Netlist& frozen(Netlist& netlist) {
  netlist.freeze();
  return netlist;
}

}  // namespace

bool defaultUseHierarchicalSolve() {
  static const bool value = [] {
    const char* env = std::getenv("FEFET_HIERARCHICAL_SOLVE");
    return env != nullptr && std::strcmp(env, "1") == 0;
  }();
  return value;
}

NewtonSolver::NewtonSolver(Netlist& netlist, const NewtonOptions& options)
    : netlist_(frozen(netlist)),
      options_(options),
      assembler_(netlist.stampPattern(),
                 netlist.unknownCount() > kDenseToSparseCrossover) {
  if (options_.useHierarchicalSolve) {
    const BbdPartition* partition = netlist_.partition();
    if (partition != nullptr && partition->useful()) {
      linalg::SchurOptions schurOptions;
      schurOptions.enableCollapse = options_.hierCollapse;
      schurOptions.collapseAbsTol = options_.hierCollapseAbsTol;
      schurOptions.collapseRelTol = options_.hierCollapseRelTol;
      schurOptions.collapseQuietEvals = options_.hierCollapseQuietEvals;
      hier_ = std::make_unique<HierEngine>(netlist_.stampPattern(),
                                           *partition, schurOptions,
                                           options_.hierThreads);
    }
  }
}

NewtonSolver::~NewtonSolver() = default;

NewtonStats NewtonSolver::solve(std::vector<double>& x, bool dc, double time,
                                double dt, IntegrationMethod method) {
  return solveWithGmin(x, dc, time, dt, method, options_.gmin);
}

NewtonStats NewtonSolver::solveWithEscalation(std::vector<double>& x, bool dc,
                                              double time, double dt,
                                              IntegrationMethod method,
                                              int maxEscalations,
                                              double gminMax) {
  NewtonTelemetry& telemetry = NewtonTelemetry::get();
  int totalIters = 0;
  double gmin = options_.gmin;
  for (int level = 0; level <= maxEscalations; ++level) {
    if (level > 0) {
      if (obs::Metrics::enabled()) telemetry.escalationAttempts.increment();
      if (obs::FlightRecorder::enabled()) {
        obs::FlightRecorder::record(obs::FlightEvent::kGminEscalation, gmin,
                                    static_cast<std::uint64_t>(level));
      }
    }
    attempt_ = x;  // member buffer: reuses capacity across levels/solves
    NewtonStats stats = solveWithGmin(attempt_, dc, time, dt, method, gmin);
    totalIters += stats.iterations;
    if (stats.converged) {
      x = attempt_;
      stats.iterations = totalIters;
      stats.gminEscalations = level;
      stats.gminUsed = gmin;
      if (level > 0) {
        if (obs::Metrics::enabled()) {
          telemetry.gminEscalations.add(static_cast<std::uint64_t>(level));
          NewtonForensics::get().gminRescued.increment();
        }
        if (obs::FlightRecorder::enabled()) {
          obs::FlightRecorder::record(obs::FlightEvent::kGminRescue, gmin,
                                      static_cast<std::uint64_t>(level));
        }
      }
      return stats;
    }
    if (level == maxEscalations) {
      stats.iterations = totalIters;
      stats.gminEscalations = level;
      stats.gminUsed = gmin;
      return stats;
    }
    gmin = std::min(std::max(gmin * 100.0, options_.gmin * 100.0), gminMax);
  }
  return {};  // unreachable
}

NewtonStats NewtonSolver::solveWithGmin(std::vector<double>& x, bool dc,
                                        double time, double dt,
                                        IntegrationMethod method,
                                        double gmin) {
  const int n = netlist_.unknownCount();
  const int nodes = netlist_.nodeCount();
  FEFET_REQUIRE(static_cast<int>(x.size()) == n,
                "newton: solution vector size mismatch");

  // Telemetry for this solve: locals accumulate in the loop and flush to
  // the registry once per solve (one atomic add per counter, not per
  // iteration).  The clock reads for the assemble-vs-solve split are
  // skipped entirely when metrics are disabled.
  NewtonTelemetry& telemetry = NewtonTelemetry::get();
  const bool timed = obs::Metrics::enabled();
  std::uint64_t assembleNs = 0;
  std::uint64_t luSolveNs = 0;
  const auto flushTelemetry = [&](const NewtonStats& s) {
    if (!obs::Metrics::enabled()) return;
    telemetry.solves.increment();
    telemetry.iterations.add(static_cast<std::uint64_t>(s.iterations));
    if (!s.converged) telemetry.nonconverged.increment();
    telemetry.assembleNs.add(assembleNs);
    telemetry.solveNs.add(luSolveNs);
    telemetry.iterationsPerSolve.observe(static_cast<double>(s.iterations));
  };
  const obs::Span solveSpan("newton.solve");

  if (obs::FlightRecorder::enabled()) {
    obs::FlightRecorder::record(obs::FlightEvent::kSolveStart, time,
                                dc ? 1 : 0);
  }
  // First-iteration residual norm, for the exit classification and the
  // decay-rate histogram.
  double firstResNorm = 0.0;
  const auto classifyExit = [&](const NewtonStats& s, bool singular) {
    const double last = s.finalResidualNorm;
    const bool divergedExit =
        !s.converged && (singular || !std::isfinite(last) ||
                         (firstResNorm > 0.0 && last > 10.0 * firstResNorm));
    if (obs::Metrics::enabled()) {
      NewtonForensics& forensics = NewtonForensics::get();
      if (s.converged) {
        forensics.converged.increment();
      } else if (divergedExit) {
        forensics.diverged.increment();
      } else {
        forensics.stagnated.increment();
      }
      if (s.iterations > 0 && firstResNorm > 0.0 && last > 0.0 &&
          std::isfinite(firstResNorm) && std::isfinite(last)) {
        forensics.residualDecayRate.observe(
            std::log10(firstResNorm / last) /
            std::max(1, s.iterations - 1));
      }
    }
    if (obs::FlightRecorder::enabled()) {
      obs::FlightRecorder::record(
          s.converged      ? obs::FlightEvent::kSolveConverged
          : divergedExit   ? obs::FlightEvent::kSolveDiverged
                           : obs::FlightEvent::kSolveStagnated,
          last, static_cast<std::uint64_t>(s.iterations));
    }
  };

  NewtonStats stats;
  for (int iter = 0; iter < options_.maxIterations; ++iter) {
    stats.iterations = iter + 1;
    SystemView view(x, nodes);
    {
      const obs::Span span("newton.assemble");
      const std::uint64_t t0 = timed ? monotonicNanos() : 0;
      assembler_.assemble(netlist_, view, dc, time, dt, method, gmin);
      if (timed) assembleNs += monotonicNanos() - t0;
    }

    std::vector<double>& dx = dx_;  // member buffer: no per-iteration alloc
    try {
      const obs::Span span("newton.lu_solve");
      const std::uint64_t t0 = timed ? monotonicNanos() : 0;
      if (hier_) {
        hier_->solveForUpdate(assembler_.csr(), assembler_.residual(), dx);
      } else {
        assembler_.solveForUpdate(dx);
      }
      if (timed) luSolveNs += monotonicNanos() - t0;
    } catch (const NumericalError&) {
      // Singular Jacobian mid-iteration: report non-convergence so the
      // caller can cut the time step or raise gmin.
      stats.converged = false;
      flushTelemetry(stats);
      classifyExit(stats, /*singular=*/true);
      return stats;
    }

    // Damping: clamp per-unknown updates.
    bool clamped = false;
    for (int i = 0; i < n; ++i) {
      const double limit =
          i < nodes ? options_.maxVoltageStep : options_.maxAuxStep;
      if (dx[static_cast<std::size_t>(i)] > limit) {
        dx[static_cast<std::size_t>(i)] = limit;
        clamped = true;
      } else if (dx[static_cast<std::size_t>(i)] < -limit) {
        dx[static_cast<std::size_t>(i)] = -limit;
        clamped = true;
      }
    }
    double maxUpdate = 0.0;
    bool updateOk = true;
    for (int i = 0; i < n; ++i) {
      const double xi = x[static_cast<std::size_t>(i)];
      const double di = dx[static_cast<std::size_t>(i)];
      x[static_cast<std::size_t>(i)] = xi + di;
      const double tol =
          (i < nodes ? options_.voltageAbsTol : options_.auxAbsTol) +
          options_.relTol * std::abs(xi);
      if (std::abs(di) > tol) updateOk = false;
      maxUpdate = std::max(maxUpdate, std::abs(di));
    }

    // Residual check on the pre-update residual (already assembled).
    const std::span<const double> residual = assembler_.residual();
    const std::span<const double> rowScale = assembler_.rowScale();
    double resNorm = 0.0;
    bool residualOk = true;
    for (int i = 0; i < n; ++i) {
      const double r = residual[static_cast<std::size_t>(i)];
      const double scale = rowScale[static_cast<std::size_t>(i)];
      resNorm = std::max(resNorm, std::abs(r));
      if (std::abs(r) >
          options_.residualAbsTol + options_.residualRelTol * scale) {
        residualOk = false;
      }
    }
    stats.finalResidualNorm = resNorm;
    if (iter == 0) firstResNorm = resNorm;
    if (obs::FlightRecorder::enabled()) {
      obs::FlightRecorder::record(obs::FlightEvent::kNewtonResidual, resNorm,
                                  static_cast<std::uint64_t>(iter));
    }

    if (updateOk && residualOk && !clamped) {
      stats.converged = true;
      flushTelemetry(stats);
      classifyExit(stats, /*singular=*/false);
      return stats;
    }
  }
  stats.converged = false;
  flushTelemetry(stats);
  classifyExit(stats, /*singular=*/false);
  return stats;
}

NewtonStats NewtonSolver::solveDcWithContinuation(std::vector<double>& x) {
  // Direct attempt first (attempt_ is the reused member trial buffer).
  attempt_ = x;
  NewtonStats stats = solveWithGmin(attempt_, /*dc=*/true, 0.0, 0.0,
                                    IntegrationMethod::kBackwardEuler,
                                    options_.gmin);
  if (stats.converged) {
    x = attempt_;
    return stats;
  }
  // Gmin stepping: start heavily regularized, then relax.
  FEFET_DEBUG() << "DC: direct solve failed; starting gmin continuation";
  attempt_ = x;
  int totalIters = stats.iterations;
  int levels = 0;
  const auto diagnose = [&](double gmin) {
    SolverDiagnostics diag;
    diag.gminEscalations = levels;
    diag.newtonIterations = totalIters;
    diag.finalResidualNorm = stats.finalResidualNorm;
    diag.smallestDt = 0.0;
    return NumericalError(
        "DC operating point failed during gmin continuation at gmin=" +
            std::to_string(gmin),
        diag);
  };
  for (double gmin = 1e-2; gmin >= options_.gmin * 0.99; gmin *= 0.1) {
    if (obs::FlightRecorder::enabled()) {
      obs::FlightRecorder::record(obs::FlightEvent::kGminEscalation, gmin,
                                  static_cast<std::uint64_t>(levels + 1));
    }
    stats = solveWithGmin(attempt_, true, 0.0, 0.0,
                          IntegrationMethod::kBackwardEuler, gmin);
    totalIters += stats.iterations;
    ++levels;
    if (!stats.converged) throw diagnose(gmin);
  }
  stats = solveWithGmin(attempt_, true, 0.0, 0.0,
                        IntegrationMethod::kBackwardEuler, options_.gmin);
  totalIters += stats.iterations;
  ++levels;
  if (!stats.converged) throw diagnose(options_.gmin);
  x = attempt_;
  stats.iterations = totalIters;
  stats.gminEscalations = levels;
  stats.gminUsed = options_.gmin;
  if (obs::Metrics::enabled()) {
    NewtonTelemetry& telemetry = NewtonTelemetry::get();
    telemetry.escalationAttempts.add(static_cast<std::uint64_t>(levels));
    telemetry.gminEscalations.add(static_cast<std::uint64_t>(levels));
    NewtonForensics::get().gminRescued.increment();
  }
  if (obs::FlightRecorder::enabled()) {
    obs::FlightRecorder::record(obs::FlightEvent::kGminRescue, options_.gmin,
                                static_cast<std::uint64_t>(levels));
  }
  return stats;
}

}  // namespace fefet::spice

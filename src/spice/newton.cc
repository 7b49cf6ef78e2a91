#include "spice/newton.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/clock.h"
#include "common/error.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/hier_engine.h"
#include "spice/partition.h"

namespace fefet::spice {

namespace {

// Convergence: an iteration converges when every update is within
// abs + kRelTol·|x| (abs per unknown kind), every residual row within
// kResidualAbsTol + kResidualRelTol·(row activity scale), and no update
// was clamped.
constexpr int kMaxIterations = 80;
/// One metered solve in this many times its Newton laps (see solveWithGmin).
constexpr std::uint64_t kLapStride = 16;
constexpr double kVoltageAbsTol = 1e-6;   ///< [V] update tol, node voltages
constexpr double kAuxAbsTol = 1e-9;       ///< update tol, aux unknowns
constexpr double kRelTol = 1e-4;          ///< relative part of both checks
constexpr double kResidualAbsTol = 1e-9;  ///< [A]/[V] residual floor
constexpr double kResidualRelTol = 1e-6;  ///< residual vs row activity
constexpr double kMaxVoltageStep = 0.6;   ///< [V] damping clamp
constexpr double kMaxAuxStep = 0.1;       ///< damping clamp, aux unknowns
constexpr double kGmin = 1e-12;           ///< [S] node-to-ground
/// solveWithEscalation: gmin x100 per level, this many levels, this cap.
constexpr int kMaxGminEscalations = 3;
constexpr double kGminCeiling = 1e-6;  ///< [S]

/// Solver telemetry under fefet.newton.*: every solve exit —
/// converged or not — lands in these, so convergence-health histograms
/// cover whole runs rather than only the failures that used to surface
/// through NumericalError's SolverDiagnostics.  Registered once; solves
/// tally into NewtonSolver::tally_ and flushTelemetry() adds the tallies.
struct NewtonTelemetry {
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& nonconverged;
  obs::Counter& gminEscalations;
  obs::Counter& escalationAttempts;
  obs::Counter& assembleNs;
  obs::Counter& solveNs;
  obs::Counter& timedSolves;
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
        obs::Metrics::counter("fefet.newton.timed_solves.compiled"),
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
/// assembler initialized after it sees the built stamp pattern.
Netlist& frozen(Netlist& netlist) {
  netlist.freeze();
  return netlist;
}

}  // namespace

NewtonSolver::NewtonSolver(Netlist& netlist, const NewtonOptions& options)
    : netlist_(frozen(netlist)),
      assembler_(netlist.stampPattern()),
      tally_(NewtonTelemetry::get().iterationsPerSolve,
             NewtonForensics::get().residualDecayRate) {
  if (options.useHierarchicalSolve) {
    const BbdPartition* partition = netlist_.partition();
    if (partition != nullptr && partition->useful()) {
      hier_ = std::make_unique<HierEngine>(netlist_.stampPattern(),
                                           *partition, options.hierThreads);
    }
  }
}

NewtonSolver::~NewtonSolver() { flushTelemetry(); }

void NewtonSolver::flushTelemetry() {
  assembler_.flushTelemetry();
  const auto put = [](obs::Counter& counter, std::uint64_t& count) {
    if (count != 0) counter.add(count);
    count = 0;
  };
  NewtonTelemetry& telemetry = NewtonTelemetry::get();
  put(telemetry.solves, tally_.solves);
  put(telemetry.iterations, tally_.iterations);
  put(telemetry.nonconverged, tally_.nonconverged);
  put(telemetry.gminEscalations, tally_.gminEscalations);
  put(telemetry.escalationAttempts, tally_.escalationAttempts);
  put(telemetry.assembleNs, tally_.assembleNs);
  put(telemetry.solveNs, tally_.solveNs);
  put(telemetry.timedSolves, tally_.timedSolves);
  NewtonForensics& forensics = NewtonForensics::get();
  put(forensics.converged, tally_.converged);
  put(forensics.stagnated, tally_.stagnated);
  put(forensics.diverged, tally_.diverged);
  put(forensics.gminRescued, tally_.gminRescued);
  telemetry.iterationsPerSolve.merge(tally_.iterationsPerSolve);
  forensics.residualDecayRate.merge(tally_.residualDecayRate);
}

NewtonStats NewtonSolver::solve(std::vector<double>& x, bool dc, double time,
                                double dt, IntegrationMethod method) {
  return solveWithGmin(x, dc, time, dt, method, kGmin);
}

NewtonStats NewtonSolver::solveWithEscalation(std::vector<double>& x, bool dc,
                                              double time, double dt,
                                              IntegrationMethod method) {
  int totalIters = 0;
  double gmin = kGmin;
  for (int level = 0; level <= kMaxGminEscalations; ++level) {
    if (level > 0) {
      if (obs::Metrics::enabled()) ++tally_.escalationAttempts;
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
      if (level > 0) {
        if (obs::Metrics::enabled()) {
          tally_.gminEscalations += static_cast<std::uint64_t>(level);
          ++tally_.gminRescued;
        }
        if (obs::FlightRecorder::enabled()) {
          obs::FlightRecorder::record(obs::FlightEvent::kGminRescue, gmin,
                                      static_cast<std::uint64_t>(level));
        }
      }
      return stats;
    }
    if (level == kMaxGminEscalations) {
      stats.iterations = totalIters;
      stats.gminEscalations = level;
      return stats;
    }
    gmin = std::min(std::max(gmin * 100.0, kGmin * 100.0), kGminCeiling);
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

  // Telemetry for this solve goes to the plain tallies.  Every count is
  // exact; the Newton laps are sampled.  One metered solve in kLapStride
  // on this thread is timed: it reads the clock once before the loop and
  // twice per iteration — after assembly and after the update and
  // convergence check — and adds kLapStride times each lap, so assemble_ns
  // and solve_ns tile the Newton loop in expectation.  The phase runs
  // across every solver on the thread, so a new solver's first solve (its
  // symbolic analysis and full factorization) is timed no more often than
  // any other.  Nothing is read or counted while metrics are disabled.
  static thread_local std::uint64_t meteredSolves = 0;
  const bool metered = obs::Metrics::enabled();
  const bool timed = metered && meteredSolves++ % kLapStride == 0;
  std::uint64_t lapStart = timed ? monotonicNanos() : 0;
  const auto lap = [&](std::uint64_t& ns) {
    if (!timed) return;
    const std::uint64_t now = monotonicNanos();
    ns += kLapStride * (now - lapStart);
    lapStart = now;
  };
  const obs::Span solveSpan("newton.solve");

  if (obs::FlightRecorder::enabled()) {
    obs::FlightRecorder::record(obs::FlightEvent::kSolveStart, time,
                                dc ? 1 : 0);
  }
  // First-iteration residual norm, for the exit classification and the
  // decay-rate histogram.
  double firstResNorm = 0.0;
  // Every exit: counts, iterations-per-solve, and a classification into
  // exactly one of converged/stagnated/diverged.
  const auto finish = [&](const NewtonStats& s, bool singular) {
    const double last = s.finalResidualNorm;
    const bool divergedExit =
        !s.converged && (singular || !std::isfinite(last) ||
                         (firstResNorm > 0.0 && last > 10.0 * firstResNorm));
    if (metered) {
      ++tally_.solves;
      if (timed) ++tally_.timedSolves;
      tally_.iterations += static_cast<std::uint64_t>(s.iterations);
      if (!s.converged) ++tally_.nonconverged;
      tally_.iterationsPerSolve.observe(static_cast<double>(s.iterations));
      if (s.converged) {
        ++tally_.converged;
      } else if (divergedExit) {
        ++tally_.diverged;
      } else {
        ++tally_.stagnated;
      }
      if (s.iterations > 0 && firstResNorm > 0.0 && last > 0.0 &&
          std::isfinite(firstResNorm) && std::isfinite(last)) {
        tally_.residualDecayRate.observe(std::log10(firstResNorm / last) /
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
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    stats.iterations = iter + 1;
    SystemView view(x, nodes);
    {
      const obs::Span span("newton.assemble");
      assembler_.assemble(netlist_, view, dc, time, dt, method, gmin);
    }
    lap(tally_.assembleNs);

    std::vector<double>& dx = dx_;  // member buffer: no per-iteration alloc
    try {
      const obs::Span span("newton.lu_solve");
      if (hier_) {
        hier_->solveForUpdate(assembler_.csr(), assembler_.residual(), dx);
      } else {
        assembler_.solveForUpdate(dx);
      }
    } catch (const NumericalError&) {
      // Singular Jacobian mid-iteration: report non-convergence so the
      // caller can cut the time step or raise gmin.
      lap(tally_.solveNs);
      stats.converged = false;
      finish(stats, /*singular=*/true);
      return stats;
    }

    // One pass over the unknowns: clamp the update (damping), apply it,
    // and check the update and the pre-update residual (already
    // assembled) against their tolerances.
    const std::span<const double> residual = assembler_.residual();
    const std::span<const double> rowScale = assembler_.rowScale();
    bool clamped = false;
    bool updateOk = true;
    bool residualOk = true;
    double resNorm = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const bool node = i < nodes;
      const double limit = node ? kMaxVoltageStep : kMaxAuxStep;
      double di = dx[u];
      if (di > limit) {
        di = limit;
        clamped = true;
      } else if (di < -limit) {
        di = -limit;
        clamped = true;
      }
      const double xi = x[u];
      x[u] = xi + di;
      const double tol =
          (node ? kVoltageAbsTol : kAuxAbsTol) + kRelTol * std::abs(xi);
      // Negated tests, so a NaN update or residual fails them, and a NaN
      // residual carries into resNorm (the exit is classed diverged).
      if (!(std::abs(di) <= tol)) updateOk = false;

      const double r = residual[u];
      if (!(std::abs(r) <= resNorm)) resNorm = std::abs(r);
      if (!(std::abs(r) <= kResidualAbsTol + kResidualRelTol * rowScale[u])) {
        residualOk = false;
      }
    }
    stats.finalResidualNorm = resNorm;
    if (iter == 0) firstResNorm = resNorm;
    if (obs::FlightRecorder::enabled()) {
      obs::FlightRecorder::record(obs::FlightEvent::kNewtonResidual, resNorm,
                                  static_cast<std::uint64_t>(iter));
    }

    lap(tally_.solveNs);

    if (updateOk && residualOk && !clamped) {
      stats.converged = true;
      finish(stats, /*singular=*/false);
      return stats;
    }
  }
  stats.converged = false;
  finish(stats, /*singular=*/false);
  return stats;
}

NewtonStats NewtonSolver::solveDcWithContinuation(std::vector<double>& x) {
  // Direct attempt first (attempt_ is the reused member trial buffer).
  attempt_ = x;
  NewtonStats stats = solveWithGmin(attempt_, /*dc=*/true, 0.0, 0.0,
                                    IntegrationMethod::kBackwardEuler, kGmin);
  if (stats.converged) {
    x = attempt_;
    return stats;
  }
  // Gmin stepping: start heavily regularized, then relax.
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
  for (double gmin = 1e-2; gmin >= kGmin * 0.99; gmin *= 0.1) {
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
                        IntegrationMethod::kBackwardEuler, kGmin);
  totalIters += stats.iterations;
  ++levels;
  if (!stats.converged) throw diagnose(kGmin);
  x = attempt_;
  stats.iterations = totalIters;
  stats.gminEscalations = levels;
  if (obs::Metrics::enabled()) {
    tally_.escalationAttempts += static_cast<std::uint64_t>(levels);
    tally_.gminEscalations += static_cast<std::uint64_t>(levels);
    ++tally_.gminRescued;
  }
  if (obs::FlightRecorder::enabled()) {
    obs::FlightRecorder::record(obs::FlightEvent::kGminRescue, kGmin,
                                static_cast<std::uint64_t>(levels));
  }
  return stats;
}

}  // namespace fefet::spice

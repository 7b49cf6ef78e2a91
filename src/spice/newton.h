// newton.h — damped Newton–Raphson over the MNA residual system, with
// per-unknown step limiting and optional gmin continuation for hard DC
// operating points.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "spice/assembler.h"
#include "spice/netlist.h"

namespace fefet::spice {

class HierEngine;

/// Convergence tolerances, damping clamps and the nominal gmin are
/// constants of newton.cc; the options select only the solve engine.
struct NewtonOptions {
  /// Solve the Newton update through the bordered-block-diagonal Schur
  /// engine (hier_engine.h) instead of the flat LU.  Effective only for
  /// a netlist whose freeze() built a useful BBD partition (border nodes
  /// marked, >= 2 blocks); silently falls back to the flat solve
  /// otherwise.  Off by default: the flat solve is the oracle.  The
  /// engine's macromodel collapsing of quiet blocks (hold-bias fast path,
  /// fixed tolerances in common/schur.cc) makes updates inexact-Newton
  /// steps with exact residuals — converged solutions agree with the flat
  /// engine within the Newton tolerances (see DESIGN.md §6.7).
  bool useHierarchicalSolve = false;
  /// Worker threads for per-block factorization (<= 0: FEFET_THREADS /
  /// hardware default).
  int hierThreads = 0;
};

struct NewtonStats {
  int iterations = 0;
  bool converged = false;
  double finalResidualNorm = 0.0;
  /// Gmin rescue levels applied before this solve converged (0 when the
  /// nominal gmin sufficed).
  int gminEscalations = 0;
};

/// Solve F(x) = 0 for the frozen netlist at one (DC or transient) instant.
/// `x` holds the initial guess and receives the solution.
///
/// Telemetry: every solve tallies the fefet.newton.* counters, the two
/// Newton histograms and (through the Assembler) fefet.assembler.* in plain
/// members; only the Newton laps (assemble_ns, solve_ns) are sampled, on
/// one solve in sixteen per thread (counted in timed_solves) and weighted
/// x16.  flushTelemetry() lands the tallies in the metrics registry.  The
/// Simulator flushes once per transient run (returned or thrown) and per
/// DC solve, and the destructor flushes what is left.
class NewtonSolver {
 public:
  NewtonSolver(Netlist& netlist, const NewtonOptions& options);
  ~NewtonSolver();

  /// One full Newton solve with the supplied stamp-context template (its
  /// view/stamper fields are filled per iteration).  Returns stats;
  /// `converged == false` means the caller should cut dt / apply gmin.
  NewtonStats solve(std::vector<double>& x, bool dc, double time, double dt,
                    IntegrationMethod method);

  /// Like solve(), but on non-convergence retries with gmin raised by
  /// x100 per level, up to 3 levels capped at 1e-6 S.  A rescue that
  /// converges reports the escalation count and the gmin it needed; x is
  /// only updated by the converging attempt.
  NewtonStats solveWithEscalation(std::vector<double>& x, bool dc,
                                  double time, double dt,
                                  IntegrationMethod method);

  /// DC solve with gmin stepping fallback: tries a direct solve, then a
  /// sequence of decreasing gmin values.  Throws NumericalError when even
  /// the continuation fails.
  NewtonStats solveDcWithContinuation(std::vector<double>& x);

  /// Add the telemetry tallied since the last flush to the metrics
  /// registry and zero it.  A caller that runs solve() directly and reads
  /// the registry must flush first.
  void flushTelemetry();

  /// The hierarchical solve engine, or nullptr when the flat LU is in use
  /// (option off or no useful partition).
  const HierEngine* hier() const { return hier_.get(); }

  /// Sparse-LU diagnostics of the flat solve: structure-cache counters and
  /// factor fill (zeros while the hierarchical engine does the solves).
  const linalg::SparseLuFactorizer& sparseFactorizer() const {
    return assembler_.factorizer();
  }

 private:
  NewtonStats solveWithGmin(std::vector<double>& x, bool dc, double time,
                            double dt, IntegrationMethod method, double gmin);

  Netlist& netlist_;  ///< frozen on construction, before assembler_
  Assembler assembler_;               ///< compiled stamp pipeline
  std::unique_ptr<HierEngine> hier_;  ///< BBD/Schur solve (optional)
  // Reused across iterations/escalation levels: the Newton update and the
  // trial vector of escalation/continuation attempts (no per-iteration
  // heap churn).
  std::vector<double> dx_;
  std::vector<double> attempt_;
  /// Telemetry since the last flushTelemetry(), counted while
  /// obs::Metrics::enabled() (one check per solve).
  struct Tally {
    Tally(const obs::Histogram& iterationsPerSolve,
          const obs::Histogram& residualDecayRate)
        : iterationsPerSolve(iterationsPerSolve),
          residualDecayRate(residualDecayRate) {}
    std::uint64_t solves = 0;
    std::uint64_t iterations = 0;
    std::uint64_t nonconverged = 0;
    std::uint64_t gminEscalations = 0;
    std::uint64_t escalationAttempts = 0;
    std::uint64_t assembleNs = 0;
    std::uint64_t solveNs = 0;
    std::uint64_t timedSolves = 0;
    std::uint64_t converged = 0;
    std::uint64_t stagnated = 0;
    std::uint64_t diverged = 0;
    std::uint64_t gminRescued = 0;
    obs::HistogramTally iterationsPerSolve;
    obs::HistogramTally residualDecayRate;
  } tally_;
};

}  // namespace fefet::spice

// newton.h — damped Newton–Raphson over the MNA residual system, with
// per-unknown step limiting and optional gmin continuation for hard DC
// operating points.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spice/assembler.h"
#include "spice/netlist.h"

namespace fefet::spice {

/// Dense -> sparse crossover: systems with more unknowns than this use the
/// CSR storage + ordered sparse LU; at or below it the dense LU runs.  The
/// value sits between cell and array netlists, so every cell simulation
/// keeps its bit-exact dense-LU arithmetic (and goldens).  It is not a
/// speed optimum: the ordered sparse path is faster at every size down to
/// one 2T cell (EXPERIMENTS.md, Fig. 7 solver section).
inline constexpr int kDenseToSparseCrossover = 160;

/// Session default for NewtonOptions::useHierarchicalSolve: false unless
/// the environment sets FEFET_HIERARCHICAL_SOLVE=1 (opt-in — the flat
/// solve remains the oracle, see partition.h / hier_engine.h).
bool defaultUseHierarchicalSolve();

class HierEngine;

struct NewtonOptions {
  int maxIterations = 80;
  double voltageAbsTol = 1e-6;    ///< [V] update tolerance on node voltages
  double auxAbsTol = 1e-9;        ///< update tolerance on aux unknowns
  double relTol = 1e-4;           ///< relative part of both checks
  double residualAbsTol = 1e-9;   ///< [A]/[V] absolute residual floor
  double residualRelTol = 1e-6;   ///< residual vs row activity scale
  double maxVoltageStep = 0.6;    ///< [V] damping clamp per iteration
  double maxAuxStep = 0.1;        ///< damping clamp on aux unknowns
  double gmin = 1e-12;            ///< [S] node-to-ground regularization
  /// Solve the Newton update through the bordered-block-diagonal Schur
  /// engine (hier_engine.h) instead of the flat LU.  Effective only for
  /// a netlist whose freeze() built a useful BBD partition (border nodes
  /// marked, >= 2 blocks); silently falls back to the flat solve
  /// otherwise.  Collapsing makes updates inexact-Newton
  /// steps with exact residuals — converged solutions agree with the flat
  /// engine within the Newton tolerances (see DESIGN.md §6.7).
  bool useHierarchicalSolve = defaultUseHierarchicalSolve();
  /// Macromodel collapsing of quiet blocks (hold-bias fast path); the
  /// tolerances mirror linalg::SchurOptions.
  bool hierCollapse = true;
  double hierCollapseAbsTol = 1e-12;
  double hierCollapseRelTol = 1e-5;
  int hierCollapseQuietEvals = 3;
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
  /// Gmin actually used by the converged solve (options.gmin nominally).
  double gminUsed = 0.0;
};

/// Solve F(x) = 0 for the frozen netlist at one (DC or transient) instant.
/// `x` holds the initial guess and receives the solution.
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
  /// x100 per level, up to `maxEscalations` levels capped at `gminMax`.
  /// A rescue that converges reports the escalation count and the gmin it
  /// needed; x is only updated by the converging attempt.
  NewtonStats solveWithEscalation(std::vector<double>& x, bool dc,
                                  double time, double dt,
                                  IntegrationMethod method,
                                  int maxEscalations, double gminMax);

  /// DC solve with gmin stepping fallback: tries a direct solve, then a
  /// sequence of decreasing gmin values.  Throws NumericalError when even
  /// the continuation fails.
  NewtonStats solveDcWithContinuation(std::vector<double>& x);

  /// The hierarchical solve engine, or nullptr when the flat LU is in use
  /// (option off or no useful partition).
  const HierEngine* hier() const { return hier_.get(); }

  /// Sparse-LU diagnostics of the flat solve: structure-cache counters and
  /// factor fill (zeros on the dense path).
  const linalg::SparseLuFactorizer& sparseFactorizer() const {
    return assembler_.solver().sparseFactorizer();
  }

 private:
  NewtonStats solveWithGmin(std::vector<double>& x, bool dc, double time,
                            double dt, IntegrationMethod method, double gmin);

  Netlist& netlist_;  ///< frozen on construction, before assembler_
  NewtonOptions options_;
  Assembler assembler_;               ///< compiled stamp pipeline
  std::unique_ptr<HierEngine> hier_;  ///< BBD/Schur solve (optional)
  // Reused across iterations/escalation levels: the Newton update and the
  // trial vector of escalation/continuation attempts (no per-iteration
  // heap churn).
  std::vector<double> dx_;
  std::vector<double> attempt_;
};

}  // namespace fefet::spice

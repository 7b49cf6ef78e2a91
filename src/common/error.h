// error.h — exception hierarchy used across the library.
//
// All failures raise exceptions derived from fefet::Error.  Numerical
// failures (non-convergence, singular matrices) carry enough context to
// diagnose the offending circuit or sweep.
#pragma once

#include <stdexcept>
#include <string>

namespace fefet {

/// Base class of every exception thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed user input: unknown node, bad parameter, inconsistent config.
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what) {}
};

/// Retry history attached to solver failures: what the rescue ladder
/// attempted before giving up, so a non-converged run is diagnosable
/// without re-running it under a debugger.
struct SolverDiagnostics {
  double time = -1.0;        ///< [s] transient time point of the failure
  double smallestDt = 0.0;   ///< [s] smallest step attempted
  int dtCuts = 0;            ///< step-size reductions applied
  int gminEscalations = 0;   ///< gmin rescue levels tried
  int steps = 0;             ///< accepted steps before the failure
  int newtonIterations = 0;  ///< cumulative Newton iterations
  double finalResidualNorm = 0.0;

  /// One-line "t=..., dt=..., N cuts, M gmin escalations" rendering.
  std::string summary() const;
};

/// Observer invoked from every NumericalError construction.  Registered by
/// the observability layer (obs/flight_recorder) so a solver failure leaves a
/// black-box dump even when the exception is caught and retried upstream
/// — `common` stays dependency-free by only holding the function pointer.
/// The hook runs inside exception construction: it must not throw and
/// must tolerate concurrent calls.  `diag` is null when the error carries
/// no diagnostics.
using NumericalErrorHook = void (*)(const SolverDiagnostics* diag);

/// Install (or clear, with nullptr) the process-wide hook.  Returns the
/// previous hook.
NumericalErrorHook setNumericalErrorHook(NumericalErrorHook hook);

/// A numerical routine failed: Newton did not converge, matrix singular,
/// root not bracketed, time step underflow.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what);
  NumericalError(const std::string& what, const SolverDiagnostics& diag);

  bool hasDiagnostics() const { return hasDiagnostics_; }
  const SolverDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  SolverDiagnostics diagnostics_;
  bool hasDiagnostics_ = false;
};

/// A simulation-level failure: write did not complete, sense amplifier did
/// not resolve, measurement target never crossed.
class SimulationError : public Error {
 public:
  explicit SimulationError(const std::string& what) : Error(what) {}
  SimulationError(const std::string& what, const SolverDiagnostics& diag);

  bool hasDiagnostics() const { return hasDiagnostics_; }
  const SolverDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  SolverDiagnostics diagnostics_;
  bool hasDiagnostics_ = false;
};

namespace detail {
[[noreturn]] void throwRequireFailure(const char* expr, const char* file,
                                      int line, const std::string& message);
}  // namespace detail

/// Precondition check used at public API boundaries.  Throws
/// InvalidArgumentError with location info when `expr` is false.
#define FEFET_REQUIRE(expr, message)                                        \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::fefet::detail::throwRequireFailure(#expr, __FILE__, __LINE__,       \
                                           (message));                     \
    }                                                                       \
  } while (false)

}  // namespace fefet

#include "common/error.h"

#include <atomic>
#include <sstream>

namespace fefet {
namespace {

std::atomic<NumericalErrorHook> g_numericalErrorHook{nullptr};

void notifyNumericalError(const SolverDiagnostics* diag) {
  if (NumericalErrorHook hook =
          g_numericalErrorHook.load(std::memory_order_acquire)) {
    hook(diag);
  }
}

}  // namespace

NumericalErrorHook setNumericalErrorHook(NumericalErrorHook hook) {
  return g_numericalErrorHook.exchange(hook, std::memory_order_acq_rel);
}

std::string SolverDiagnostics::summary() const {
  std::ostringstream os;
  if (time >= 0.0) os << "t=" << time << " s, ";
  os << "smallest dt=" << smallestDt << " s, " << dtCuts << " dt cuts, "
     << gminEscalations << " gmin escalations, " << steps << " steps, "
     << newtonIterations << " Newton iterations";
  if (finalResidualNorm > 0.0) os << ", residual=" << finalResidualNorm;
  return os.str();
}

NumericalError::NumericalError(const std::string& what) : Error(what) {
  notifyNumericalError(nullptr);
}

NumericalError::NumericalError(const std::string& what,
                               const SolverDiagnostics& diag)
    : Error(what + " [" + diag.summary() + "]"),
      diagnostics_(diag),
      hasDiagnostics_(true) {
  notifyNumericalError(&diagnostics_);
}

SimulationError::SimulationError(const std::string& what,
                                 const SolverDiagnostics& diag)
    : Error(what + " [" + diag.summary() + "]"),
      diagnostics_(diag),
      hasDiagnostics_(true) {}

namespace detail {

void throwRequireFailure(const char* expr, const char* file, int line,
                         const std::string& message) {
  std::ostringstream os;
  os << "requirement failed: " << message << " [" << expr << "] at " << file
     << ":" << line;
  throw InvalidArgumentError(os.str());
}

}  // namespace detail
}  // namespace fefet

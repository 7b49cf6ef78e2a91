// hier_engine.h — hierarchical (BBD/Schur) linear-solve engine for Newton.
//
// Thin adapter between the compiled-stamp Assembler and the layer-neutral
// linalg::SchurSolver: it owns the thread pool that parallelizes per-block
// factorization, negates the assembled residual into the Schur right-hand
// side (solveForUpdate semantics: J dx = -F), and translates SchurStats
// deltas into the fefet.hier.* observability counters/histograms after
// every solve.  common/ cannot depend on sim/, so the pool is injected
// into the solver through its ParallelFor hook; the region barrier is a
// local counting latch rather than ThreadPool::wait() so a shared pool
// with unrelated in-flight jobs still works.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/schur.h"
#include "sim/thread_pool.h"
#include "spice/partition.h"

namespace fefet::spice {

class StampPattern;

class HierEngine {
 public:
  /// `pattern` and `partition` must outlive the engine (the netlist owns
  /// both).  `threads` <= 0 uses sim::defaultThreadCount().
  HierEngine(const StampPattern& pattern, const BbdPartition& partition,
             int threads = 0);

  /// Solve J dx = -F for the assembled system (`a` with gmin applied,
  /// `residual` = F).  Throws NumericalError on singular blocks/border.
  void solveForUpdate(const linalg::CsrView& a,
                      std::span<const double> residual,
                      std::vector<double>& dx);

  const linalg::SchurStats& stats() const { return solver_.stats(); }
  int blockCount() const { return solver_.blockCount(); }
  int borderSize() const { return solver_.borderSize(); }

 private:
  linalg::SchurSolver solver_;
  std::unique_ptr<sim::ThreadPool> pool_;
  int threads_ = 1;
  std::vector<double> rhs_;
  linalg::SchurStats lastStats_;  ///< snapshot for per-solve metric deltas
};

}  // namespace fefet::spice

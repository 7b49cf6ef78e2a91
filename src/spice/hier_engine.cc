#include "spice/hier_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "spice/stamp_pattern.h"

namespace fefet::spice {

namespace {

/// fefet.hier.* registry handles, resolved once.
struct HierTelemetry {
  obs::Counter& solves;
  obs::Counter& blockFactorizations;
  obs::Counter& blockFactorSkips;
  obs::Counter& collapses;
  obs::Counter& expands;
  obs::Counter& schurRefactors;
  obs::Counter& schurReuses;
  obs::Histogram& collapsedRatio;
  obs::Histogram& blockFactorsPerSolve;

  static HierTelemetry& get() {
    static constexpr double kRatioEdges[] = {0.0,  0.1, 0.25, 0.5,
                                             0.75, 0.9, 0.99, 1.0};
    static constexpr double kFactorEdges[] = {0,  1,  2,   4,   8,  16,
                                              32, 64, 128, 256, 512};
    static HierTelemetry t{
        obs::Metrics::counter("fefet.hier.solves"),
        obs::Metrics::counter("fefet.hier.block_factorizations"),
        obs::Metrics::counter("fefet.hier.block_factor_skips"),
        obs::Metrics::counter("fefet.hier.collapses"),
        obs::Metrics::counter("fefet.hier.expands"),
        obs::Metrics::counter("fefet.hier.schur_refactors"),
        obs::Metrics::counter("fefet.hier.schur_reuses"),
        obs::Metrics::histogram("fefet.hier.collapsed_ratio", kRatioEdges),
        obs::Metrics::histogram("fefet.hier.block_factors_per_solve",
                                kFactorEdges)};
    return t;
  }
};

}  // namespace

HierEngine::HierEngine(const StampPattern& pattern,
                       const BbdPartition& partition, int threads)
    : solver_(pattern.rowPtr(), pattern.colIdx(), partition.schurPartition()) {
  threads_ = threads > 0 ? threads : sim::defaultThreadCount();
  threads_ = std::min(threads_, solver_.blockCount());
  if (threads_ > 1) {
    pool_ = std::make_unique<sim::ThreadPool>(threads_);
    solver_.setParallelFor([this](int count,
                                  const std::function<void(int)>& fn) {
      if (count <= 1) {
        for (int i = 0; i < count; ++i) fn(i);
        return;
      }
      const int workers = std::min(threads_, count);
      // Work-stealing index + local latch: ThreadPool::wait() drains the
      // whole queue, which would deadlock a shared pool, so each region
      // counts its own workers down and wakes the submitter.
      auto next = std::make_shared<std::atomic<int>>(0);
      auto done = std::make_shared<std::atomic<int>>(0);
      auto mutex = std::make_shared<std::mutex>();
      auto cv = std::make_shared<std::condition_variable>();
      for (int w = 0; w < workers; ++w) {
        pool_->submit([next, done, mutex, cv, workers, count, &fn] {
          int i = 0;
          while ((i = next->fetch_add(1, std::memory_order_relaxed)) <
                 count) {
            fn(i);
          }
          if (done->fetch_add(1) + 1 == workers) {
            const std::lock_guard<std::mutex> lock(*mutex);
            cv->notify_all();
          }
        });
      }
      std::unique_lock<std::mutex> lock(*mutex);
      cv->wait(lock, [&] { return done->load() == workers; });
    });
  }
}

void HierEngine::solveForUpdate(const linalg::CsrView& a,
                                std::span<const double> residual,
                                std::vector<double>& dx) {
  const std::size_t n = residual.size();
  rhs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) rhs_[i] = -residual[i];
  dx.resize(n);
  solver_.solve(a, rhs_, dx);

  if (obs::Metrics::enabled()) {
    HierTelemetry& t = HierTelemetry::get();
    const linalg::SchurStats& s = solver_.stats();
    const auto delta = [](long cur, long prev) {
      return static_cast<std::uint64_t>(cur - prev);
    };
    t.solves.increment();
    t.blockFactorizations.add(
        delta(s.blockFactorizations, lastStats_.blockFactorizations));
    t.blockFactorSkips.add(
        delta(s.blockFactorSkips, lastStats_.blockFactorSkips));
    t.collapses.add(delta(s.collapses, lastStats_.collapses));
    t.expands.add(delta(s.expands, lastStats_.expands));
    t.schurRefactors.add(
        delta(s.schurRefactorizations, lastStats_.schurRefactorizations));
    t.schurReuses.add(delta(s.schurReuses, lastStats_.schurReuses));
    t.collapsedRatio.observe(static_cast<double>(s.collapsedBlocks) /
                             static_cast<double>(solver_.blockCount()));
    t.blockFactorsPerSolve.observe(static_cast<double>(
        delta(s.blockFactorizations, lastStats_.blockFactorizations)));
    if (obs::FlightRecorder::enabled()) {
      // Collapse/expand transitions are the hierarchy's state machine —
      // exactly the events a post-mortem wants when a macromodel went
      // quiet (or woke) right before a divergence.
      const double ratio = static_cast<double>(s.collapsedBlocks) /
                           static_cast<double>(solver_.blockCount());
      const std::uint64_t collapsed =
          delta(s.collapses, lastStats_.collapses);
      const std::uint64_t expanded = delta(s.expands, lastStats_.expands);
      if (collapsed > 0) {
        obs::FlightRecorder::record(obs::FlightEvent::kCollapse, ratio,
                                    collapsed);
      }
      if (expanded > 0) {
        obs::FlightRecorder::record(obs::FlightEvent::kExpand, ratio,
                                    expanded);
      }
    }
    lastStats_ = s;
  }
}

}  // namespace fefet::spice

#include "sim/sweep_engine.h"

#include <sstream>

#include "common/clock.h"
#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace fefet::sim {

namespace {

/// Sweep-level health telemetry under fefet.sweep.*.  The per-point wall
/// time histogram feeds capacity planning (where did the sweep time go);
/// the replay counter quantifies how much work resume actually saved.
struct SweepTelemetry {
  obs::Counter& pointsOk;
  obs::Counter& pointsFailed;
  obs::Counter& journalReplays;
  obs::Histogram& pointSeconds;
};

SweepTelemetry& sweepTelemetry() {
  static constexpr double kSecondsEdges[] = {0.001, 0.003, 0.01, 0.03, 0.1,
                                             0.3,   1.0,   3.0,  10.0, 30.0,
                                             100.0, 300.0};
  static SweepTelemetry t{
      obs::Metrics::counter("fefet.sweep.points_ok"),
      obs::Metrics::counter("fefet.sweep.points_failed"),
      obs::Metrics::counter("fefet.sweep.journal_replays"),
      obs::Metrics::histogram("fefet.sweep.point_seconds", kSecondsEdges)};
  return t;
}

}  // namespace

const char* toString(SweepPointStatus status) {
  switch (status) {
    case SweepPointStatus::kOk: return "ok";
    case SweepPointStatus::kFailed: return "failed";
    case SweepPointStatus::kFromJournal: return "from-journal";
  }
  return "unknown";
}

SweepSummary summarize(const std::vector<SweepOutcome>& outcomes) {
  SweepSummary s;
  for (const auto& outcome : outcomes) {
    switch (outcome.status) {
      case SweepPointStatus::kOk: ++s.ok; break;
      case SweepPointStatus::kFailed: ++s.failed; break;
      case SweepPointStatus::kFromJournal: ++s.fromJournal; break;
    }
  }
  return s;
}

std::uint64_t SweepEngine::pointSeed(std::uint64_t baseSeed,
                                     std::size_t index) {
  // splitmix64(baseSeed) spreads correlated base seeds apart; adding the
  // raw index then finalizing again is exactly the splitmix64 sequence
  // construction, so neighboring indices land in uncorrelated streams.
  return stats::splitmix64(stats::splitmix64(baseSeed) +
                           static_cast<std::uint64_t>(index));
}

int SweepEngine::threadCount() const {
  return options_.threads >= 1 ? options_.threads : defaultThreadCount();
}

void SweepEngine::beginRun(std::size_t total) {
  const std::lock_guard<std::mutex> guard(mutex_);
  failures_.clear();
  outcomes_.assign(total, SweepOutcome{});
  journal_.reset();
  lastMetricsRefreshNs_ = 0;
}

SweepJournalLoad SweepEngine::loadJournal(std::size_t total) {
  SweepJournalLoad load =
      SweepJournal::load(options_.journal.path, total, options_.baseSeed,
                         options_.journal.configDigest);
  if (!load.warning.empty()) {
    FEFET_WARN() << "sweep journal: " << load.warning;
  }
  if (load.usable && !load.records.empty()) {
    FEFET_INFO() << "sweep journal: resuming " << load.records.size()
                 << " of " << total << " points from "
                 << options_.journal.path;
  }
  return load;
}

void SweepEngine::openJournal(std::size_t total,
                              const SweepJournalLoad* resumeFrom) {
  const std::lock_guard<std::mutex> guard(mutex_);
  journal_ = std::make_unique<SweepJournal>(
      options_.journal.path, total, options_.baseSeed,
      options_.journal.configDigest, resumeFrom);
}

void SweepEngine::markReplayed(std::size_t index) {
  const std::lock_guard<std::mutex> guard(mutex_);
  outcomes_[index].status = SweepPointStatus::kFromJournal;
  if (obs::Metrics::enabled()) sweepTelemetry().journalReplays.increment();
}

void SweepEngine::finishPointOk(std::size_t index, double seconds,
                                const std::string* payload) {
  const std::lock_guard<std::mutex> guard(mutex_);
  outcomes_[index].status = SweepPointStatus::kOk;
  outcomes_[index].seconds = seconds;
  if (obs::Metrics::enabled()) {
    SweepTelemetry& t = sweepTelemetry();
    t.pointsOk.increment();
    t.pointSeconds.observe(seconds);
  }
  if (journal_ && payload != nullptr) journal_->appendPoint(index, *payload);
  refreshBlackboxMetricsLocked();
}

void SweepEngine::finishPointFailed(std::size_t index, double seconds,
                                    const std::string& message) {
  const std::lock_guard<std::mutex> guard(mutex_);
  outcomes_[index].status = SweepPointStatus::kFailed;
  outcomes_[index].message = message;
  outcomes_[index].seconds = seconds;
  if (obs::Metrics::enabled()) {
    SweepTelemetry& t = sweepTelemetry();
    t.pointsFailed.increment();
    t.pointSeconds.observe(seconds);
  }
  failures_.push_back({index, message});
  refreshBlackboxMetricsLocked();
}

void SweepEngine::refreshBlackboxMetricsLocked() {
  // The crash handler cannot snapshot metrics itself (snapshot() allocates),
  // so a mid-sweep crash dump carries the last buffer refreshed here.
  if (!obs::FlightRecorder::enabled()) return;
  constexpr std::uint64_t kRefreshIntervalNs = 1'000'000'000ULL;
  const std::uint64_t now = monotonicNanos();
  if (lastMetricsRefreshNs_ != 0 &&
      now - lastMetricsRefreshNs_ < kRefreshIntervalNs) {
    return;
  }
  lastMetricsRefreshNs_ = now;
  obs::FlightRecorder::updateMetricsBuffer();
}

void SweepEngine::finishRun(std::size_t total) {
  std::vector<PointFailure> failures;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    journal_.reset();  // close + release the journal before any throw
    failures = failures_;
  }
  if (options_.failurePolicy == SweepFailurePolicy::kCollectAndContinue) {
    return;  // outcomes() carries the full story; partial results returned
  }
  // Failures were recorded in completion order; report them by point index
  // so the diagnostic is deterministic across thread schedules.
  std::sort(failures.begin(), failures.end(),
            [](const PointFailure& a, const PointFailure& b) {
              return a.index < b.index;
            });
  if (!failures.empty()) {
    std::ostringstream os;
    os << "sweep failed at " << failures.size() << " of " << total
       << " points:";
    const std::size_t shown = std::min<std::size_t>(failures.size(), 4);
    for (std::size_t i = 0; i < shown; ++i) {
      os << " [point " << failures[i].index << ": " << failures[i].message
         << "]";
    }
    if (failures.size() > shown) {
      os << " (+" << failures.size() - shown << " more)";
    }
    throw SweepError(os.str(), std::move(failures));
  }
}

}  // namespace fefet::sim

// sweep_engine.h — parallel, crash-safe execution of independent
// simulation points.
//
// Monte Carlo variability samples, write-yield points and design-space
// grid points all share one shape: N independent points, each running a
// self-contained (and internally single-threaded) simulation.  SweepEngine
// fans those points across a fixed-size ThreadPool with
//
//  * deterministic per-point seeding — pointSeed(baseSeed, index) is a
//    splitmix64 hash, so a point's random stream depends only on the base
//    seed and its index, never on thread count or completion order;
//  * ordered result collection — run() returns results[i] for points[i]
//    regardless of which worker finished first;
//  * exception capture — a throwing point never kills the process; under
//    the default kThrow policy the failures are rethrown after the sweep
//    as one SweepError, under kCollectAndContinue the sweep returns
//    partial results plus a per-point SweepOutcome record;
//  * crash-safe journaling — with SweepOptions::journal.path set (and a
//    SweepCodec to serialize results), every completed point is appended
//    to a checksummed JSONL journal (see sim/sweep_journal.h) and a
//    killed sweep resumes by replaying completed points bit-identically
//    instead of re-simulating them;
//  * black-box freshness — while obs::FlightRecorder is enabled, the
//    point-completion path refreshes its crash-dump metrics snapshot at
//    most once a second, so a dump taken mid-sweep carries recent
//    counters.
//
// The engine parallelizes *across* points only.  Everything below it —
// Netlist, Simulator, NewtonSolver — stays single-threaded per simulation
// and must not be shared between concurrently running points.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/trace.h"
#include "sim/sweep_journal.h"
#include "sim/thread_pool.h"

namespace fefet::sim {

/// Per-point execution context handed to the sweep function.
struct SweepContext {
  std::size_t index = 0;     ///< position of the point in the input vector
  std::uint64_t seed = 0;    ///< pointSeed(baseSeed, index)
  int thread = 0;            ///< worker slot running this point
};

/// What run() does when one or more points fail.
enum class SweepFailurePolicy {
  kThrow,               ///< finish every point, then throw SweepError
  kCollectAndContinue,  ///< never throw; report per-point SweepOutcomes
};

/// Terminal state of one sweep point.
enum class SweepPointStatus : std::uint8_t {
  kOk,           ///< simulated to completion this run
  kFailed,       ///< the point function threw
  kFromJournal,  ///< replayed from the resume journal, not re-simulated
};

const char* toString(SweepPointStatus status);

/// Per-point outcome record (parallel to the results vector).
/// Every point of a run() reaches one of the statuses above.
struct SweepOutcome {
  SweepPointStatus status = SweepPointStatus::kOk;
  std::string message;   ///< failure diagnostic; empty when ok
  double seconds = 0.0;  ///< wall time spent simulating (0 for replays)
};

/// Outcome tally of one run().
struct SweepSummary {
  std::size_t ok = 0;           ///< simulated successfully this run
  std::size_t failed = 0;
  std::size_t fromJournal = 0;  ///< replayed from the journal
  /// Points with a valid result: ok + fromJournal.
  std::size_t completed() const { return ok + fromJournal; }
};

SweepSummary summarize(const std::vector<SweepOutcome>& outcomes);

/// Result serializer for journaled sweeps: encode must be the exact
/// inverse of decode (replayed points are required to be bit-identical to
/// re-simulated ones).
template <typename Result>
struct SweepCodec {
  std::function<std::string(const Result&)> encode;
  std::function<Result(const std::string&)> decode;
};

struct SweepOptions {
  /// Worker count; 0 means defaultThreadCount() (FEFET_THREADS env or
  /// hardware concurrency).  The pool never exceeds the point count.
  int threads = 0;
  /// Base seed for the deterministic per-point seed derivation.
  std::uint64_t baseSeed = 1;
  SweepFailurePolicy failurePolicy = SweepFailurePolicy::kThrow;
  /// Crash-safe checkpoint/resume (requires the codec overload of run()).
  SweepJournalOptions journal;
};

/// One captured worker failure.
struct PointFailure {
  std::size_t index = 0;
  std::string message;
};

/// Thrown after a sweep in which one or more points threw.  The remaining
/// points still ran to completion; failures() lists every casualty.
class SweepError : public Error {
 public:
  SweepError(const std::string& what, std::vector<PointFailure> failures)
      : Error(what), failures_(std::move(failures)) {}
  const std::vector<PointFailure>& failures() const { return failures_; }

 private:
  std::vector<PointFailure> failures_;
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {})
      : options_(std::move(options)) {}

  /// Deterministic per-point seed: a splitmix64 hash of the base seed and
  /// the point index.  Pure function — identical for every thread count.
  static std::uint64_t pointSeed(std::uint64_t baseSeed, std::size_t index);

  int threadCount() const;

  /// Per-point outcomes of the most recent run() (valid after run()
  /// returns or throws).  outcomes()[i] corresponds to points[i].
  const std::vector<SweepOutcome>& outcomes() const { return outcomes_; }
  /// Tally of outcomes().
  SweepSummary summary() const { return summarize(outcomes_); }

  /// Run fn(point, context) for every point, in parallel, returning the
  /// results in input order.  fn is invoked concurrently from several
  /// threads and must be safe to call that way (independent points must
  /// not share mutable state).  Every point runs.  Under kThrow (default)
  /// throws SweepError if any point threw; under kCollectAndContinue never
  /// throws and leaves failed points default-constructed in the result
  /// vector (see outcomes()).
  template <typename Point, typename Fn>
  auto run(const std::vector<Point>& points, Fn&& fn)
      -> std::vector<std::decay_t<
          std::invoke_result_t<Fn&, const Point&, const SweepContext&>>> {
    using Result = std::decay_t<
        std::invoke_result_t<Fn&, const Point&, const SweepContext&>>;
    FEFET_REQUIRE(options_.journal.path.empty(),
                  "a journaled sweep needs the codec overload of run()");
    return runImpl(points, fn, static_cast<SweepCodec<Result>*>(nullptr));
  }

  /// run() with crash-safe journaling: every completed point is appended
  /// to SweepOptions::journal.path via codec.encode, and (with
  /// journal.resume) completed points of a previous run are replayed via
  /// codec.decode instead of re-simulated.  codec.decode(codec.encode(r))
  /// must reproduce r exactly for the resume bit-identity guarantee.
  template <typename Point, typename Fn>
  auto run(const std::vector<Point>& points, Fn&& fn,
           SweepCodec<std::decay_t<std::invoke_result_t<
               Fn&, const Point&, const SweepContext&>>> codec)
      -> std::vector<std::decay_t<
          std::invoke_result_t<Fn&, const Point&, const SweepContext&>>> {
    return runImpl(points, fn, &codec);
  }

 private:
  template <typename Point, typename Fn, typename Result>
  std::vector<Result> runImpl(const std::vector<Point>& points, Fn& fn,
                              SweepCodec<Result>* codec) {
    static_assert(std::is_default_constructible_v<Result>,
                  "sweep results must be default-constructible (failed "
                  "points yield a default value under kCollectAndContinue)");
    const std::size_t total = points.size();
    beginRun(total);
    std::vector<std::optional<Result>> slots(total);
    std::vector<char> replayed(total, 0);

    const bool journaling = codec != nullptr && !options_.journal.path.empty();
    if (journaling) {
      FEFET_REQUIRE(codec->encode && codec->decode,
                    "sweep journal codec must provide encode and decode");
      SweepJournalLoad load;
      if (options_.journal.resume) {
        load = loadJournal(total);
        bool decodeOk = true;
        std::vector<std::pair<std::size_t, Result>> restored;
        restored.reserve(load.records.size());
        for (const auto& record : load.records) {
          try {
            restored.emplace_back(record.index, codec->decode(record.payload));
          } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "[WARN ] sweep journal: cannot decode point %zu "
                         "(%s); discarding the journal and starting fresh\n",
                         record.index, e.what());
            decodeOk = false;
            break;
          }
        }
        if (!decodeOk) load = SweepJournalLoad{};
        if (load.usable) {
          for (auto& [index, result] : restored) {
            slots[index].emplace(std::move(result));
            replayed[index] = 1;
            markReplayed(index);
          }
        }
      }
      openJournal(total, load.usable ? &load : nullptr);
    }

    if (total > 0) {
      const int threads = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(threadCount()), total));
      std::atomic<std::size_t> next{0};
      {
        ThreadPool pool(threads);
        for (int t = 0; t < threads; ++t) {
          pool.submit([this, t, total, &next, &slots, &replayed, &points, &fn,
                       codec] {
            for (;;) {
              const std::size_t i =
                  next.fetch_add(1, std::memory_order_relaxed);
              if (i >= total) break;
              if (replayed[i]) continue;
              const SweepContext ctx{i, pointSeed(options_.baseSeed, i), t};
              const obs::Span pointSpan("sweep.point",
                                        static_cast<std::uint64_t>(i));
              const auto started = std::chrono::steady_clock::now();
              const auto elapsed = [&] {
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                    .count();
              };
              try {
                Result result = fn(points[i], ctx);
                const std::string payload =
                    codec != nullptr && !options_.journal.path.empty()
                        ? codec->encode(result)
                        : std::string();
                slots[i].emplace(std::move(result));
                finishPointOk(i, elapsed(),
                              codec != nullptr ? &payload : nullptr);
              } catch (const std::exception& e) {
                finishPointFailed(i, elapsed(), e.what());
              } catch (...) {
                finishPointFailed(i, elapsed(), "non-standard exception");
              }
            }
          });
        }
        pool.wait();
      }
    }
    finishRun(total);  // may throw under kThrow; always closes the journal
    std::vector<Result> results;
    results.reserve(total);
    for (auto& slot : slots) {
      results.push_back(slot ? std::move(*slot) : Result{});
    }
    return results;
  }

  void beginRun(std::size_t total);
  SweepJournalLoad loadJournal(std::size_t total);
  void openJournal(std::size_t total, const SweepJournalLoad* resumeFrom);
  void markReplayed(std::size_t index);
  void finishPointOk(std::size_t index, double seconds,
                     const std::string* payload);
  void finishPointFailed(std::size_t index, double seconds,
                         const std::string& message);
  void refreshBlackboxMetricsLocked();
  void finishRun(std::size_t total);

  SweepOptions options_;
  std::mutex mutex_;  ///< guards everything below + journal writes
  std::vector<PointFailure> failures_;
  std::vector<SweepOutcome> outcomes_;
  std::unique_ptr<SweepJournal> journal_;
  /// monotonicNanos() of the last black-box metrics refresh; 0 = none yet
  /// this run.
  std::uint64_t lastMetricsRefreshNs_ = 0;
};

}  // namespace fefet::sim

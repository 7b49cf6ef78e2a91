// Concurrency tests for the sim layer: ThreadPool basics and the
// SweepEngine contracts — ordered results, thread-count-invariant seeding,
// exception capture and the resilience layer (journaled resume,
// CollectAndContinue).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "sim/sweep_engine.h"
#include "sim/thread_pool.h"

namespace fefet {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  sim::ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ClampsToAtLeastOneThread) {
  sim::ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  sim::ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(SweepEngine, ReturnsResultsInInputOrder) {
  sim::SweepOptions options;
  options.threads = 4;
  sim::SweepEngine engine(options);
  std::vector<int> points(64);
  std::iota(points.begin(), points.end(), 0);
  const auto results =
      engine.run(points, [](int p, const sim::SweepContext& ctx) {
        EXPECT_EQ(static_cast<std::size_t>(p), ctx.index);
        // Stagger completion so later points routinely finish first.
        std::this_thread::sleep_for(std::chrono::microseconds(200 * (p % 5)));
        return p * p;
      });
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(SweepEngine, SeedsAreInvariantUnderThreadCount) {
  std::vector<int> points(40);
  std::iota(points.begin(), points.end(), 0);
  auto collectSeeds = [&](int threads) {
    sim::SweepOptions options;
    options.threads = threads;
    options.baseSeed = 99;
    sim::SweepEngine engine(options);
    return engine.run(points, [](int, const sim::SweepContext& ctx) {
      // A derived "simulation result" that depends only on the seed.
      stats::Rng rng(ctx.seed);
      return rng.uniform(0.0, 1.0);
    });
  };
  const auto one = collectSeeds(1);
  const auto four = collectSeeds(4);
  const auto eight = collectSeeds(8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(SweepEngine, PointSeedIsAPureWellMixedFunction) {
  EXPECT_EQ(sim::SweepEngine::pointSeed(1, 0), sim::SweepEngine::pointSeed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) {
    seeds.insert(sim::SweepEngine::pointSeed(2016, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions on a small index range
  EXPECT_NE(sim::SweepEngine::pointSeed(1, 5), sim::SweepEngine::pointSeed(2, 5));
}

TEST(SweepEngine, CapturesWorkerExceptionsAsSweepError) {
  sim::SweepOptions options;
  options.threads = 4;
  sim::SweepEngine engine(options);
  std::vector<int> points(20);
  std::iota(points.begin(), points.end(), 0);
  std::atomic<int> completed{0};
  try {
    engine.run(points, [&](int p, const sim::SweepContext&) {
      if (p % 7 == 3) {
        throw SimulationError("point " + std::to_string(p) + " diverged");
      }
      completed.fetch_add(1);
      return p;
    });
    FAIL() << "expected SweepError";
  } catch (const sim::SweepError& e) {
    ASSERT_EQ(e.failures().size(), 3u);  // points 3, 10, 17
    EXPECT_EQ(e.failures()[0].index, 3u);
    EXPECT_EQ(e.failures()[1].index, 10u);
    EXPECT_EQ(e.failures()[2].index, 17u);
    EXPECT_NE(e.failures()[0].message.find("point 3 diverged"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3 of 20"), std::string::npos);
  }
  // The healthy points all ran to completion despite the failures.
  EXPECT_EQ(completed.load(), 17);
}

TEST(SweepEngine, EmptyPointSetReturnsEmptyResults) {
  sim::SweepEngine engine;
  const std::vector<int> points;
  const auto results =
      engine.run(points, [](int p, const sim::SweepContext&) { return p; });
  EXPECT_TRUE(results.empty());
}

TEST(SweepEngine, ParallelAccumulatorMergeMatchesSinglePass) {
  // The intended worker pattern: per-thread partial Accumulators merged in
  // input order equal the single-pass reduction.
  std::vector<double> samples;
  stats::Rng rng(5);
  for (int i = 0; i < 500; ++i) samples.push_back(rng.normal(1.0, 0.25));
  stats::Accumulator serial;
  for (double s : samples) serial.add(s);

  sim::SweepOptions options;
  options.threads = 4;
  sim::SweepEngine engine(options);
  const std::vector<int> chunks = {0, 1, 2, 3};  // 125 samples each
  const auto partials =
      engine.run(chunks, [&](int c, const sim::SweepContext&) {
        stats::Accumulator acc;
        for (int i = c * 125; i < (c + 1) * 125; ++i) acc.add(samples[i]);
        return acc;
      });
  stats::Accumulator merged;
  for (const auto& partial : partials) merged.merge(partial);
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-13);
  EXPECT_NEAR(merged.stddev(), serial.stddev(), 1e-13);
  EXPECT_DOUBLE_EQ(merged.minimum(), serial.minimum());
  EXPECT_DOUBLE_EQ(merged.maximum(), serial.maximum());
}

// ---------------------------------------------------------------------------
// Resilience layer

/// Unique temp journal path per test, removed on destruction.
class TempJournal {
 public:
  TempJournal()
      : path_(::testing::TempDir() + "sim_sweep_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

sim::SweepCodec<double> doubleCodec() {
  sim::SweepCodec<double> codec;
  codec.encode = [](const double& v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return std::string(buf);
  };
  codec.decode = [](const std::string& s) { return std::strtod(s.c_str(), nullptr); };
  return codec;
}

/// The per-point "simulation": a seed-dependent value, so bit-identity of a
/// resumed run is a real check, not a constant comparison.
double seedValue(int p, const sim::SweepContext& ctx) {
  stats::Rng rng(ctx.seed);
  return rng.uniform(0.0, 1.0) + p;
}

TEST(SweepEngineResilience, KilledRunResumesBitIdentically) {
  TempJournal journal;
  std::vector<int> points(24);
  std::iota(points.begin(), points.end(), 0);

  // Uninterrupted reference run (no journal involved).
  sim::SweepEngine reference;
  const auto expected = reference.run(points, seedValue);

  // "Kill" a journaled run after 6 completed points: a complete journaled
  // run cut back to its header plus the first 6 point records is exactly
  // what a process killed between two appends leaves behind (check.sh
  // covers the real SIGKILL path end-to-end).
  const std::size_t kKillAfter = 6;
  {
    sim::SweepOptions options;
    options.threads = 1;
    options.journal.path = journal.path();
    options.journal.configDigest = 42;
    sim::SweepEngine engine(options);
    engine.run(points, seedValue, doubleCodec());
    std::ifstream in(journal.path());
    std::string kept, line;
    for (std::size_t lines = 0; lines < 1 + kKillAfter; ++lines) {
      ASSERT_TRUE(std::getline(in, line));
      kept += line + "\n";
    }
    in.close();
    std::ofstream(journal.path(), std::ios::trunc) << kept;
  }

  // Resume: the completed prefix must replay from the journal, the rest
  // re-simulates, and the full result vector is bit-identical.
  sim::SweepOptions options;
  options.threads = 2;
  options.journal.path = journal.path();
  options.journal.resume = true;
  options.journal.configDigest = 42;
  sim::SweepEngine engine(options);
  const auto resumed = engine.run(points, seedValue, doubleCodec());
  ASSERT_EQ(resumed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resumed[i], expected[i]) << "point " << i;  // bit-exact
  }
  const auto summary = engine.summary();
  EXPECT_EQ(summary.fromJournal, kKillAfter);
  EXPECT_EQ(summary.ok, points.size() - kKillAfter);
  EXPECT_EQ(summary.completed(), points.size());
}

TEST(SweepEngineResilience, ResumeWithDifferentDigestStartsFresh) {
  TempJournal journal;
  std::vector<int> points(8);
  std::iota(points.begin(), points.end(), 0);
  {
    sim::SweepOptions options;
    options.journal.path = journal.path();
    options.journal.configDigest = 1;
    sim::SweepEngine engine(options);
    engine.run(points, seedValue, doubleCodec());
  }
  sim::SweepOptions options;
  options.journal.path = journal.path();
  options.journal.resume = true;
  options.journal.configDigest = 2;  // the run shape changed
  sim::SweepEngine engine(options);
  engine.run(points, seedValue, doubleCodec());
  EXPECT_EQ(engine.summary().fromJournal, 0u);  // nothing replayed
  EXPECT_EQ(engine.summary().ok, points.size());
}

TEST(SweepEngineResilience, CollectAndContinueReturnsPartialResults) {
  sim::SweepOptions options;
  options.threads = 2;
  options.failurePolicy = sim::SweepFailurePolicy::kCollectAndContinue;
  sim::SweepEngine engine(options);
  std::vector<int> points(12);
  std::iota(points.begin(), points.end(), 0);
  const auto results = engine.run(points, [](int p, const sim::SweepContext&) {
    if (p % 4 == 1) throw SimulationError("point diverged");
    return p * 10;
  });
  ASSERT_EQ(results.size(), points.size());
  const auto& outcomes = engine.outcomes();
  ASSERT_EQ(outcomes.size(), points.size());
  for (int p = 0; p < 12; ++p) {
    if (p % 4 == 1) {
      EXPECT_EQ(outcomes[p].status, sim::SweepPointStatus::kFailed);
      EXPECT_NE(outcomes[p].message.find("diverged"), std::string::npos);
      EXPECT_EQ(results[p], 0);  // default-constructed placeholder
    } else {
      EXPECT_EQ(outcomes[p].status, sim::SweepPointStatus::kOk);
      EXPECT_EQ(results[p], p * 10);
    }
  }
  EXPECT_EQ(engine.summary().ok, 9u);
  EXPECT_EQ(engine.summary().failed, 3u);
}

TEST(SweepEngineResilience, PlainRunRejectsAJournalPath) {
  sim::SweepOptions options;
  options.journal.path = "/tmp/ignored.jsonl";
  sim::SweepEngine engine(options);
  const std::vector<int> points = {1, 2, 3};
  EXPECT_THROW(
      engine.run(points, [](int p, const sim::SweepContext&) { return p; }),
      Error);
}

}  // namespace
}  // namespace fefet

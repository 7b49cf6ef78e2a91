// Flight-recorder audit (obs/flight_recorder.h):
//
//  * record()/dumpNow() round-trips through the binary dump format:
//    events come back merged, time-ordered, with per-thread sequence
//    numbers intact and the preformatted metrics snapshot attached;
//  * ring wrap keeps the newest events and counts the overwrites;
//  * a NumericalError leaves a ring event and a dump through the
//    common/error.h hook;
//  * the crash path: a forked child runs a real FeFET cell write (Newton
//    solves recording per-iteration residuals) as a one-point sweep, then
//    dies on SIGSEGV — the async-signal-safe handler must leave a dump
//    this parent can parse, with the final Newton residual trajectory
//    intact and the metrics snapshot the sweep engine refreshed;
//  * malformed files are rejected with an error, not crashes.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/cell2t.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/sweep_engine.h"

namespace fefet::obs {
namespace {

std::string tmpPath(const char* name) {
  return ::testing::TempDir() + "fefet_" + name + ".bbx";
}

std::size_t countEvents(const BlackboxDump& dump, FlightEvent type) {
  std::size_t n = 0;
  for (const auto& rec : dump.records) {
    if (rec.type == static_cast<std::uint16_t>(type)) ++n;
  }
  return n;
}

TEST(FlightRecorder, DumpAndParseRoundTrip) {
  const std::string path = tmpPath("roundtrip");
  std::remove(path.c_str());
  FlightRecorder::enable(path, 64);
  ASSERT_TRUE(FlightRecorder::enabled());

  FlightRecorder::record(FlightEvent::kSolveStart, 1e-9, 0);
  FlightRecorder::record(FlightEvent::kNewtonResidual, 1e-3, 0);
  FlightRecorder::record(FlightEvent::kNewtonResidual, 1e-6, 1);
  FlightRecorder::record(FlightEvent::kNewtonResidual, 1e-9, 2);
  FlightRecorder::record(FlightEvent::kSolveConverged, 1e-9, 3);
  std::thread worker(
      [] { FlightRecorder::record(FlightEvent::kDtCut, 5e-12, 1); });
  worker.join();

  Metrics::counter("test.flight.roundtrip_counter").add(3);
  ASSERT_TRUE(FlightRecorder::dumpNow("unit-test dump"));
  FlightRecorder::disable();

  BlackboxDump dump;
  std::string error;
  ASSERT_TRUE(readBlackboxDump(path, &dump, &error)) << error;
  EXPECT_EQ(dump.version, 1u);
  EXPECT_EQ(dump.signal, 0);  // explicit dump, no fatal signal
  EXPECT_EQ(dump.reason, "unit-test dump");
  EXPECT_GE(dump.rings, 2);  // main thread + worker
  EXPECT_EQ(dump.tornRecords, 0u);
  EXPECT_EQ(countEvents(dump, FlightEvent::kNewtonResidual), 3u);
  EXPECT_EQ(countEvents(dump, FlightEvent::kSolveConverged), 1u);
  EXPECT_EQ(countEvents(dump, FlightEvent::kDtCut), 1u);

  // Merged order: non-decreasing time; per-thread seq strictly increases.
  for (std::size_t i = 1; i < dump.records.size(); ++i) {
    EXPECT_GE(dump.records[i].timeNs, dump.records[i - 1].timeNs);
    if (dump.records[i].thread == dump.records[i - 1].thread) {
      EXPECT_GT(dump.records[i].seq, dump.records[i - 1].seq);
    }
  }

  // dumpNow() refreshes the metrics buffer first: the snapshot rides in.
  ASSERT_FALSE(dump.metricsJson.empty());
  EXPECT_EQ(dump.metricsJson.front(), '{');
  EXPECT_NE(dump.metricsJson.find("test.flight.roundtrip_counter"),
            std::string::npos);
}

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsDropped) {
  const std::string path = tmpPath("wrap");
  std::remove(path.c_str());
  FlightRecorder::enable(path, 8);
  constexpr int kRecorded = 20;
  for (int i = 0; i < kRecorded; ++i) {
    FlightRecorder::record(FlightEvent::kDtCut, 0.0,
                           static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(FlightRecorder::dumpNow("wrap test"));
  FlightRecorder::disable();

  BlackboxDump dump;
  std::string error;
  ASSERT_TRUE(readBlackboxDump(path, &dump, &error)) << error;
  std::vector<std::uint64_t> payloads;
  for (const auto& rec : dump.records) {
    if (rec.type == static_cast<std::uint16_t>(FlightEvent::kDtCut)) {
      payloads.push_back(rec.b);
    }
  }
  // The ring holds 8 slots: survivors are the newest 8, in order.
  ASSERT_EQ(payloads.size(), 8u);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], static_cast<std::uint64_t>(kRecorded - 8 + i));
  }
  EXPECT_GE(dump.dropped, static_cast<std::uint64_t>(kRecorded - 8));
}

TEST(FlightRecorder, NumericalErrorRecordsAndDumps) {
  const std::string path = tmpPath("numerr");
  std::remove(path.c_str());
  FlightRecorder::enable(path, 64);

  // A numerical failure dumps through the hook, diagnostics riding in the
  // event payload.
  SolverDiagnostics diag;
  diag.finalResidualNorm = 42.5;
  try {
    throw NumericalError("newton diverged", diag);
  } catch (const NumericalError&) {
  }
  FlightRecorder::disable();

  BlackboxDump dump;
  std::string error;
  ASSERT_TRUE(readBlackboxDump(path, &dump, &error)) << error;
  EXPECT_EQ(dump.signal, 0);
  EXPECT_EQ(dump.reason, "NumericalError");
  ASSERT_EQ(countEvents(dump, FlightEvent::kNumericalError), 1u);
  for (const auto& rec : dump.records) {
    if (rec.type == static_cast<std::uint16_t>(FlightEvent::kNumericalError)) {
      EXPECT_DOUBLE_EQ(rec.a, 42.5);
    }
  }
}

TEST(FlightRecorder, MalformedFileIsRejected) {
  const std::string path = tmpPath("malformed");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a black-box dump", f);
  std::fclose(f);
  BlackboxDump dump;
  std::string error;
  EXPECT_FALSE(readBlackboxDump(path, &dump, &error));
  EXPECT_FALSE(error.empty());

  std::string missingError;
  EXPECT_FALSE(readBlackboxDump(tmpPath("never_written"), &dump,
                                &missingError));
  EXPECT_FALSE(missingError.empty());
}

// ---------------------------------------------------------------------------
// The crash path, end to end: fork a child, run a real solve so the
// recorder holds a genuine Newton residual trajectory, die on SIGSEGV,
// and parse what the async-signal-safe handler left behind.

TEST(FlightRecorderCrash, SigsegvMidRunLeavesParseableDump) {
  const std::string path = tmpPath("crash");
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: everything below must end in the fatal signal.
    FlightRecorder::enable(path, 512);
    sim::SweepOptions options;
    options.threads = 1;
    sim::SweepEngine engine(options);
    const std::vector<int> points = {0};
    engine.run(points, [](int, const sim::SweepContext&) {
      core::Cell2TConfig cfg;
      core::Cell2T cell(cfg);
      // Transient: Newton solves inside.
      return cell.write(true, 700e-12).bitAfter;
    });
    std::raise(SIGSEGV);
    ::_exit(97);  // unreachable: the handler re-raises
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // Killed by the re-raised SIGSEGV; under a sanitizer the runtime may
  // instead report and exit non-zero.  Either way, not a clean exit.
  const bool died = WIFSIGNALED(status) ||
                    (WIFEXITED(status) && WEXITSTATUS(status) != 0);
  ASSERT_TRUE(died) << "child exited cleanly, status=" << status;
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  }

  BlackboxDump dump;
  std::string error;
  ASSERT_TRUE(readBlackboxDump(path, &dump, &error)) << error;
  EXPECT_EQ(dump.signal, SIGSEGV);
  EXPECT_GE(dump.rings, 1);

  // The solve left a residual trajectory: solve starts, per-iteration
  // residuals (finite, positive norms with sane iteration indices) and at
  // least one converged solve.
  EXPECT_GE(countEvents(dump, FlightEvent::kSolveStart), 1u);
  EXPECT_GE(countEvents(dump, FlightEvent::kSolveConverged), 1u);
  std::size_t residuals = 0;
  for (const auto& rec : dump.records) {
    if (rec.type !=
        static_cast<std::uint16_t>(FlightEvent::kNewtonResidual))
      continue;
    ++residuals;
    EXPECT_TRUE(std::isfinite(rec.a));
    EXPECT_GE(rec.a, 0.0);
    EXPECT_LT(rec.b, 10000u);  // iteration index, not garbage
  }
  EXPECT_GE(residuals, 1u);

  // The last pre-crash events survived: the final record is no older
  // than every other record (merge order held even through the crash).
  ASSERT_FALSE(dump.records.empty());
  EXPECT_GE(dump.records.back().timeNs, dump.records.front().timeNs);
  // The sweep engine refreshed the metrics snapshot as the point
  // completed: it rode along in the crash dump.
  EXPECT_FALSE(dump.metricsJson.empty());
}

}  // namespace
}  // namespace fefet::obs

// Reproduces paper §3: the FE-thickness design space — hysteresis onset,
// the non-volatility threshold ("T_FE > 1.9 nm is required"), the window
// width at the 2.25 nm design point ("around 500 mV") and the recommended
// thickness for 0.68 V operation.
//
// By default the thickness grid runs on sim::SweepEngine at 1 thread and
// at the full pool; each point is a pure function of its thickness, so the
// two runs must match field-for-field (the PERF line records the speedup).
// With any resilient-execution flag (--journal / --resume /
// --point-delay-ms) the grid runs once, journaled, under
// kCollectAndContinue — killed runs resume bit-identically.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "core/design_space.h"
#include "core/materials.h"
#include "sim/sweep_engine.h"
#include "sim/thread_pool.h"

using namespace fefet;

namespace {

constexpr double kVread = 0.40;

bool samePoint(const core::DesignPoint& a, const core::DesignPoint& b) {
  return a.feThickness == b.feThickness && a.hysteretic == b.hysteretic &&
         a.nonvolatile == b.nonvolatile &&
         a.upSwitchVoltage == b.upSwitchVoltage &&
         a.downSwitchVoltage == b.downSwitchVoltage &&
         a.windowWidth == b.windowWidth && a.onOffRatio == b.onOffRatio &&
         a.standaloneCoerciveVoltage == b.standaloneCoerciveVoltage;
}

// Hexfloat keeps the journal round-trip bit-exact (resume identity).
sim::SweepCodec<core::DesignPoint> makeCodec() {
  sim::SweepCodec<core::DesignPoint> codec;
  codec.encode = [](const core::DesignPoint& p) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%a,%d,%d,%a,%a,%a,%a,%a",
                  p.feThickness, p.hysteretic ? 1 : 0, p.nonvolatile ? 1 : 0,
                  p.upSwitchVoltage, p.downSwitchVoltage, p.windowWidth,
                  p.onOffRatio, p.standaloneCoerciveVoltage);
    return std::string(buf);
  };
  codec.decode = [](const std::string& s) {
    core::DesignPoint p;
    int hyst = 0;
    int nv = 0;
    if (std::sscanf(s.c_str(), "%la,%d,%d,%la,%la,%la,%la,%la",
                    &p.feThickness, &hyst, &nv, &p.upSwitchVoltage,
                    &p.downSwitchVoltage, &p.windowWidth, &p.onOffRatio,
                    &p.standaloneCoerciveVoltage) != 8) {
      throw SimulationError("bench_design_space: bad journal payload");
    }
    p.hysteretic = hyst != 0;
    p.nonvolatile = nv != 0;
    return p;
  };
  return codec;
}

std::uint64_t configDigest(const std::vector<double>& thicknesses) {
  std::uint64_t h = stats::splitmix64(0xDE519A1Eu);
  const auto fold = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = stats::splitmix64(h ^ bits);
  };
  fold(kVread);
  for (double t : thicknesses) fold(t);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parseSweepCli(argc, argv);
  bench::TelemetrySession telemetry("bench_design_space");
  core::FefetParams base;
  base.lk = core::fefetMaterial();
  const int threads =
      cli.threads > 0 ? cli.threads : sim::defaultThreadCount();

  bench::banner("§3: thickness sweep");
  std::vector<double> thicknesses;
  for (double t = 1.0e-9; t <= 2.6e-9; t += 0.1e-9) thicknesses.push_back(t);

  std::vector<core::DesignPoint> points;
  double serialSeconds = 0.0;
  double parallelSeconds = 0.0;
  bool identical = true;
  sim::SweepSummary summary;
  auto codec = makeCodec();
  std::vector<sim::SweepOutcome> outcomes;

  if (cli.resilient()) {
    sim::SweepOptions options;
    options.threads = threads;
    bench::applySweepCli(cli, configDigest(thicknesses), &options);
    sim::SweepEngine engine(options);
    bench::WallTimer timer;
    points = engine.run(
        thicknesses,
        [&](double t, const sim::SweepContext&) {
          cli.padPoint();
          return core::characterizeThickness(base, t, kVread);
        },
        codec);
    serialSeconds = parallelSeconds = timer.seconds();
    summary = engine.summary();
    outcomes = engine.outcomes();
  } else {
    bench::WallTimer serialTimer;
    const auto serialPoints = core::sweepThickness(
        base, thicknesses, kVread, /*threads=*/1);
    serialSeconds = serialTimer.seconds();
    bench::WallTimer parallelTimer;
    points = core::sweepThickness(base, thicknesses, kVread, threads);
    parallelSeconds = parallelTimer.seconds();

    identical = serialPoints.size() == points.size();
    for (std::size_t i = 0; identical && i < points.size(); ++i) {
      identical = samePoint(serialPoints[i], points[i]);
    }
    summary.ok = points.size();
  }

  std::cout << "t_nm,hysteretic,nonvolatile,window_mV,up_V,down_V,"
               "cap_Vc_V,on_off_ratio\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i < outcomes.size() &&
        outcomes[i].status != sim::SweepPointStatus::kOk &&
        outcomes[i].status != sim::SweepPointStatus::kFromJournal) {
      std::printf("%.2f,%s\n", thicknesses[i] * 1e9,
                  sim::toString(outcomes[i].status));
      continue;
    }
    const auto& p = points[i];
    std::printf("%.2f,%d,%d,%.0f,%.3f,%.3f,%.3f,%.3g\n", p.feThickness * 1e9,
                p.hysteretic, p.nonvolatile, p.windowWidth * 1e3,
                p.upSwitchVoltage, p.downSwitchVoltage,
                p.standaloneCoerciveVoltage, p.onOffRatio);
  }

  const double tNv = core::minimumNonvolatileThickness(base, 1.0e-9, 2.5e-9);
  const double tRec = core::recommendThickness(base, 0.68, 0.1);
  core::FefetParams design = base;
  design.feThickness = 2.25e-9;
  const auto window = core::analyzeHysteresis(design);

  bench::Comparison cmp;
  cmp.add("non-volatility onset (paper: >1.9 nm)", 1.9, tNv * 1e9, "nm");
  cmp.add("window width at 2.25 nm (paper: ~500 mV)", 500.0,
          window.width() * 1e3, "mV");
  cmp.add("recommended thickness for 0.68 V writes", 2.25, tRec * 1e9, "nm");
  cmp.add("on/off ratio at the design point", 1e6,
          core::distinguishability(design, 0.4), "x");
  cmp.print();

  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto st = i < outcomes.size() ? outcomes[i].status
                                        : sim::SweepPointStatus::kOk;
    const bool hasResult = st == sim::SweepPointStatus::kOk ||
                           st == sim::SweepPointStatus::kFromJournal;
    payloads.push_back(hasResult ? codec.encode(points[i])
                                 : std::string("!") + sim::toString(st));
  }

  bench::banner("sweep-engine wall clock");
  bench::printSweepPerf("bench_design_space", threads, serialSeconds,
                        parallelSeconds, identical, summary,
                        bench::resultsCrc32(payloads));

  telemetry.report().addCount("threads", static_cast<std::uint64_t>(threads));
  telemetry.report().addBool("identical", identical);
  telemetry.addSummary(summary);
  telemetry.finish();
  return identical ? 0 : 1;
}

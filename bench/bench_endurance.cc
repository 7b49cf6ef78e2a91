// Endurance study (extension of the paper's §1 motivation): fatigue
// curves for the material database, and — the architectural point — how
// FERAM's destructive reads double-bill its endurance budget while the
// FEFET's non-destructive reads leave it untouched.
//
// The per-material fatigue characterization (retained-P_r curve +
// cycles-to-failure) runs as a sim::SweepEngine sweep over the material
// database, so it takes the shared resilient-execution flags (--journal /
// --resume / --point-delay-ms); the FEFET-vs-FERAM architectural sections
// stay serial.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/plot.h"
#include "common/stats.h"
#include "core/nvm_macro.h"
#include "ferro/material_db.h"
#include "sim/sweep_engine.h"
#include "sim/thread_pool.h"

using namespace fefet;

namespace {

constexpr double kLgMin = 3.0;
constexpr double kLgMax = 16.0;
constexpr double kLgStep = 0.25;

/// One material's fatigue characterization: the sweep-point result.
struct MaterialCurve {
  std::string name;
  double enduranceCycles = 0.0;        ///< cycles to 50% window loss
  std::vector<double> retained;        ///< P_r(N)/P_r(0) on the lg grid
};

MaterialCurve characterize(const ferro::Material& m) {
  MaterialCurve out;
  out.name = m.name;
  const ferro::FatigueModel model(m.fatigue);
  out.enduranceCycles = model.enduranceCycles();
  for (double lg = kLgMin; lg <= kLgMax; lg += kLgStep) {
    out.retained.push_back(model.retainedFraction(std::pow(10.0, lg)));
  }
  return out;
}

// name|endurance,r0,r1,... — hexfloat for bit-exact journal round-trips.
sim::SweepCodec<MaterialCurve> makeCodec() {
  sim::SweepCodec<MaterialCurve> codec;
  codec.encode = [](const MaterialCurve& c) {
    std::ostringstream os;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", c.enduranceCycles);
    os << c.name << '|' << buf;
    for (double r : c.retained) {
      std::snprintf(buf, sizeof(buf), "%a", r);
      os << ',' << buf;
    }
    return os.str();
  };
  codec.decode = [](const std::string& s) {
    const auto bar = s.find('|');
    if (bar == std::string::npos) {
      throw SimulationError("bench_endurance: bad journal payload");
    }
    MaterialCurve c;
    c.name = s.substr(0, bar);
    const char* p = s.c_str() + bar + 1;
    char* end = nullptr;
    c.enduranceCycles = std::strtod(p, &end);
    if (end == p) {
      throw SimulationError("bench_endurance: bad journal payload");
    }
    p = end;
    while (*p == ',') {
      ++p;
      const double r = std::strtod(p, &end);
      if (end == p) {
        throw SimulationError("bench_endurance: bad journal payload");
      }
      c.retained.push_back(r);
      p = end;
    }
    return c;
  };
  return codec;
}

std::uint64_t configDigest(const std::vector<ferro::Material>& db) {
  std::uint64_t h = stats::splitmix64(0xFA7160E5u);
  for (const auto& m : db) {
    for (char ch : m.name) {
      h = stats::splitmix64(h ^ static_cast<std::uint64_t>(
                                    static_cast<unsigned char>(ch)));
    }
    h = stats::splitmix64(h ^ 0x7Cu);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parseSweepCli(argc, argv);
  bench::TelemetrySession telemetry("bench_endurance");
  const auto db = ferro::materialDatabase();
  const int threads =
      cli.threads > 0 ? cli.threads : sim::defaultThreadCount();
  auto codec = makeCodec();

  // Fatigue characterization as a sweep over the material database.
  sim::SweepOptions options;
  options.threads = threads;
  if (cli.resilient()) {
    bench::applySweepCli(cli, configDigest(db), &options);
  }
  sim::SweepEngine engine(options);
  bench::WallTimer timer;
  const auto curves = engine.run(
      db,
      [&](const ferro::Material& m, const sim::SweepContext&) {
        return characterize(m);
      },
      codec);
  const double seconds = timer.seconds();
  const auto outcomes = engine.outcomes();
  const auto hasResult = [&](std::size_t i) {
    return outcomes[i].status == sim::SweepPointStatus::kOk ||
           outcomes[i].status == sim::SweepPointStatus::kFromJournal;
  };

  bench::banner("polarization fatigue curves");
  std::vector<plot::Series> series;
  for (const char* name : {"pzt", "sbt", "hzo"}) {
    for (std::size_t i = 0; i < curves.size(); ++i) {
      if (!hasResult(i) || curves[i].name != name) continue;
      plot::Series s;
      s.label = name;
      double lg = kLgMin;
      for (double r : curves[i].retained) {
        s.x.push_back(lg);
        s.y.push_back(r);
        lg += kLgStep;
      }
      series.push_back(s);
    }
  }
  plot::ChartOptions chart;
  chart.title = "retained P_r fraction vs log10(cycles)";
  chart.xLabel = "log10(program/erase cycles)";
  chart.yLabel = "P_r(N) / P_r(0)";
  plot::renderChart(std::cout, series, chart);

  bench::banner("architectural endurance: destructive vs non-destructive reads");
  // A checkpoint workload: each power cycle writes the state once and
  // reads it back once.  FERAM's read is destructive, so every power
  // cycle costs it TWO polarization reversals; the FEFET pays one.
  core::NvmMacro fefet(core::MacroTechnology::kFefet);
  core::NvmMacro feram(core::MacroTechnology::kFeram);
  constexpr int kPowerCycles = 100000;
  for (int i = 0; i < kPowerCycles; ++i) {
    fefet.writeWord(0, static_cast<std::uint32_t>(i));
    fefet.readWord(0);
    feram.writeWord(0, static_cast<std::uint32_t>(i));
    feram.readWord(0);
  }
  std::printf("after %d checkpoint cycles on one hot word:\n", kPowerCycles);
  std::printf("  FEFET: %.0f polarization cycles, endurance margin %.4f\n",
              fefet.worstCaseCycles(), fefet.enduranceMarginRemaining());
  std::printf("  FERAM: %.0f polarization cycles, endurance margin %.4f\n",
              feram.worstCaseCycles(), feram.enduranceMarginRemaining());

  bench::banner("cycles to failure at a 50% window requirement");
  std::cout << "material,endurance_cycles\n";
  for (std::size_t i = 0; i < curves.size(); ++i) {
    if (!hasResult(i)) {
      std::printf("%s,%s\n", db[i].name.c_str(),
                  sim::toString(outcomes[i].status));
      continue;
    }
    std::printf("%s,%.3g\n", curves[i].name.c_str(),
                curves[i].enduranceCycles);
  }

  bench::banner("wear-out lifetime under the NVP checkpoint rate");
  // From the Fig. 13 operating point: ~1.3k power cycles per second of
  // wall time (bench_fig13 backup counts).  Each cycle writes the backup
  // region once; FERAM's restore read doubles its aging.
  const double cyclesPerSecond = 1300.0;
  const double secondsPerYear = 365.25 * 24 * 3600.0;
  const ferro::FatigueModel fefetFatigue(
      ferro::findMaterial("dac16-table2").fatigue);
  const ferro::FatigueModel feramFatigue(ferro::sbtFatigue());
  const double fefetYears = fefetFatigue.enduranceCycles() /
                            (cyclesPerSecond * secondsPerYear);
  const double feramYears = feramFatigue.enduranceCycles() /
                            (2.0 * cyclesPerSecond * secondsPerYear);
  std::printf("FEFET backup region: %.3g years to 50%% window loss\n",
              fefetYears);
  std::printf("FERAM backup region: %.3g years (reads count double)\n",
              feramYears);

  bench::Comparison cmp;
  cmp.add("FERAM aging rate vs FEFET (same workload)", 2.0,
          feram.worstCaseCycles() / fefet.worstCaseCycles(), "x");
  cmp.addText("FE-class endurance >= 1e12 (paper §1 motivation)", "yes",
              ferro::FatigueModel(ferro::sbtFatigue()).enduranceCycles() >=
                      1e12
                  ? "yes"
                  : "no",
              "");
  cmp.print();

  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < curves.size(); ++i) {
    payloads.push_back(hasResult(i)
                           ? codec.encode(curves[i])
                           : std::string("!") +
                                 sim::toString(outcomes[i].status));
  }
  bench::banner("sweep-engine wall clock");
  bench::printSweepPerf("bench_endurance", threads, seconds, seconds,
                       /*identical=*/true, engine.summary(),
                       bench::resultsCrc32(payloads));
  telemetry.report().addCount("threads", static_cast<std::uint64_t>(threads));
  telemetry.addSummary(engine.summary());
  telemetry.finish();
  return 0;
}

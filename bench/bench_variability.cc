// Process-variation study: how the paper's nominal claims (window spanning
// 0 V, ~1e6 distinguishability, 0.68 V writes) survive local mismatch and
// global corners — and why the 2.25 nm design point (not the 2.05 nm
// minimum) is the right stability/voltage balance (paper §3).
//
// By default the Monte Carlo and write-yield point sets run once at 1
// thread and once at the full pool, to demonstrate the deterministic
// parallel speedup (the PERF line at the end is machine-readable).  With
// any resilient-execution flag (--journal, --resume, --point-delay-ms; see
// bench_util.h) the two point sets run once each on journaled
// sim::SweepEngines (journals PATH.mc and PATH.yield) under
// kCollectAndContinue; a run killed mid-sweep and restarted with --resume
// replays the journaled points and reproduces the PERF record.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "core/materials.h"
#include "core/variability.h"
#include "sim/sweep_engine.h"
#include "sim/thread_pool.h"

using namespace fefet;

namespace {

bool sameMonteCarlo(const core::DeviceMonteCarlo& a,
                    const core::DeviceMonteCarlo& b) {
  return a.samples == b.samples && a.nonvolatileCount == b.nonvolatileCount &&
         a.writableCount == b.writableCount &&
         a.windowWidthMean == b.windowWidthMean &&
         a.windowWidthSigma == b.windowWidthSigma &&
         a.upSwitchMin == b.upSwitchMin &&
         a.downSwitchMax == b.downSwitchMax &&
         a.log10RatioMean == b.log10RatioMean &&
         a.log10RatioMin == b.log10RatioMin;
}

sim::SweepCodec<core::DeviceMonteCarlo> makeMcCodec() {
  sim::SweepCodec<core::DeviceMonteCarlo> codec;
  codec.encode = [](const core::DeviceMonteCarlo& m) {
    char buf[320];
    std::snprintf(buf, sizeof(buf), "%d,%d,%d,%a,%a,%a,%a,%a,%a", m.samples,
                  m.nonvolatileCount, m.writableCount, m.windowWidthMean,
                  m.windowWidthSigma, m.upSwitchMin, m.downSwitchMax,
                  m.log10RatioMean, m.log10RatioMin);
    return std::string(buf);
  };
  codec.decode = [](const std::string& s) {
    core::DeviceMonteCarlo m;
    if (std::sscanf(s.c_str(), "%d,%d,%d,%la,%la,%la,%la,%la,%la", &m.samples,
                    &m.nonvolatileCount, &m.writableCount, &m.windowWidthMean,
                    &m.windowWidthSigma, &m.upSwitchMin, &m.downSwitchMax,
                    &m.log10RatioMean, &m.log10RatioMin) != 9) {
      throw SimulationError("bench_variability: bad MC journal payload");
    }
    return m;
  };
  return codec;
}

sim::SweepCodec<core::WriteYield> makeYieldCodec() {
  sim::SweepCodec<core::WriteYield> codec;
  codec.encode = [](const core::WriteYield& y) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d,%d", y.samples, y.passes);
    return std::string(buf);
  };
  codec.decode = [](const std::string& s) {
    core::WriteYield y;
    if (std::sscanf(s.c_str(), "%d,%d", &y.samples, &y.passes) != 2) {
      throw SimulationError("bench_variability: bad yield journal payload");
    }
    return y;
  };
  return codec;
}

std::uint64_t foldDouble(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return stats::splitmix64(h ^ bits);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parseSweepCli(argc, argv);
  bench::TelemetrySession telemetry("bench_variability");
  core::FefetParams nominal;
  nominal.lk = core::fefetMaterial();
  const core::VariationSpec spec;  // 20 mV VT, 2% T_FE, 3% W, 3% alpha
  const int threads =
      cli.threads > 0 ? cli.threads : sim::defaultThreadCount();

  const std::vector<double> thicknesses = {2.05e-9, 2.15e-9, 2.25e-9,
                                           2.35e-9, 2.50e-9};
  const std::vector<std::pair<double, double>> yieldPoints = {
      {0.68, 800e-12}, {0.68, 550e-12}, {0.60, 800e-12}, {0.55, 800e-12}};

  struct Results {
    std::vector<core::DeviceMonteCarlo> mc;
    std::vector<core::WriteYield> yield;
  };
  Results results;
  double serialSeconds = 0.0;
  double parallelSeconds = 0.0;
  bool identical = true;
  sim::SweepSummary summary;
  auto mcCodec = makeMcCodec();
  auto yieldCodec = makeYieldCodec();
  std::vector<sim::SweepOutcome> mcOutcomes;
  std::vector<sim::SweepOutcome> yieldOutcomes;

  if (cli.resilient()) {
    // Two journaled engines (the point types differ); journals land at
    // PATH.mc / PATH.yield.
    std::uint64_t mcDigest = stats::splitmix64(0x5EED0CA1u);
    for (double t : thicknesses) mcDigest = foldDouble(mcDigest, t);
    std::uint64_t yieldDigest = stats::splitmix64(0x5EED0CA2u);
    for (const auto& [v, pulse] : yieldPoints) {
      yieldDigest = foldDouble(foldDouble(yieldDigest, v), pulse);
    }

    sim::SweepOptions base;
    base.threads = threads;
    bench::applySweepCli(cli, /*configDigest=*/0, &base);

    bench::WallTimer timer;
    {
      sim::SweepOptions options = base;
      options.journal.configDigest = mcDigest;
      if (!cli.journalPath.empty()) {
        options.journal.path = cli.journalPath + ".mc";
      }
      sim::SweepEngine engine(options);
      results.mc = engine.run(
          thicknesses,
          [&](double t, const sim::SweepContext&) {
            cli.padPoint();
            core::FefetParams p = nominal;
            p.feThickness = t;
            return core::runDeviceMonteCarloParallel(p, spec, 1000,
                                                     /*threads=*/1);
          },
          mcCodec);
      summary = engine.summary();
      mcOutcomes = engine.outcomes();
    }
    {
      sim::SweepOptions options = base;
      options.journal.configDigest = yieldDigest;
      if (!cli.journalPath.empty()) {
        options.journal.path = cli.journalPath + ".yield";
      }
      sim::SweepEngine engine(options);
      core::Cell2TConfig cfg;
      cfg.fefet = nominal;
      results.yield = engine.run(
          yieldPoints,
          [&](const std::pair<double, double>& pt, const sim::SweepContext&) {
            cli.padPoint();
            return core::runWriteYieldParallel(cfg, spec, 20, pt.first,
                                               pt.second, /*threads=*/1);
          },
          yieldCodec);
      const auto s2 = engine.summary();
      summary.ok += s2.ok;
      summary.failed += s2.failed;
      summary.fromJournal += s2.fromJournal;
      yieldOutcomes = engine.outcomes();
    }
    serialSeconds = parallelSeconds = timer.seconds();
  } else {
    // Run the full workload (device MC per thickness + transient write
    // yield) at a given thread count; the sweep seeding is thread-count-
    // invariant, so both runs must produce identical results.
    auto runAll = [&](int nThreads) {
      Results r;
      for (double t : thicknesses) {
        core::FefetParams p = nominal;
        p.feThickness = t;
        r.mc.push_back(
            core::runDeviceMonteCarloParallel(p, spec, 1000, nThreads));
      }
      core::Cell2TConfig cfg;
      cfg.fefet = nominal;
      for (const auto& [v, pulse] : yieldPoints) {
        r.yield.push_back(
            core::runWriteYieldParallel(cfg, spec, 20, v, pulse, nThreads));
      }
      return r;
    };

    bench::WallTimer serialTimer;
    const Results serial = runAll(1);
    serialSeconds = serialTimer.seconds();
    bench::WallTimer parallelTimer;
    results = runAll(threads);
    parallelSeconds = parallelTimer.seconds();

    identical = serial.mc.size() == results.mc.size() &&
                serial.yield.size() == results.yield.size();
    for (std::size_t i = 0; identical && i < serial.mc.size(); ++i) {
      identical = sameMonteCarlo(serial.mc[i], results.mc[i]);
    }
    for (std::size_t i = 0; identical && i < serial.yield.size(); ++i) {
      identical = serial.yield[i].samples == results.yield[i].samples &&
                  serial.yield[i].passes == results.yield[i].passes;
    }
    summary.ok = results.mc.size() + results.yield.size();
  }

  const auto hasResult = [](const std::vector<sim::SweepOutcome>& outcomes,
                            std::size_t i) {
    if (i >= outcomes.size()) return true;  // legacy path: all ran
    return outcomes[i].status == sim::SweepPointStatus::kOk ||
           outcomes[i].status == sim::SweepPointStatus::kFromJournal;
  };

  bench::banner("Monte Carlo (1000 devices) across design thicknesses");
  std::cout << "t_nm,nonvolatile_%,writable_at_0.68V_%,window_mean_mV,"
               "window_sigma_mV,log10_ratio_min\n";
  for (std::size_t i = 0; i < thicknesses.size(); ++i) {
    if (!hasResult(mcOutcomes, i)) {
      std::printf("%.2f,%s\n", thicknesses[i] * 1e9,
                  sim::toString(mcOutcomes[i].status));
      continue;
    }
    const auto& mc = results.mc[i];
    std::printf("%.2f,%.1f,%.1f,%.0f,%.0f,%.2f\n", thicknesses[i] * 1e9,
                100.0 * mc.nonvolatileCount / mc.samples,
                100.0 * mc.writableCount / mc.samples,
                mc.windowWidthMean * 1e3, mc.windowWidthSigma * 1e3,
                mc.log10RatioMin);
  }

  bench::banner("process corners at the 2.25 nm design point");
  std::cout << "corner,window_V,up_V,down_V,on_off\n";
  const char* names[] = {"TT", "FF", "SS"};
  const auto corners = core::runCorners(nominal);
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const auto& c = corners[i];
    std::printf("%s,%.3f,%.3f,%.3f,%.3g\n", names[i],
                c.upSwitchVoltage - c.downSwitchVoltage, c.upSwitchVoltage,
                c.downSwitchVoltage, c.onOffRatio);
  }

  bench::banner("transient write yield (20 sampled cells)");
  std::cout << "vwrite_V,pulse_ps,yield_%\n";
  for (std::size_t i = 0; i < yieldPoints.size(); ++i) {
    if (!hasResult(yieldOutcomes, i)) {
      std::printf("%.2f,%.0f,%s\n", yieldPoints[i].first,
                  yieldPoints[i].second * 1e12,
                  sim::toString(yieldOutcomes[i].status));
      continue;
    }
    std::printf("%.2f,%.0f,%.0f\n", yieldPoints[i].first,
                yieldPoints[i].second * 1e12,
                results.yield[i].yield() * 100.0);
  }

  const auto mcNominal =
      core::runDeviceMonteCarloParallel(nominal, spec, 1000, threads);
  bench::Comparison cmp;
  cmp.add("nonvolatile fraction at the design point", 100.0,
          100.0 * mcNominal.nonvolatileCount / mcNominal.samples, "%");
  cmp.add("worst-sample distinguishability (log10)", 6.0,
          mcNominal.log10RatioMin, "decades");
  cmp.add("worst-case up-fold (stability floor)", 0.0, mcNominal.upSwitchMin,
          "V (> 0 means hold-safe)");
  cmp.print();

  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < results.mc.size(); ++i) {
    payloads.push_back(hasResult(mcOutcomes, i)
                           ? mcCodec.encode(results.mc[i])
                           : std::string("!") +
                                 sim::toString(mcOutcomes[i].status));
  }
  for (std::size_t i = 0; i < results.yield.size(); ++i) {
    payloads.push_back(hasResult(yieldOutcomes, i)
                           ? yieldCodec.encode(results.yield[i])
                           : std::string("!") +
                                 sim::toString(yieldOutcomes[i].status));
  }

  bench::banner("sweep-engine wall clock");
  bench::printSweepPerf("bench_variability", threads, serialSeconds,
                        parallelSeconds, identical, summary,
                        bench::resultsCrc32(payloads));

  telemetry.report().addCount("threads", static_cast<std::uint64_t>(threads));
  telemetry.report().addNumber("serial_s", serialSeconds);
  telemetry.report().addNumber("parallel_s", parallelSeconds);
  telemetry.report().addBool("identical", identical);
  telemetry.addSummary(summary);
  telemetry.finish();
  return identical ? 0 : 1;
}

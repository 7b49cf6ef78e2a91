#include "core/variability.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "sim/sweep_engine.h"

namespace fefet::core {

FefetParams perturbDevice(const FefetParams& nominal,
                          const VariationSpec& spec, stats::Rng& rng) {
  FefetParams p = nominal;
  p.mos.vt0 = nominal.mos.vt0 + rng.normal(0.0, spec.vtSigma);
  p.feThickness =
      nominal.feThickness *
      (1.0 + rng.normal(0.0, spec.feThicknessSigmaRel));
  p.width = nominal.width * (1.0 + rng.normal(0.0, spec.widthSigmaRel));
  p.lk.alpha = nominal.lk.alpha * (1.0 + rng.normal(0.0, spec.alphaSigmaRel));
  return p;
}

DeviceMonteCarlo runDeviceMonteCarlo(const FefetParams& nominal,
                                     const VariationSpec& spec, int samples,
                                     double vWrite, double vRead) {
  FEFET_REQUIRE(samples >= 2, "monte carlo needs at least 2 samples");
  stats::Rng rng(spec.seed);
  DeviceMonteCarlo mc;
  mc.samples = samples;
  std::vector<double> widths, ratios;
  mc.upSwitchMin = 1e9;
  mc.downSwitchMax = -1e9;
  for (int i = 0; i < samples; ++i) {
    const QuasiStaticCurve curve(perturbDevice(nominal, spec, rng));
    const HysteresisWindow& window = curve.window();
    if (!window.nonvolatile) continue;
    ++mc.nonvolatileCount;
    widths.push_back(window.width());
    mc.upSwitchMin = std::min(mc.upSwitchMin, window.upSwitchVoltage);
    mc.downSwitchMax = std::max(mc.downSwitchMax, window.downSwitchVoltage);
    const bool writable = (vWrite > window.upSwitchVoltage) &&
                          (-vWrite < window.downSwitchVoltage);
    if (writable) ++mc.writableCount;
    ratios.push_back(std::log10(curve.distinguishability(vRead)));
  }
  if (!widths.empty()) {
    mc.windowWidthMean = stats::mean(widths);
    if (widths.size() >= 2) mc.windowWidthSigma = stats::stddev(widths);
    mc.log10RatioMean = stats::mean(ratios);
    mc.log10RatioMin = stats::minOf(ratios);
  }
  return mc;
}

DeviceMonteCarlo mergeMonteCarlo(std::span<const DeviceMonteCarlo> parts) {
  DeviceMonteCarlo out;
  out.upSwitchMin = 1e9;
  out.downSwitchMax = -1e9;
  stats::Accumulator widths;
  stats::Accumulator ratios;
  for (const auto& part : parts) {
    out.samples += part.samples;
    out.nonvolatileCount += part.nonvolatileCount;
    out.writableCount += part.writableCount;
    out.upSwitchMin = std::min(out.upSwitchMin, part.upSwitchMin);
    out.downSwitchMax = std::max(out.downSwitchMax, part.downSwitchMax);
    if (part.nonvolatileCount == 0) continue;
    const double n = static_cast<double>(part.nonvolatileCount);
    // m2 = sigma^2 * (n - 1); exact inverse of the summary's sigma, and 0
    // for single-sample parts where the summary left sigma at 0.
    const double widthM2 =
        part.windowWidthSigma * part.windowWidthSigma * (n - 1.0);
    // Width min/max are not tracked in the summary; feed the mean (any
    // in-range value works — the merged min/max are never read here).
    widths.merge(stats::Accumulator::fromMoments(
        part.nonvolatileCount, part.windowWidthMean, widthM2,
        part.windowWidthMean, part.windowWidthMean));
    ratios.merge(stats::Accumulator::fromMoments(
        part.nonvolatileCount, part.log10RatioMean, 0.0, part.log10RatioMin,
        part.log10RatioMean));
  }
  if (widths.count() > 0) {
    out.windowWidthMean = widths.mean();
    if (widths.count() >= 2) out.windowWidthSigma = widths.stddev();
    out.log10RatioMean = ratios.mean();
    out.log10RatioMin = ratios.minimum();
  }
  return out;
}

DeviceMonteCarlo runDeviceMonteCarloParallel(const FefetParams& nominal,
                                             const VariationSpec& spec,
                                             int samples, int threads,
                                             double vWrite, double vRead,
                                             int chunkSamples) {
  FEFET_REQUIRE(samples >= 2, "monte carlo needs at least 2 samples");
  FEFET_REQUIRE(chunkSamples >= 2, "monte carlo chunks need >= 2 samples");
  // Fixed chunking, independent of thread count: chunk sizes (and therefore
  // every chunk's RNG stream) depend only on (samples, chunkSamples).
  std::vector<int> chunkSizes;
  int remaining = samples;
  while (remaining > 0) {
    int take = std::min(chunkSamples, remaining);
    // runDeviceMonteCarlo rejects single-sample runs; absorb a would-be
    // trailing 1-sample chunk into this one.
    if (remaining - take == 1) ++take;
    chunkSizes.push_back(take);
    remaining -= take;
  }
  sim::SweepOptions options;
  options.threads = threads;
  options.baseSeed = spec.seed;
  sim::SweepEngine engine(options);
  const auto parts = engine.run(
      chunkSizes, [&](int count, const sim::SweepContext& ctx) {
        VariationSpec chunkSpec = spec;
        chunkSpec.seed = ctx.seed;
        return runDeviceMonteCarlo(nominal, chunkSpec, count, vWrite, vRead);
      });
  return mergeMonteCarlo(parts);
}

WriteYield runWriteYield(const Cell2TConfig& nominal,
                         const VariationSpec& spec, int samples,
                         double vWrite, double pulseWidth) {
  FEFET_REQUIRE(samples >= 1, "write yield needs at least one sample");
  stats::Rng rng(spec.seed);
  WriteYield result;
  result.samples = samples;
  for (int i = 0; i < samples; ++i) {
    Cell2TConfig cfg = nominal;
    cfg.fefet = perturbDevice(nominal.fefet, spec, rng);
    // The access transistor varies independently.
    cfg.accessMos.vt0 = nominal.accessMos.vt0 + rng.normal(0.0, spec.vtSigma);
    try {
      Cell2T cell(cfg);
      cell.setStoredBit(false);
      const bool one = cell.write(true, pulseWidth, vWrite).bitAfter;
      const bool zero = !cell.write(false, pulseWidth, vWrite).bitAfter;
      if (one && zero) ++result.passes;
    } catch (const Error&) {
      // Device fell out of the nonvolatile regime: a yield loss.
    }
  }
  return result;
}

WriteYield runWriteYieldParallel(const Cell2TConfig& nominal,
                                 const VariationSpec& spec, int samples,
                                 double vWrite, double pulseWidth,
                                 int threads) {
  FEFET_REQUIRE(samples >= 1, "write yield needs at least one sample");
  std::vector<int> points(static_cast<std::size_t>(samples), 1);
  sim::SweepOptions options;
  options.threads = threads;
  options.baseSeed = spec.seed;
  sim::SweepEngine engine(options);
  const auto parts = engine.run(
      points, [&](int count, const sim::SweepContext& ctx) {
        VariationSpec sampleSpec = spec;
        sampleSpec.seed = ctx.seed;
        return runWriteYield(nominal, sampleSpec, count, vWrite, pulseWidth);
      });
  WriteYield result;
  for (const auto& part : parts) {
    result.samples += part.samples;
    result.passes += part.passes;
  }
  return result;
}

std::vector<CornerResult> runCorners(const FefetParams& nominal,
                                     double vRead) {
  std::vector<CornerResult> out;
  for (Corner corner : {Corner::kTypical, Corner::kFast, Corner::kSlow}) {
    FefetParams p = nominal;
    switch (corner) {
      case Corner::kTypical:
        break;
      case Corner::kFast:
        p.mos.vt0 = nominal.mos.vt0 - 0.03;
        p.mos.mobility = nominal.mos.mobility * 1.10;
        p.feThickness = nominal.feThickness * 0.98;
        break;
      case Corner::kSlow:
        p.mos.vt0 = nominal.mos.vt0 + 0.03;
        p.mos.mobility = nominal.mos.mobility * 0.90;
        p.feThickness = nominal.feThickness * 1.02;
        break;
    }
    CornerResult r;
    r.corner = corner;
    const QuasiStaticCurve curve(p);
    const HysteresisWindow& window = curve.window();
    r.nonvolatile = window.nonvolatile;
    r.upSwitchVoltage = window.upSwitchVoltage;
    r.downSwitchVoltage = window.downSwitchVoltage;
    if (window.nonvolatile) r.onOffRatio = curve.distinguishability(vRead);
    out.push_back(r);
  }
  return out;
}

}  // namespace fefet::core

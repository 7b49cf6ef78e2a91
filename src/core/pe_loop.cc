#include "core/pe_loop.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/error.h"
#include "spice/fecap_device.h"
#include "spice/netlist.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

namespace {

/// x at the first crossing of y through 0 in the given direction (linear
/// interpolation between samples); 0 when y never crosses.
double zeroCrossing(std::span<const double> x, std::span<const double> y,
                    bool rising) {
  for (std::size_t i = 1; i < y.size(); ++i) {
    const bool crossed = rising ? (y[i - 1] < 0.0 && y[i] >= 0.0)
                                : (y[i - 1] > 0.0 && y[i] <= 0.0);
    if (crossed) {
      const double f = y[i - 1] / (y[i - 1] - y[i]);
      return x[i - 1] + f * (x[i] - x[i - 1]);
    }
  }
  return 0.0;
}

}  // namespace

double PeLoop::area() const {
  // Shoelace integral of P dV around the closed loop.
  double acc = 0.0;
  const std::size_t n = voltage.size();
  for (std::size_t i = 1; i < n; ++i) {
    acc += 0.5 * (polarization[i] + polarization[i - 1]) *
           (voltage[i] - voltage[i - 1]);
  }
  return std::abs(acc);
}

PeLoop tracePeLoop(const ferro::LkCoefficients& coefficients,
                   const ferro::FeGeometry& geometry,
                   const PeLoopOptions& options) {
  FEFET_REQUIRE(options.amplitude > 0.0, "PE loop amplitude must be positive");
  FEFET_REQUIRE(options.samplesPerPeriod >= 16, "too few samples per period");
  FEFET_REQUIRE(options.settleCycles >= 0, "settle cycles must be >= 0");

  // Triangle drive, period T, amplitude A, starting at 0 and rising:
  // 0 -> +A (T/4) -> -A (3T/4) -> 0 (T), once per cycle.
  const double period = options.period;
  const int cycles = options.settleCycles + 1;
  std::vector<std::pair<double, double>> corners{{0.0, 0.0}};
  for (int c = 0; c < cycles; ++c) {
    const double t0 = c * period;
    corners.emplace_back(t0 + 0.25 * period, options.amplitude);
    corners.emplace_back(t0 + 0.75 * period, -options.amplitude);
    corners.emplace_back(t0 + period, 0.0);
  }
  const spice::Shape drive = spice::shapes::pwl(std::move(corners));

  spice::Netlist netlist;
  const spice::NodeId a = netlist.node("a");
  netlist.add<spice::VoltageSource>("V", a, netlist.ground(), drive);
  netlist.add<spice::FeCapDevice>("fe", a, netlist.ground(), coefficients,
                                  geometry, /*initialPolarization=*/0.0);
  spice::Simulator sim(netlist);
  sim.initializeUic();
  spice::TransientOptions transient;
  transient.duration = cycles * period;
  transient.dtMax = period / options.samplesPerPeriod;
  const auto run =
      sim.runTransient(transient, {spice::Probe::deviceState("fe", "P")});
  const auto& waveform = run.waveform;
  const auto time = waveform.time();
  const auto p = waveform.column("P(fe)");

  // Record the last period, from the last sample at or before its start.
  const double start = options.settleCycles * period;
  const auto indexAfter = [&time](double t) {
    return static_cast<std::size_t>(
        std::upper_bound(time.begin(), time.end(), t) - time.begin());
  };
  const std::size_t first = indexAfter(start) - 1;
  PeLoop loop;
  for (std::size_t i = first; i < time.size(); ++i) {
    const double v = drive(time[i]);
    loop.voltage.push_back(v);
    loop.field.push_back(v / geometry.thickness);
    loop.polarization.push_back(p[i]);
  }

  // Coercive voltages: V where P crosses 0 within a phase window [from,
  // to] of the recorded period, from the samples that bracket it.
  const auto coercive = [&](double from, double to, bool rising) {
    const std::size_t lo = indexAfter(start + from * period) - 1 - first;
    const std::size_t hi =
        std::min(indexAfter(start + to * period), time.size() - 1) - first;
    const std::size_t n = hi - lo + 1;
    return zeroCrossing(std::span<const double>(loop.voltage).subspan(lo, n),
                        std::span<const double>(loop.polarization)
                            .subspan(lo, n),
                        rising);
  };
  // Down branch, +A at T/4 to -A at 3T/4.  Up branch, -A at 3T/4 back to
  // 0 at T; if P has not crossed 0 by then, it crosses on the rising
  // quarter that opens the period (the loop is periodic).
  loop.coerciveVoltageDown = coercive(0.25, 0.75, /*rising=*/false);
  loop.coerciveVoltageUp = coercive(0.75, 1.0, /*rising=*/true);
  if (loop.coerciveVoltageUp == 0.0) {
    loop.coerciveVoltageUp = coercive(0.0, 0.25, /*rising=*/true);
  }
  // Remnants: P where the drive crosses 0, falling at T/2, rising at T.
  loop.remnantDown = waveform.valueAt("P(fe)", start + 0.5 * period);
  loop.remnantUp = waveform.valueAt("P(fe)", start + period);
  return loop;
}

}  // namespace fefet::core

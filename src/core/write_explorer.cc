#include "core/write_explorer.h"

#include "common/error.h"
#include "core/write_pulse.h"

namespace fefet::core {

namespace {

/// Measure one voltage point on any cell exposing the shared interface.
template <typename CellT>
WritePoint measurePoint(CellT& cell, double voltage, double maxPulse) {
  WritePoint pt;
  pt.voltage = voltage;
  const double worst = worstWritePulse(cell, voltage, maxPulse);
  if (worst < 0.0) {
    pt.failed = true;
    return pt;
  }
  pt.writeTime = worst;
  // Energy at the worst-polarity pulse width: average of the two writes
  // (the paper's write energy covers both data values symmetrically).
  cell.setStoredBit(false);
  const auto w1 = cell.write(true, pt.writeTime, voltage);
  const auto w0 = cell.write(false, pt.writeTime, voltage);
  pt.writeEnergy = 0.5 * (w1.totalEnergy + w0.totalEnergy);
  return pt;
}

template <typename CellT>
double writeWall(CellT& cell, double vLo, double vHi, double maxPulse,
                 double tolerance) {
  const auto succeeds = [&](double v) {
    return worstWritePulse(cell, v, maxPulse) >= 0.0;
  };
  FEFET_REQUIRE(!succeeds(vLo), "write wall: lower bracket already writes");
  FEFET_REQUIRE(succeeds(vHi), "write wall: upper bracket fails");
  while (vHi - vLo > tolerance) {
    const double mid = 0.5 * (vLo + vHi);
    (succeeds(mid) ? vHi : vLo) = mid;
  }
  return 0.5 * (vLo + vHi);
}

template <typename CellT>
WritePoint isoWrite(CellT& cell, double targetTime, double vLo, double vHi,
                    double maxPulse) {
  // Write time decreases monotonically with voltage; bisect.
  const auto timeAt = [&](double v) {
    const double worst = worstWritePulse(cell, v, maxPulse, 2e-12);
    return worst < 0.0 ? maxPulse * 10.0 : worst;
  };
  FEFET_REQUIRE(timeAt(vLo) > targetTime,
                "isoWrite: lower voltage already faster than target");
  FEFET_REQUIRE(timeAt(vHi) < targetTime,
                "isoWrite: upper voltage still slower than target");
  double lo = vLo, hi = vHi;
  for (int i = 0; i < 24; ++i) {
    const double mid = 0.5 * (lo + hi);
    (timeAt(mid) > targetTime ? lo : hi) = mid;
  }
  const double v = 0.5 * (lo + hi);
  return measurePoint(cell, v, maxPulse);
}

}  // namespace

std::vector<WritePoint> sweepFefetWrite(const Cell2TConfig& config,
                                        const std::vector<double>& voltages,
                                        double maxPulse) {
  Cell2T cell(config);
  std::vector<WritePoint> out;
  out.reserve(voltages.size());
  for (double v : voltages) {
    out.push_back(measurePoint(cell, v, maxPulse));
  }
  return out;
}

std::vector<WritePoint> sweepFeramWrite(const FeRamConfig& config,
                                        const std::vector<double>& voltages,
                                        double maxPulse) {
  FeRamCell cell(config);
  std::vector<WritePoint> out;
  out.reserve(voltages.size());
  for (double v : voltages) {
    out.push_back(measurePoint(cell, v, maxPulse));
  }
  return out;
}

WritePoint isoWriteFefet(const Cell2TConfig& config, double targetTime,
                         double vLo, double vHi) {
  Cell2T cell(config);
  return isoWrite(cell, targetTime, vLo, vHi, 4e-9);
}

WritePoint isoWriteFeram(const FeRamConfig& config, double targetTime,
                         double vLo, double vHi) {
  FeRamCell cell(config);
  return isoWrite(cell, targetTime, vLo, vHi, 4e-9);
}

double fefetWriteWall(const Cell2TConfig& config, double vLo, double vHi,
                      double maxPulse, double tolerance) {
  Cell2T cell(config);
  return writeWall(cell, vLo, vHi, maxPulse, tolerance);
}

double feramWriteWall(const FeRamConfig& config, double vLo, double vHi,
                      double maxPulse, double tolerance) {
  FeRamCell cell(config);
  return writeWall(cell, vLo, vHi, maxPulse, tolerance);
}

}  // namespace fefet::core

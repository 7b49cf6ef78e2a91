// write_pulse.h — the paper's "write access time" for either memory cell:
// the shortest write pulse that flips the stored bit, found by bisection.
// Cell2T (FEFET 2T) and FeRamCell (FERAM 1T-1C) both provide
// setStoredBit(bool) and write(one, pulseWidth, voltage) -> result with
// `bitAfter`, which is all these templates use.
#pragma once

#include <algorithm>

namespace fefet::core {

/// Smallest pulse width that writes `one` into a cell holding the opposite
/// bit at bit-line magnitude `vWrite`, to within `resolution` (bisection on
/// (0, maxPulse]; the returned width writes).  Returns -1 when even
/// `maxPulse` fails.
template <typename CellT>
double minimumWritePulse(CellT& cell, bool one, double vWrite,
                         double maxPulse = 4e-9, double resolution = 5e-12) {
  const auto attempt = [&](double width) {
    cell.setStoredBit(!one);
    return cell.write(one, width, vWrite).bitAfter == one;
  };
  if (!attempt(maxPulse)) return -1.0;
  double lo = 0.0, hi = maxPulse;
  while (hi - lo > resolution) {
    const double mid = 0.5 * (lo + hi);
    (attempt(mid) ? hi : lo) = mid;
  }
  return hi;
}

/// Worst-polarity write time: the slower of writing '1' and writing '0'
/// (in that order), or -1 when either fails within `maxPulse`.
template <typename CellT>
double worstWritePulse(CellT& cell, double vWrite, double maxPulse = 4e-9,
                       double resolution = 5e-12) {
  const double t1 = minimumWritePulse(cell, true, vWrite, maxPulse, resolution);
  const double t0 =
      minimumWritePulse(cell, false, vWrite, maxPulse, resolution);
  if (t1 < 0.0 || t0 < 0.0) return -1.0;
  return std::max(t1, t0);
}

}  // namespace fefet::core

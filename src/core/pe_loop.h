// pe_loop.h — dynamic P–E / P–V hysteresis loop of one ferroelectric film
// (paper Fig. 1(c)), traced on the circuit engine.
//
// A piecewise-linear triangle source 0 -> +V -> -V -> 0 drives a single
// spice::FeCapDevice (no background dielectric), so the loop integrates
// the LK law with the same device and transient every cell, array and
// sense-amp result uses.  The first `settleCycles` periods let the film
// forget its initial state; the last period is recorded, and its coercive
// voltages, remnants and area are read off the waveform by crossings.
// For a ferroelectric film the half-width at P = 0 is the coercive voltage.
#pragma once

#include <vector>

#include "ferro/lk_model.h"

namespace fefet::core {

/// One traced loop: parallel arrays of applied voltage, field and
/// polarization over the recorded period, plus extracted metrics.
struct PeLoop {
  std::vector<double> voltage;       ///< applied terminal voltage [V]
  std::vector<double> field;         ///< E = V / t_FE [V/m]
  std::vector<double> polarization;  ///< P [C/m^2]

  /// Extracted coercive voltages: applied V at the two P = 0 crossings
  /// (negative-going and positive-going branches); 0 when P never crosses.
  double coerciveVoltageUp = 0.0;    ///< V at P=0 while sweeping up
  double coerciveVoltageDown = 0.0;  ///< V at P=0 while sweeping down
  /// Polarization remaining at V = 0 on the way down from +V (remnant).
  double remnantUp = 0.0;
  double remnantDown = 0.0;

  /// Loop area in the (V, P) plane [V·C/m^2]; nonzero area = hysteresis.
  double area() const;
};

struct PeLoopOptions {
  double amplitude = 2.5;      ///< peak applied voltage [V]
  double period = 200e-9;      ///< sweep period [s]; slow vs rho/|alpha|
  int samplesPerPeriod = 4000; ///< sets the largest step: period / samples
  int settleCycles = 1;        ///< cycles discarded before recording
};

/// Trace a full hysteresis loop of a film that starts depolarized (P = 0).
PeLoop tracePeLoop(const ferro::LkCoefficients& coefficients,
                   const ferro::FeGeometry& geometry,
                   const PeLoopOptions& options = {});

}  // namespace fefet::core

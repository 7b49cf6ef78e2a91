// Reproduces paper Fig. 1(c): the P-E hysteresis loop of the ferroelectric
// capacitor described by the time-dependent LK equation with the Table 2
// coefficients, traced on the circuit engine (a triangle source across one
// FeCapDevice, the device every cell and array result uses).  Prints the
// traced loop (E vs P) and the extracted remnant polarization / coercive
// voltage against the analytic values.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/plot.h"
#include "core/materials.h"
#include "core/pe_loop.h"

using namespace fefet;

int main() {
  bench::banner("Fig. 1(c): P-E loop of the ferroelectric capacitor");

  const ferro::LkCoefficients material = core::feramMaterial();
  const ferro::FeGeometry geometry{1e-9, 65e-9 * 45e-9};
  const ferro::LandauKhalatnikov lk(material);
  const double staticCoercive = geometry.thickness * lk.coerciveField();

  core::PeLoopOptions options;
  options.amplitude = 2.2 * staticCoercive;
  options.period = 400e-9;
  const auto loop = core::tracePeLoop(material, geometry, options);

  std::cout << "field_GV_per_m,polarization_C_per_m2\n";
  const std::size_t stride = loop.field.size() / 60 + 1;
  for (std::size_t i = 0; i < loop.field.size(); i += stride) {
    std::printf("%.4f,%.4f\n", loop.field[i] * 1e-9, loop.polarization[i]);
  }

  plot::Series loopSeries;
  loopSeries.label = "P(E)";
  loopSeries.x = loop.field;
  loopSeries.y = loop.polarization;
  plot::ChartOptions chart;
  chart.title = "P-E hysteresis loop (Fig. 1c)";
  chart.xLabel = "E [V/m]";
  chart.yLabel = "P [C/m^2]";
  plot::renderChart(std::cout, {loopSeries}, chart);

  bench::Comparison cmp;
  cmp.add("remnant polarization P_r", 0.4636, loop.remnantDown, "C/m^2", 4);
  cmp.add("remnant polarization (analytic)", 0.4636,
          lk.remnantPolarization(), "C/m^2");
  cmp.add("coercive field E_c", 1.2435, lk.coerciveField() * 1e-9, "GV/m");
  cmp.add("coercive voltage @ 1 nm (paper: 1.26 V)", 1.26,
          loop.coerciveVoltageUp, "V", 4);
  cmp.add("loop area", 0.0, loop.area(), "V*C/m^2 (hysteresis > 0)");
  cmp.print();
  return 0;
}

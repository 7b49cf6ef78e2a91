// MOSFET bypass against exact evaluation.
//
// DeviceBatches skips the model of a MOSFET lane whose terminal voltages
// stayed inside the bypass band since its last full evaluation and stamps
// the first-order extrapolation from that evaluation instead.  These tests
// hold the production Assembler against the reference assembly of
// mna_oracle.h, which calls the scalar MosfetDevice::stamp (the exact
// model) for every device:
//
//  * inside the band, the extrapolated assembly differs from the exact one
//    only by a second-order remainder (bound stated below);
//  * outside the band, every lane is evaluated and the assembly is exact;
//  * a DC assembly evaluates no gate charge, so a transient assembly at
//    the same iterate must evaluate it rather than extrapolate a stale one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/units.h"
#include "mna_oracle.h"
#include "spice/assembler.h"
#include "spice/device_batch.h"
#include "spice/mosfet_device.h"
#include "spice/netlist.h"
#include "xtor/mosfet_model.h"

namespace fefet::spice {
namespace {

constexpr double kGmin = 1e-12;
constexpr double kTime = 0.3e-9;
constexpr double kDt = 1e-12;

/// Terminal voltages of one isolated transistor.
struct Bias {
  double vd, vg, vs;
  bool pmos;
};

// Operating regions: subthreshold, saturation, triode, vds = 0, swapped
// source/drain, accumulation, and PMOS in both polarities.
const Bias kBiases[] = {
    {1.0, 0.15, 0.0, false},  {1.0, 1.0, 0.0, false},
    {0.05, 1.1, 0.0, false},  {0.3, 0.8, 0.3, false},
    {0.0, 0.9, 0.6, false},   {0.4, -0.8, 0.0, false},
    {-1.0, -1.0, 0.0, true},  {0.0, -0.2, -0.9, true},
};

/// Every transistor on its own three nodes, so each residual row holds one
/// transistor's stamps (plus gmin, which is linear).  Returns the iterate
/// that puts each transistor at its bias.
std::vector<double> buildTransistors(Netlist& n) {
  int k = 0;
  std::vector<double> x;
  for (const Bias& b : kBiases) {
    const std::string tag = std::to_string(k++);
    const NodeId d = n.node("d" + tag);
    const NodeId g = n.node("g" + tag);
    const NodeId s = n.node("s" + tag);
    n.add<MosfetDevice>("M" + tag, d, g, s,
                        b.pmos ? xtor::pmos45() : xtor::nmos45(), 65e-9);
    x.insert(x.end(), {b.vd, b.vg, b.vs});
  }
  n.freeze();
  return x;
}

struct Mode {
  bool dc;
  IntegrationMethod method;
};

void assembleOracle(const Netlist& n, MnaSystem& oracle,
                    const std::vector<double>& x, Mode mode) {
  const SystemView view(x, n.nodeCount());
  oracle.clear();
  EvalContext ctx{view, mode.dc, kTime, mode.dc ? 0.0 : kDt,
                  mode.method, kGmin, &oracle};
  for (const auto& device : n.devices()) device->stamp(ctx);
  oracle.addGmin(kGmin, view, n.nodeCount());
}

void assemble(const Netlist& n, Assembler& assembler,
              const std::vector<double>& x, Mode mode) {
  const SystemView view(x, n.nodeCount());
  assembler.assemble(n, view, mode.dc, kTime, mode.dc ? 0.0 : kDt,
                     mode.method, kGmin);
}

double oracleEntry(const MnaSystem& oracle, std::size_t r, std::size_t c) {
  const auto& row = oracle.sparseMatrix().row(r);
  const auto it = row.find(c);
  return it == row.end() ? 0.0 : it->second;
}

/// Exact (==) equality of residual, row scale and every Jacobian entry.
void expectExact(const MnaSystem& oracle, const Assembler& assembler) {
  const auto residual = assembler.residual();
  const auto rowScale = assembler.rowScale();
  for (std::size_t r = 0; r < residual.size(); ++r) {
    ASSERT_EQ(oracle.residual()[r], residual[r]) << "residual row " << r;
    ASSERT_EQ(oracle.rowScale()[r], rowScale[r]) << "rowScale row " << r;
  }
  const linalg::CsrView csr = assembler.csr();
  for (std::size_t r = 0; r < csr.n; ++r) {
    for (std::size_t p = csr.rowPtr[r]; p < csr.rowPtr[r + 1]; ++p) {
      ASSERT_EQ(oracleEntry(oracle, r, csr.colIdx[p]), csr.values[p])
          << "J(" << r << "," << csr.colIdx[p] << ")";
    }
  }
}

const Mode kTrap{false, IntegrationMethod::kTrapezoidal};
const Mode kBe{false, IntegrationMethod::kBackwardEuler};
const Mode kDc{true, IntegrationMethod::kBackwardEuler};

// Inside the band the stamps are I(x0) + ∇I(x0)·Δ and Q(x0) + C(x0)·Δvgs,
// so they differ from the exact stamps at x1 = x0 + Δ by the Taylor
// remainder.  Every current and charge of the model is built from
// softplus/logistic terms of arguments with slope at most 1/φt per volt,
// whose second derivative is at most twice the first per unit argument.
// Bound, per row r with δ = max|Δ|:
//   |F(r) - F_exact(r)|  <= 4·(δ/φt)·Σ_c |J_exact(r,c)|·|Δ_c| + 8 ulp·scale
//   |J(r,c) - J_exact(r,c)| summed over c <= 4·(δ/φt)·Σ_c |J_exact(r,c)|
// The residual bound is second order in δ.  Reusing I(x0) and Q(x0)
// (zeroth order) would leave the whole first-order term and fail it.
TEST(MosfetBypass, InsideBandMatchesExactWithinSecondOrderBound) {
  const double phit = constants::kBoltzmann * 300.0 /
                      constants::kElementaryCharge;

  for (const Mode mode : {kTrap, kBe}) {
    Netlist n;  // a fresh, empty cache per mode
    const std::vector<double> x0 = buildTransistors(n);
    Assembler assembler(n.stampPattern());
    MnaSystem oracle(n.unknownCount(), /*sparse=*/true);
    const DeviceBatches& batches = n.deviceBatches();
    assemble(n, assembler, x0, mode);  // full evaluation: the cache at x0
    ASSERT_EQ(batches.mosfetBypassed(), 0u);

    // Alternate signs, |Δ| = 5e-7 + 5e-7·|v|: half the band's width.
    std::vector<double> x1 = x0;
    std::vector<double> delta(x0.size());
    for (std::size_t i = 0; i < x1.size(); ++i) {
      const double sign = i % 2 == 0 ? 1.0 : -1.0;
      delta[i] = sign * (5e-7 + 5e-7 * std::abs(x0[i]));
      x1[i] += delta[i];
    }
    double deltaMax = 0.0;
    for (const double d : delta) deltaMax = std::max(deltaMax, std::abs(d));
    const double k = 4.0 * deltaMax / phit;

    assemble(n, assembler, x1, mode);
    ASSERT_EQ(batches.mosfetBypassed(), batches.mosfetLanes())
        << "the perturbation must stay inside the bypass band";
    assembleOracle(n, oracle, x1, mode);

    const auto residual = assembler.residual();
    const linalg::CsrView csr = assembler.csr();
    for (std::size_t r = 0; r < csr.n; ++r) {
      double firstOrder = 0.0;  // Σ_c |J_exact(r,c)|·|Δ_c|
      double jScale = 0.0;      // Σ_c |J_exact(r,c)|
      double jError = 0.0;
      for (std::size_t p = csr.rowPtr[r]; p < csr.rowPtr[r + 1]; ++p) {
        const std::size_t c = csr.colIdx[p];
        const double exact = oracleEntry(oracle, r, c);
        firstOrder += std::abs(exact) * std::abs(delta[c]);
        jScale += std::abs(exact);
        jError += std::abs(csr.values[p] - exact);
      }
      const double scale = oracle.rowScale()[r];
      EXPECT_LE(std::abs(residual[r] - oracle.residual()[r]),
                k * firstOrder + 8.0 * 2.2e-16 * scale)
          << "residual row " << r;
      EXPECT_LE(jError, k * jScale) << "Jacobian row " << r;
    }
  }
}

// Outside the band every lane runs the model: bit for bit the exact
// assembly, in every stamp mode, also right after a bypassed pass.
TEST(MosfetBypass, OutsideBandMatchesExactBitForBit) {
  Netlist n;
  std::vector<double> x = buildTransistors(n);
  Assembler assembler(n.stampPattern());
  MnaSystem oracle(n.unknownCount(), /*sparse=*/true);
  const DeviceBatches& batches = n.deviceBatches();

  for (const Mode mode : {kDc, kBe, kTrap}) {
    assemble(n, assembler, x, mode);
    std::vector<double> inside = x;
    for (double& v : inside) v += 1e-9;
    assemble(n, assembler, inside, mode);  // a bypassed pass in between
    ASSERT_EQ(batches.mosfetBypassed(), batches.mosfetLanes());

    for (double& v : x) v += 1e-3;
    assemble(n, assembler, x, mode);
    EXPECT_EQ(batches.mosfetBypassed(), 0u);
    assembleOracle(n, oracle, x, mode);
    expectExact(oracle, assembler);
  }
}

// A DC assembly evaluates the drain current but not the gate charge.  A
// transient assembly at the same iterate finds every terminal voltage in
// the band, yet its gate charge must come from the model, not from the
// charge cached at an earlier iterate.
TEST(MosfetBypass, DcThenTransientAtSameIterateEvaluatesGateCharge) {
  Netlist n;
  const std::vector<double> x0 = buildTransistors(n);
  Assembler assembler(n.stampPattern());
  MnaSystem oracle(n.unknownCount(), /*sparse=*/true);
  const DeviceBatches& batches = n.deviceBatches();

  assemble(n, assembler, x0, kTrap);  // charge cached at x0
  std::vector<double> x1 = x0;
  for (double& v : x1) v += 0.05;
  assemble(n, assembler, x1, kDc);    // current re-evaluated at x1
  EXPECT_EQ(batches.mosfetBypassed(), 0u);

  assemble(n, assembler, x1, kTrap);
  EXPECT_EQ(batches.mosfetBypassed(), 0u);
  assembleOracle(n, oracle, x1, kTrap);
  expectExact(oracle, assembler);

  // Now both parts are cached at x1: the same iterate is a bypass hit,
  // with Δ = 0 the extrapolation is the cached evaluation itself.
  assemble(n, assembler, x1, kTrap);
  EXPECT_EQ(batches.mosfetBypassed(), batches.mosfetLanes());
  expectExact(oracle, assembler);
}

}  // namespace
}  // namespace fefet::spice

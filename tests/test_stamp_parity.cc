// Stamp-parity suite: the production assembler (StampPattern slot
// programs + SoA device batches) must be bit-identical to the reference
// MNA assembly in mna_oracle.h.
//
// Two layers of evidence:
//   1. Matrix-level parity: a zoo netlist containing every device type is
//      assembled by the Assembler and the oracle at randomized Newton
//      iterates, in DC and in transient with both integration methods (BE
//      and trapezoid share the one transient stamp mode), against dense
//      and sparse oracle storage — every Jacobian entry, residual and
//      row-scale value compared with exact (==) equality.
//   2. Frozen goldens: a full 2T-cell write -> hold -> read, a 200-stage RC
//      ladder transient (LU structure reuse) and the diode-string DC
//      start.  Their values were captured from the last tree that still
//      ran three assembly engines side by side (virtual-dispatch
//      MnaSystem, compiled scalar slot replay, compiled SoA batches) and
//      asserted them bit-identical; the one engine left must keep
//      reproducing them exactly.  The goldens also pin the sparse LU's
//      rounding: the ladder was re-captured when its elimination order
//      changed, the cell and the diode string when they moved off dense
//      LU.  Each golden holds the final physical values, the
//      step/iteration/escalation counts and an order-sensitive hash over
//      the bits of every waveform sample.  When Newton's solve began
//      condensing the grounded sources out (only the free unknowns are
//      factored; DESIGN.md §6.6) all three came through bit for bit, so
//      none was re-captured.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cell2t.h"
#include "mna_oracle.h"
#include "obs/metrics.h"
#include "spice/assembler.h"
#include "spice/fecap_device.h"
#include "spice/mosfet_device.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"
#include "spice/stamp_pattern.h"
#include "xtor/mosfet_model.h"

namespace fefet::spice {
namespace {

ferro::LkCoefficients feMaterial() {
  ferro::LkCoefficients c;
  c.rho = 1.0;
  return c;
}

const ferro::FeGeometry kFeGeom{1e-9, 65e-9 * 45e-9};

// One of every device type, wired into a single connected circuit.  The
// point is stamp coverage, not physical plausibility.  `tag` suffixes every
// node and device name so several copies can share one netlist.
void buildZoo(Netlist& n, const std::string& tag = "") {
  using shapes::dc;
  using shapes::pulse;
  const auto node = [&](const char* name) { return n.node(name + tag); };
  const auto id = [&](const char* name) { return name + tag; };
  n.add<VoltageSource>(id("V1"), node("in"), n.ground(),
                       pulse(0.0, 1.2, 0.1e-9, 20e-12, 1e-9, 20e-12));
  n.add<Resistor>(id("R1"), node("in"), node("mid"), 1e3);
  n.add<Capacitor>(id("C1"), node("mid"), n.ground(), 2e-15);
  n.add<TimedSwitch>(id("S1"), node("mid"), node("out"),
                     [](double t) { return t < 0.5e-9 ? 1.0 : 0.0; });
  n.add<CurrentSource>(id("I1"), n.ground(), node("out"), dc(1e-6));
  n.add<Diode>(id("D1"), node("out"), n.ground());
  n.add<Resistor>(id("R2"), node("out"), n.ground(), 5e3);
  n.add<Resistor>(id("Rg"), node("mid"), node("gate"), 1e3);
  n.add<Resistor>(id("Rd"), node("in"), node("drn"), 1e4);
  n.add<MosfetDevice>(id("M1"), node("drn"), node("gate"), n.ground(),
                      xtor::nmos45(), 65e-9);
  const double pr =
      ferro::LandauKhalatnikov(feMaterial()).remnantPolarization();
  // backgroundEpsR > 0 exercises the FeCap linear-dielectric branch.
  n.add<FeCapDevice>(id("F1"), node("gate"), n.ground(), feMaterial(),
                     kFeGeom, pr, 5.0);
}

struct Mode {
  const char* name;
  bool dc;
  double time;
  double dt;
  IntegrationMethod method;
};

const Mode kModes[] = {
    {"dc", true, 0.0, 0.0, IntegrationMethod::kBackwardEuler},
    {"be", false, 0.3e-9, 1e-12, IntegrationMethod::kBackwardEuler},
    {"trap", false, 0.3e-9, 1e-12, IntegrationMethod::kTrapezoidal},
};

// Assemble the Assembler and the oracle at the same iterate and require
// exact equality of residual, row scale and every Jacobian entry.  The
// compiled CSR pattern is a superset of the oracle's (the oracle drops
// exact-zero contributions), so compiled-only entries must carry 0.0 and
// oracle entries must all exist in the pattern.  The zoo includes the
// batched types (R, C, V, I, MOSFET, FeCap) and the generic-fallback
// types (switch, diode), so both dispatch paths of
// DeviceBatches::stampAll and their interleaving run.  With
// `zooCopies` > 1 every SoA batch holds several devices whose netlist
// positions interleave with the other batches and the fallback devices,
// so the type-major kernels must scatter each one back to its own slots.
void expectParityAtIterates(bool sparse, int zooCopies = 1) {
  Netlist n;
  for (int copy = 0; copy < zooCopies; ++copy) {
    buildZoo(n, copy == 0 ? "" : "_" + std::to_string(copy));
  }
  const int unknowns = n.freeze();
  const int nodes = n.nodeCount();
  ASSERT_GT(unknowns, 0);

  MnaSystem oracle(unknowns, sparse);
  Assembler compiled(n.stampPattern());
  const StampPattern& pattern = n.stampPattern();
  const double gmin = 1e-10;

  std::mt19937_64 rng(20260807u);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.0);
  for (const auto& device : n.devices()) device->seedUnknowns(x);

  for (int iterate = 0; iterate < 8; ++iterate) {
    // Perturb around the seed so aux unknowns (P, branch currents) stay in
    // a regime every model evaluates without clipping differently.
    for (auto& xi : x) xi += 0.25 * dist(rng);
    const SystemView view(x, nodes);

    for (const Mode& mode : kModes) {
      SCOPED_TRACE(std::string("mode=") + mode.name +
                   (sparse ? " sparse" : " dense") +
                   " iterate=" + std::to_string(iterate));

      oracle.clear();
      EvalContext ctx{view,        mode.dc, mode.time, mode.dt,
                      mode.method, gmin,    nullptr,   &oracle};
      for (const auto& device : n.devices()) device->stamp(ctx);
      oracle.addGmin(gmin, view, nodes);

      compiled.assemble(n, view, mode.dc, mode.time, mode.dt, mode.method,
                        gmin);

      const auto residual = compiled.residual();
      const auto rowScale = compiled.rowScale();
      for (int i = 0; i < unknowns; ++i) {
        const auto u = static_cast<std::size_t>(i);
        ASSERT_EQ(oracle.residual()[u], residual[u]) << "residual row " << i;
        ASSERT_EQ(oracle.rowScale()[u], rowScale[u]) << "rowScale row " << i;
      }

      const linalg::CsrView csr = compiled.csr();
      for (std::size_t r = 0; r < csr.n; ++r) {
        for (std::size_t p = csr.rowPtr[r]; p < csr.rowPtr[r + 1]; ++p) {
          const std::size_t c = csr.colIdx[p];
          double oracleValue = 0.0;
          if (sparse) {
            const auto& row = oracle.sparseMatrix().row(r);
            const auto it = row.find(c);
            if (it != row.end()) oracleValue = it->second;
          } else {
            oracleValue = oracle.denseMatrix().at(r, c);
          }
          ASSERT_EQ(oracleValue, csr.values[p]) << "J(" << r << "," << c
                                                << ")";
        }
      }
      // No oracle entry may fall outside the compiled pattern.
      for (std::size_t r = 0; r < csr.n; ++r) {
        if (sparse) {
          for (const auto& [c, v] : oracle.sparseMatrix().row(r)) {
            ASSERT_NE(pattern.csrIndex(static_cast<int>(r),
                                       static_cast<int>(c)),
                      StampPattern::npos)
                << "oracle-only entry J(" << r << "," << c << ")=" << v;
          }
        } else {
          for (std::size_t c = 0; c < csr.n; ++c) {
            if (pattern.csrIndex(static_cast<int>(r), static_cast<int>(c)) ==
                StampPattern::npos) {
              ASSERT_EQ(oracle.denseMatrix().at(r, c), 0.0)
                  << "oracle-only entry J(" << r << "," << c << ")";
            }
          }
        }
      }
    }
  }
}

TEST(StampParity, EveryDeviceMatchesDenseOracleAtRandomIterates) {
  expectParityAtIterates(/*sparse=*/false);
}

TEST(StampParity, EveryDeviceMatchesSparseOracleAtRandomIterates) {
  expectParityAtIterates(/*sparse=*/true);
}

TEST(StampParity, BatchedKernelsMatchDenseOracleAtRandomIterates) {
  expectParityAtIterates(/*sparse=*/false, /*zooCopies=*/3);
}

TEST(StampParity, BatchedKernelsMatchSparseOracleAtRandomIterates) {
  expectParityAtIterates(/*sparse=*/true, /*zooCopies=*/3);
}

/// Stamper that records Jacobian call positions and discards values.
class CallRecorder final : public Stamper {
 public:
  void addResidual(int, double) override {}
  void addJacobian(int row, int col, double) override {
    calls.emplace_back(row, col);
  }
  std::vector<std::pair<int, int>> calls;
};

// BE and trapezoidal steps replay one transient slot program, so every
// device kind must emit the same Jacobian call sequence under both
// integration methods — at any iterate, and equal to what the pattern
// recorded for the transient mode.
TEST(StampPattern, TransientCallSequenceIsIndependentOfIntegrationMethod) {
  Netlist n;
  buildZoo(n);
  const int unknowns = n.freeze();
  const StampPattern& pattern = n.stampPattern();
  const auto& recorded = pattern.jacobianCalls(StampMode::kTransient);
  const auto& ends = pattern.deviceJacobianEnds(StampMode::kTransient);

  std::mt19937_64 rng(20261018u);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.0);
  for (const auto& device : n.devices()) device->seedUnknowns(x);
  for (int iterate = 0; iterate < 4; ++iterate) {
    if (iterate > 0) {
      for (auto& xi : x) xi += 0.25 * dist(rng);
    }
    const SystemView view(x, n.nodeCount());
    for (std::size_t d = 0; d < n.devices().size(); ++d) {
      Device& device = *n.devices()[d];
      SCOPED_TRACE(device.name() + " iterate=" + std::to_string(iterate));
      CallRecorder be;
      CallRecorder trap;
      const EvalContext beCtx{view,    false, 0.3e-9, 1e-12,
                              IntegrationMethod::kBackwardEuler,
                              0.0,     nullptr, &be};
      const EvalContext trapCtx{view,    false, 0.3e-9, 1e-12,
                                IntegrationMethod::kTrapezoidal,
                                0.0,     nullptr, &trap};
      device.stamp(beCtx);
      device.stamp(trapCtx);
      EXPECT_EQ(be.calls, trap.calls);
      const std::size_t begin = d > 0 ? ends[d - 1] : 0;
      ASSERT_EQ(ends[d] - begin, trap.calls.size());
      for (std::size_t k = 0; k < trap.calls.size(); ++k) {
        EXPECT_EQ(recorded[begin + k].row, trap.calls[k].first);
        EXPECT_EQ(recorded[begin + k].col, trap.calls[k].second);
      }
    }
  }
}

// FNV-1a over the IEEE bit patterns of every sample, sample-major (time,
// then each column in columnNames() order, then `extra` if given): any
// change to the timestep sequence or to any probe value in any bit changes
// the hash.
std::uint64_t waveformHash(const Waveform& w,
                           std::span<const double> extra = {}) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int k = 0; k < 64; k += 8) {
      h ^= (bits >> k) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto time = w.time();
  std::vector<std::span<const double>> columns;
  for (const auto& name : w.columnNames()) columns.push_back(w.column(name));
  if (!extra.empty()) columns.push_back(extra);
  for (std::size_t i = 0; i < time.size(); ++i) {
    mix(time[i]);
    for (const auto& column : columns) mix(column[i]);
  }
  return h;
}

// Long RC ladder with LU structure reuse — exactly the array-scale
// configuration the pipeline was built for.
TEST(StampParity, LadderTransientIsBitIdenticalAcrossEngines) {
  Netlist n;
  constexpr int kStages = 200;
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(),
                       shapes::pulse(0.0, 1.0, 0.0, 50e-12, 1.0, 50e-12));
  for (int i = 0; i < kStages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
  }
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 2e-9;
  options.dtMax = 20e-12;
  const auto result = sim.runTransient(
      options, {Probe::v("s1"), Probe::v("s100"), Probe::v("s200")});

  EXPECT_EQ(result.stats.steps, 107);
  EXPECT_EQ(result.stats.newtonIterations, 214);
  EXPECT_EQ(result.stats.gminEscalations, 0);
  EXPECT_EQ(result.waveform.sampleCount(), 108u);
  // Re-captured when the sparse LU gained its fill-reducing ordering: the
  // elimination order changed the rounding only (every probe sample within
  // 1e-15 relative of the natural-order capture, identical time points).
  EXPECT_EQ(waveformHash(result.waveform), 0x06ca482a99f3f2a9ull);
}

// Golden of one cell operation; `steps`/`iterations`/`escalations` are
// the deltas of the fefet.transient.* counters across the operation.
struct CellOpGolden {
  double finalPolarization;
  double readCurrent;
  double totalEnergy;
  bool bitAfter;
  std::uint64_t steps;
  std::uint64_t iterations;
  std::uint64_t escalations;
  std::uint64_t hash;
};

// Full 2T-cell write -> hold -> read: the FEFET gate stack (MOSFET +
// FeCap aux unknown) through pulse edges, dt control and state commits.
// Re-captured when Newton moved the cell (11 unknowns) from dense LU to the
// ordered sparse LU: the step/iteration/escalation counts and every time
// point are unchanged; polarization, read current and energy moved by at
// most 1.93e-15 relative, and every waveform sample by at most 2.5e-15 of
// its column's peak magnitude from the dense-LU capture, except the hold's
// gate node (at most 6e-15 V against a 53 mV peak).
// Re-captured again when MOSFET lanes gained device bypass (first-order
// extrapolation inside a 1 µV + 1e-6·|v| band): the step/iteration/
// escalation counts and every time point are unchanged; polarization,
// read current and energy moved by at most 2.4e-12 relative, and every
// waveform sample by at most 3.1e-11 of its column's peak magnitude,
// except the hold's gate node (at most 4.7e-12 V against a 53 mV peak,
// 8.9e-11 of it).
// Re-captured (write hash only) when the OFF state came from a Brent solve
// on a monotone branch of the quasi-static curve instead of on a 16,000-
// sample grid bracket: psiOff (1.7e-6 V) moved by one ulp, and the write's
// only moved samples are its internal node (at most 4.2e-22 V) and gate
// node (at most 1.3e-25 V); every other value, count and time point, and
// the hold and read hashes, are unchanged.
// The write and hold no longer record the drain current; their hashes
// append it, recomputed from the recorded terminal voltages exactly as the
// probe did, so the goldens cover the same samples as before.
TEST(StampParity, Cell2TWriteHoldReadIsBitIdenticalAcrossEngines) {
  static constexpr CellOpGolden kGolden[3] = {
      {0x1.d702c019d19c4p-3, 0.0, 0x1.89ce1a86b8ebp-51, true, 204, 628, 0,
       0x036ef3a3acccd01bull},
      {0x1.d57d49ad2dcccp-3, 0.0, 0.0, true, 203, 430, 0,
       0xbdf537401b7cb98bull},
      {0x1.ba545d236c501p-3, 0x1.c6066103f3abfp-13, 0x1.6206a798e1f74p-43,
       true, 205, 562, 0, 0x086dd6a47c6785b3ull},
  };
  const bool metricsWereEnabled = obs::Metrics::enabled();
  obs::Metrics::setEnabled(true);  // the counts come from the counters
  obs::Counter& steps = obs::Metrics::counter("fefet.transient.steps");
  obs::Counter& iterations =
      obs::Metrics::counter("fefet.transient.newton_iterations");
  obs::Counter& escalations =
      obs::Metrics::counter("fefet.transient.gmin_escalations");

  core::Cell2TConfig config;
  core::Cell2T cell(config);
  cell.setStoredBit(false);
  for (int op = 0; op < 3; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const std::uint64_t steps0 = steps.total();
    const std::uint64_t iterations0 = iterations.total();
    const std::uint64_t escalations0 = escalations.total();
    const core::CellOpResult result = op == 0   ? cell.write(true, 1e-9)
                                      : op == 1 ? cell.hold(1e-9)
                                                : cell.read();
    const CellOpGolden& golden = kGolden[op];
    EXPECT_EQ(result.finalPolarization, golden.finalPolarization);
    EXPECT_EQ(result.readCurrent, golden.readCurrent);
    EXPECT_EQ(result.totalEnergy, golden.totalEnergy);
    EXPECT_EQ(result.bitAfter, golden.bitAfter);
    EXPECT_EQ(steps.total() - steps0, golden.steps);
    EXPECT_EQ(iterations.total() - iterations0, golden.iterations);
    EXPECT_EQ(escalations.total() - escalations0, golden.escalations);
    const Waveform& w = result.waveform;
    std::vector<double> drainCurrent;
    if (op < 2) {
      const xtor::MosfetModel& mos = cell.fefetInstance().mos->model();
      const auto vd = w.column("v(rs)");
      const auto vg = w.column("v(cell:int)");
      const auto vs = w.column("v(sl)");
      for (std::size_t i = 0; i < w.sampleCount(); ++i) {
        drainCurrent.push_back(mos.idsAt(vd[i], vg[i], vs[i]));
      }
    }
    EXPECT_EQ(waveformHash(w, drainCurrent), golden.hash);
  }
  obs::Metrics::setEnabled(metricsWereEnabled);
}

// ---------------------------------------------------------------------------
// SystemView node/aux indexing convention (audited in PR 7, see device.h):
// node i reads x[i - 1]; aux rows are ABSOLUTE indices >= nodeCount handed
// out by the AuxAllocator, read unshifted.  A mixed node/aux iterate run
// through a real assembly pins the convention end to end.
TEST(StampParity, MixedNodeAuxIterateFollowsRowConvention) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(), shapes::dc(1.0));
  n.add<Resistor>("R1", n.node("in"), n.ground(), 1e3);
  const int unknowns = n.freeze();
  ASSERT_EQ(n.nodeCount(), 1);   // "in"
  ASSERT_EQ(unknowns, 2);        // + the source's branch-current aux
  // The aux row is absolute: the allocator starts at nodeCount().
  ASSERT_EQ(n.auxLabels().size(), 1u);

  // Distinct values so a swapped read cannot cancel: node voltage 0.7 at
  // row 0, branch current 0.3 at (absolute) row 1.
  std::vector<double> x{0.7, 0.3};
  const SystemView view(x, n.nodeCount());
  EXPECT_EQ(view.nodeVoltage(n.node("in")), 0.7);   // node 1 -> x[0]
  EXPECT_EQ(view.nodeVoltage(kGround), 0.0);
  EXPECT_EQ(view.aux(1), 0.3);                      // absolute row, no shift

  // Assemble and check both rows land where the convention says:
  //   row 0 (KCL at "in"): resistor current v/R plus the branch current
  //   aux — 0.7/1e3 + 0.3;
  //   row 1 (source constraint): v(in) - 1.0 = -0.3.
  Assembler compiled(n.stampPattern());
  compiled.assemble(n, view, /*dc=*/true, 0.0, 0.0,
                    IntegrationMethod::kBackwardEuler, /*gmin=*/0.0);
  const auto residual = compiled.residual();
  ASSERT_EQ(residual.size(), 2u);
  EXPECT_EQ(residual[0], 0.7 / 1e3 + 0.3);
  EXPECT_EQ(residual[1], 0.7 - 1.0);
}

// Hard-start diode string through Simulator::solveDc (direct attempt,
// then gmin continuation on failure): the same path, iteration count and
// operating point to the last bit.  At capture the direct attempt
// converged, so 0 continuation levels is part of the golden.  The node
// voltages were re-captured when Newton moved from dense LU to the sparse
// LU at every size: 20 iterations and 0 escalations as before, each
// voltage within 2e-16 relative (one ulp) of the dense-LU capture.
TEST(StampParity, GminContinuationIsBitIdenticalAcrossEngines) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("top"), n.ground(), shapes::dc(3.0));
  n.add<Diode>("D1", n.node("top"), n.node("m1"));
  n.add<Diode>("D2", n.node("m1"), n.node("m2"));
  n.add<Diode>("D3", n.node("m2"), n.node("m3"));
  n.add<Diode>("D4", n.node("m3"), n.ground());
  n.add<Resistor>("Rload", n.node("m3"), n.ground(), 1e6);
  Simulator sim(n);
  const NewtonStats stats = sim.solveDc();
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 20);
  EXPECT_EQ(stats.gminEscalations, 0);
  EXPECT_EQ(sim.nodeVoltage("m1"), 0x1.1ffffefa30688p+1);
  EXPECT_EQ(sim.nodeVoltage("m2"), 0x1.7ffffbe8c33d6p+0);
  EXPECT_EQ(sim.nodeVoltage("m3"), 0x1.7ffff3ba4d794p-1);
}

// A device whose call sequence deviates from the recorded pattern must be
// caught by the per-device integrity check, not silently corrupt slots.
class ErraticDevice final : public Device {
 public:
  ErraticDevice(std::string name, NodeId a, bool* erratic)
      : Device(std::move(name)), a_(a), erratic_(erratic) {}

  void stamp(const EvalContext& ctx) override {
    const int row = a_ - 1;
    ctx.addResidual(row, 1e-9);
    ctx.addJacobian(row, row, 1e-9);
    if (*erratic_) ctx.addJacobian(row, row, 1e-9);  // extra call
  }

 private:
  NodeId a_;
  bool* erratic_;
};

TEST(StampParity, CallSequenceDeviationIsDiagnosedByName) {
  Netlist n;
  bool erratic = false;
  // The erratic device goes first so its extra call trips the per-device
  // count check (which names it) rather than the end-of-program guard.
  n.add<ErraticDevice>("X1", n.node("a"), &erratic);
  n.add<Resistor>("R1", n.node("a"), n.ground(), 1e3);
  n.freeze();
  Assembler compiled(n.stampPattern());
  std::vector<double> x(static_cast<std::size_t>(n.unknownCount()), 0.0);
  const SystemView view(x, n.nodeCount());
  compiled.assemble(n, view, true, 0.0, 0.0,
                    IntegrationMethod::kBackwardEuler, 0.0);  // in-pattern

  erratic = true;  // now emits one extra addJacobian vs the recording
  try {
    compiled.assemble(n, view, true, 0.0, 0.0,
                      IntegrationMethod::kBackwardEuler, 0.0);
    FAIL() << "deviating call sequence was not diagnosed";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("X1"), std::string::npos)
        << "diagnostic must name the culprit device: " << e.what();
  }
}

}  // namespace
}  // namespace fefet::spice

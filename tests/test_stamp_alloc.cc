// Heap-allocation audit of the compiled stamp pipeline: after a warm-up
// solve, the Newton steady state (SoA batch assemble + sparse LU numeric
// refactor + solve) must perform zero heap allocations, on a short and a
// long ladder and on a FEFET array whose MOSFET lanes both hit and miss
// the bypass cache.
//
// The audit replaces the global operator new/delete with counting
// wrappers for the whole test binary; counting is only armed around the
// windows under test, so gtest's own bookkeeping does not pollute the
// numbers.  This test is kept out of the sanitizer builds' special cases
// by design: ASan interposes its own allocator *under* these wrappers, so
// the counts remain valid there too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/array_netlist.h"
#include "obs/metrics.h"
#include "spice/fecap_device.h"
#include "spice/mosfet_device.h"
#include "spice/netlist.h"
#include "spice/newton.h"
#include "spice/passives.h"
#include "spice/sources.h"
#include "xtor/mosfet_model.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocations{0};

void* countedAlloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fefet::spice {
namespace {

// RC/diode ladder sized by stage count.  With `activeLoads` every fifth
// stage also drives a diode-connected MOSFET and a ferroelectric
// capacitor, so the MOSFET and FeCap batch kernels run inside the audited
// window too.
void buildLadder(Netlist& n, int stages, bool activeLoads) {
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(), shapes::dc(1.0));
  ferro::LkCoefficients fe;
  fe.rho = 1.0;
  const double pr = ferro::LandauKhalatnikov(fe).remnantPolarization();
  for (int i = 0; i < stages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
    if (i % 7 == 0) {
      n.add<Diode>("D" + std::to_string(i), b, n.ground());
    }
    if (activeLoads && i % 5 == 0) {
      n.add<MosfetDevice>("M" + std::to_string(i), b, b, n.ground(),
                          xtor::nmos45(), 65e-9);
      n.add<FeCapDevice>("F" + std::to_string(i), b, n.ground(), fe,
                         ferro::FeGeometry{1e-9, 65e-9 * 45e-9}, pr);
    }
  }
}

long allocationsDuringSolves(int stages, bool activeLoads = false) {
  Netlist n;
  buildLadder(n, stages, activeLoads);
  NewtonSolver solver(n, NewtonOptions{});

  std::vector<double> x(static_cast<std::size_t>(n.unknownCount()), 0.0);
  for (const auto& device : n.devices()) device->seedUnknowns(x);

  // Warm-up: first solve sizes dx_, performs the one full symbolic LU
  // factorization and settles every workspace.
  NewtonStats stats =
      solver.solve(x, /*dc=*/false, 1e-10, 1e-12,
                   IntegrationMethod::kBackwardEuler);
  EXPECT_TRUE(stats.converged);

  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (int step = 0; step < 4; ++step) {
    stats = solver.solve(x, /*dc=*/false, (2 + step) * 1e-10, 1e-12,
                         IntegrationMethod::kBackwardEuler);
  }
  g_armed.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(stats.converged);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(StampAlloc, Ladder40SteadyStateIsAllocationFree) {
  EXPECT_EQ(allocationsDuringSolves(/*stages=*/40), 0);
}

TEST(StampAlloc, Ladder200SteadyStateIsAllocationFree) {
  EXPECT_EQ(allocationsDuringSolves(/*stages=*/200), 0);
}

TEST(StampAlloc, BatchedLadder40SteadyStateIsAllocationFree) {
  EXPECT_EQ(allocationsDuringSolves(/*stages=*/40, /*activeLoads=*/true), 0);
}

TEST(StampAlloc, BatchedLadder200SteadyStateIsAllocationFree) {
  EXPECT_EQ(allocationsDuringSolves(/*stages=*/200, /*activeLoads=*/true), 0);
}

// A 4x4 FEFET array settled at hold bias: the next solves find most
// MOSFET lanes inside the bypass band (hits).  Kicking every node voltage
// by 1 mV before a solve puts every lane outside it for the first
// iteration (misses), so the audited window runs both paths of the
// gathered MOSFET kernel.
TEST(StampAlloc, ArrayNetlistBypassSteadyStateIsAllocationFree) {
  core::ArrayNetlistConfig config;
  config.rows = config.cols = 4;
  core::ArrayNetlist array(config);
  array.hold(0.2e-9);
  Netlist& n = array.netlist();
  NewtonSolver solver(n, NewtonOptions{});
  std::vector<double> x = array.simulator().solution();

  const bool metricsWereEnabled = obs::Metrics::enabled();
  obs::Metrics::setEnabled(true);
  obs::Counter& lanes = obs::Metrics::counter("fefet.assembler.mosfet_lanes");
  obs::Counter& bypassed =
      obs::Metrics::counter("fefet.assembler.mosfet_bypassed");
  NewtonStats stats = solver.solve(x, /*dc=*/false, 1e-10, 1e-12,
                                   IntegrationMethod::kTrapezoidal);
  EXPECT_TRUE(stats.converged);
  // Direct solve() calls tally in the solver; land them before reading.
  solver.flushTelemetry();
  const std::uint64_t lanes0 = lanes.total();
  const std::uint64_t bypassed0 = bypassed.total();

  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (int step = 0; step < 6; ++step) {
    if (step % 2 == 1) {
      for (int i = 0; i < n.nodeCount(); ++i) {
        x[static_cast<std::size_t>(i)] += 1e-3;
      }
    }
    stats = solver.solve(x, /*dc=*/false, (2 + step) * 1e-10, 1e-12,
                         IntegrationMethod::kTrapezoidal);
  }
  g_armed.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0);

  solver.flushTelemetry();
  const std::uint64_t hits = bypassed.total() - bypassed0;
  const std::uint64_t laneEvals = lanes.total() - lanes0;
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, laneEvals);
  obs::Metrics::setEnabled(metricsWereEnabled);
}

}  // namespace
}  // namespace fefet::spice

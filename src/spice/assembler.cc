#include "spice/assembler.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"
#include "spice/device_batch.h"

namespace fefet::spice {

namespace {

/// Assembly-rate telemetry.  Deliberately counter-only — no clock reads
/// inside assemble() — and tallied in plain members between flushes: the
/// observability budget caps telemetry overhead at 2% of the Fig. 7 8x8
/// array transients, measured by scripts/check.sh on
/// bench_fig07_array_bias --telemetry-overhead.
struct AssemblerTelemetry {
  obs::Counter& assemblies;
  obs::Counter& stamps;
  obs::Counter& patternReuseHits;
  obs::Counter& mosfetLanes;     ///< MOSFET lanes stamped
  obs::Counter& mosfetBypassed;  ///< of those, stamped from the bypass cache
};

AssemblerTelemetry& assemblerTelemetry() {
  static AssemblerTelemetry t{
      obs::Metrics::counter("fefet.assembler.assemblies"),
      obs::Metrics::counter("fefet.assembler.stamps"),
      obs::Metrics::counter("fefet.assembler.pattern_reuse_hits"),
      obs::Metrics::counter("fefet.assembler.mosfet_lanes"),
      obs::Metrics::counter("fefet.assembler.mosfet_bypassed")};
  return t;
}

}  // namespace

void StampBuffer::throwSlotOverrun(int row, int col) const {
  std::ostringstream os;
  os << "compiled stamp pipeline: device emitted more Jacobian entries than "
        "recorded (next call at row "
     << row << ", col " << col
     << ") — a device's stamp sequence must be a fixed function of "
        "the DC/transient mode for a frozen netlist";
  throw NumericalError(os.str());
}

Assembler::Assembler(const StampPattern& pattern)
    : pattern_(pattern),
      n_(pattern.unknowns()),
      values_(1 + pattern.nonZeros(), 0.0),
      residual_(1 + static_cast<std::size_t>(n_), 0.0),
      rowScale_(1 + static_cast<std::size_t>(n_), 0.0),
      rhs_(static_cast<std::size_t>(n_), 0.0) {
  FEFET_REQUIRE(n_ > 0, "MNA system needs at least one unknown");
  // Compile the per-mode slot programs: CSR position + 1 per recorded
  // call, ground entries to the trash slot 0.
  for (int m = 0; m < kStampModeCount; ++m) {
    const auto& calls = pattern_.jacobianCalls(static_cast<StampMode>(m));
    auto& slots = slots_[m];
    slots.reserve(calls.size());
    for (const StampEntry& e : calls) {
      const std::size_t idx = pattern_.csrIndex(e.row, e.col);
      slots.push_back(idx == StampPattern::npos ? 0 : idx + 1);
    }
  }
  diagSlots_.reserve(pattern_.nodeDiagonals().size());
  for (const std::size_t idx : pattern_.nodeDiagonals()) {
    diagSlots_.push_back(idx + 1);
  }
}

Assembler::~Assembler() { flushTelemetry(); }

void Assembler::flushTelemetry() {
  if (tally_.assemblies != 0) {
    AssemblerTelemetry& t = assemblerTelemetry();
    t.assemblies.add(tally_.assemblies);
    t.stamps.add(tally_.stamps);
    t.patternReuseHits.add(tally_.patternReuseHits);
    t.mosfetLanes.add(tally_.mosfetLanes);
    t.mosfetBypassed.add(tally_.mosfetBypassed);
  }
  tally_ = {};
}

void Assembler::assemble(const Netlist& netlist, const SystemView& view,
                         bool dc, double time, double dt,
                         IntegrationMethod method, double gmin) {
  const auto& devices = netlist.devices();
  FEFET_REQUIRE(devices.size() == pattern_.deviceCount(),
                "compiled stamp pipeline: netlist device list changed after "
                "the pattern was recorded");
  const int m = static_cast<int>(stampModeFor(dc));
  const auto& slots = slots_[m];
  const auto& ends = pattern_.deviceJacobianEnds(static_cast<StampMode>(m));

  std::fill(values_.begin(), values_.end(), 0.0);
  std::fill(residual_.begin(), residual_.end(), 0.0);
  std::fill(rowScale_.begin(), rowScale_.end(), 0.0);

  buffer_.values_ = values_.data();
  buffer_.residual_ = residual_.data();
  buffer_.rowScale_ = rowScale_.data();
  buffer_.slotBegin_ = slots.data();
  buffer_.slotCursor_ = slots.data();
  buffer_.slotEnd_ = slots.data() + slots.size();

  EvalContext ctx{view, dc, time, dt, method, gmin, &buffer_, nullptr};
  DeviceBatches& batches = netlist.deviceBatches();
  batches.stampAll(ctx, ends);

  if (obs::Metrics::enabled()) {
    ++tally_.assemblies;
    tally_.stamps += devices.size();
    if (modeUsed_[static_cast<std::size_t>(m)]) ++tally_.patternReuseHits;
    tally_.mosfetLanes += batches.mosfetLanes();
    tally_.mosfetBypassed += batches.mosfetBypassed();
  }
  modeUsed_[static_cast<std::size_t>(m)] = true;

  // gmin regularization after the device loop: residual through the same
  // accumulation (so the row scale sees the gmin current), diagonal
  // through the precompiled slots.
  if (gmin > 0.0) {
    const int nodes = pattern_.nodeCount();
    for (int row = 0; row < nodes; ++row) {
      const double v = view.nodeVoltage(row + 1);
      buffer_.addResidual(row, gmin * v);
      values_[diagSlots_[static_cast<std::size_t>(row)]] += gmin;
    }
  }
}

void Assembler::solveForUpdate(std::vector<double>& dx) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const double* res = residual_.data() + 1;
  for (std::size_t i = 0; i < n; ++i) rhs_[i] = -res[i];

  dx.resize(n);
  if (luHasPattern_) {
    lu_.refactor(csr().values);
  } else {
    luHasPattern_ = true;
    lu_.factor(csr());
  }
  lu_.solve(rhs_, dx);
}

}  // namespace fefet::spice

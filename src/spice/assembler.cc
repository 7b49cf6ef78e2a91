#include "spice/assembler.h"

#include <algorithm>
#include <sstream>
#include <string>

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
      rowScale_(1 + static_cast<std::size_t>(n_), 0.0) {
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

void Assembler::buildCondensation() {
  const auto n = static_cast<std::size_t>(n_);
  const auto& rowPtr = pattern_.rowPtr();
  const auto& colIdx = pattern_.colIdx();
  // Entries per column, and the row of a column's last entry.
  std::vector<std::size_t> colCount(n, 0);
  std::vector<std::size_t> colRow(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      ++colCount[colIdx[p]];
      colRow[colIdx[p]] = r;
    }
  }
  // A branch row with one entry, on a node column, whose unknown only that
  // node's KCL row holds, pins the node (at most once).
  const auto nodes = static_cast<std::size_t>(pattern_.nodeCount());
  std::vector<bool> pinned(n, false);
  for (std::size_t r = nodes; r < n; ++r) {
    if (rowPtr[r + 1] - rowPtr[r] != 1) continue;
    const std::size_t c = colIdx[rowPtr[r]];
    if (c >= nodes || pinned[c] || colCount[r] != 1 || colRow[r] != c) {
      continue;
    }
    pinned[c] = pinned[r] = true;
    pins_.push_back({static_cast<int>(c), static_cast<int>(r), rowPtr[r],
                     pattern_.csrIndex(static_cast<int>(c),
                                       static_cast<int>(r))});
  }

  // J_FF pattern, the gather map into it, the J_F,pinned couplings and
  // the column order.
  std::vector<std::size_t> reduced(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pinned[i]) continue;
    reduced[i] = free_.size();
    free_.push_back(static_cast<int>(i));
  }
  freeRowPtr_.assign(1, 0);
  for (std::size_t i = 0; i < free_.size(); ++i) {
    const auto r = static_cast<std::size_t>(free_[i]);
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      const std::size_t c = colIdx[p];
      if (pinned[c]) {
        couplings_.push_back({i, p, static_cast<int>(c)});
      } else {
        freeColIdx_.push_back(reduced[c]);
        gather_.push_back(p);
      }
    }
    freeRowPtr_.push_back(freeColIdx_.size());
  }
  freeOrder_.reserve(free_.size());
  for (const std::size_t c : linalg::minimumDegreeOrder(csr())) {
    if (!pinned[c]) freeOrder_.push_back(reduced[c]);
  }
  freeValues_.assign(gather_.size(), 0.0);
  rhs_.assign(free_.size(), 0.0);
  dxFree_.assign(free_.size(), 0.0);
  condensed_ = true;
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
  // Built on the first solve: an assembler whose Jacobian another engine
  // solves (the hierarchical one) never pays for it.
  if (!condensed_) buildCondensation();
  dx.resize(static_cast<std::size_t>(n_));
  const double* res = residual_.data() + 1;
  const double* a = values_.data() + 1;

  // Pinned nodes: each source's branch row fixes its node's update.
  for (const Pin& pin : pins_) {
    const double j = a[pin.auxNode];
    if (j == 0.0 || a[pin.nodeAux] == 0.0) {
      throw NumericalError("Assembler: singular source row at unknown " +
                           std::to_string(pin.aux));
    }
    dx[static_cast<std::size_t>(pin.node)] = -res[pin.aux] / j;
  }

  // Free unknowns: J_FF dx_F = -F_F - J_F,pinned dv.
  for (std::size_t k = 0; k < gather_.size(); ++k) {
    freeValues_[k] = a[gather_[k]];
  }
  for (std::size_t i = 0; i < free_.size(); ++i) rhs_[i] = -res[free_[i]];
  for (const Coupling& c : couplings_) {
    rhs_[c.row] -= a[c.pos] * dx[static_cast<std::size_t>(c.col)];
  }
  if (luHasPattern_) {
    lu_.refactor(freeValues_);
  } else {
    lu_.factor({free_.size(), freeRowPtr_, freeColIdx_, freeValues_},
               freeOrder_);
    luHasPattern_ = true;
  }
  lu_.solve(rhs_, dxFree_);
  for (std::size_t i = 0; i < free_.size(); ++i) {
    dx[static_cast<std::size_t>(free_[i])] = dxFree_[i];
  }

  // Source currents from their nodes' KCL rows.
  const auto& rowPtr = pattern_.rowPtr();
  const auto& colIdx = pattern_.colIdx();
  for (const Pin& pin : pins_) {
    const auto node = static_cast<std::size_t>(pin.node);
    double sum = -res[node];
    for (std::size_t p = rowPtr[node]; p < rowPtr[node + 1]; ++p) {
      if (p != pin.nodeAux) sum -= a[p] * dx[colIdx[p]];
    }
    dx[static_cast<std::size_t>(pin.aux)] = sum / a[pin.nodeAux];
  }
}

}  // namespace fefet::spice

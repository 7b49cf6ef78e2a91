#include "core/memory_array.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "spice/passives.h"

namespace fefet::core {

using spice::Probe;
using spice::shapes::dc;
using spice::shapes::pulse;

namespace {
std::string rowName(const std::string& base, int r) {
  return base + std::to_string(r);
}
}  // namespace

MemoryArray::MemoryArray(const ArrayConfig& config)
    : config_(config), injector_(config.faults) {
  FEFET_REQUIRE(config_.rows >= 1 && config_.cols >= 1,
                "array needs at least one cell");
  states_ = bistableStates(config_.fefet);

  auto& n = netlist_;
  for (int r = 0; r < config_.rows; ++r) {
    const auto ws = rowName("ws", r);
    const auto rs = rowName("rs", r);
    wsSources_.push_back(n.add<spice::VoltageSource>(
        "V" + ws, n.node(ws), n.ground(), dc(0.0)));
    rsSources_.push_back(n.add<spice::VoltageSource>(
        "V" + rs, n.node(rs), n.ground(), dc(0.0)));
    n.add<spice::Capacitor>("C" + ws, n.node(ws), n.ground(),
                            config_.rowWireCapPerCell * config_.cols);
    n.add<spice::Capacitor>("C" + rs, n.node(rs), n.ground(),
                            config_.rowWireCapPerCell * config_.cols);
  }
  for (int c = 0; c < config_.cols; ++c) {
    const auto wbl = rowName("wbl", c);
    const auto sl = rowName("sl", c);
    wblSources_.push_back(n.add<spice::VoltageSource>(
        "V" + wbl, n.node(wbl), n.ground(), dc(0.0)));
    slSources_.push_back(n.add<spice::VoltageSource>(
        "V" + sl, n.node(sl), n.ground(), dc(0.0)));
    n.add<spice::Capacitor>("C" + wbl, n.node(wbl), n.ground(),
                            config_.colWireCapPerCell * config_.rows);
    n.add<spice::Capacitor>("C" + sl, n.node(sl), n.ground(),
                            config_.colWireCapPerCell * config_.rows);
    probes_.push_back(Probe::i("V" + sl));
  }
  for (int r = 0; r < config_.rows; ++r) {
    probes_.push_back(Probe::i("V" + rowName("rs", r)));
  }
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      std::ostringstream id;
      id << "cell" << r << "_" << c;
      const std::string gate = id.str() + ":g";
      n.add<spice::MosfetDevice>(id.str() + ":acc",
                                 n.node(rowName("wbl", c)),
                                 n.node(rowName("ws", r)), n.node(gate),
                                 config_.accessMos, config_.accessWidth);
      const CellFault fault = injector_.cellFault(r, c);
      cellFaults_.push_back(fault);
      // Weak cells are instantiated with collapsed device parameters, so
      // their degraded window is physical, not bookkept.
      cells_.push_back(attachFefet(n, id.str(), gate, rowName("rs", r),
                                   rowName("sl", c),
                                   injector_.apply(config_.fefet, fault),
                                   states_.pOff));
    }
  }
  sim_ = std::make_unique<spice::Simulator>(netlist_);
  std::vector<std::vector<bool>> zeros(
      static_cast<std::size_t>(config_.rows),
      std::vector<bool>(static_cast<std::size_t>(config_.cols), false));
  setPattern(zeros);
}

void MemoryArray::setPattern(const std::vector<std::vector<bool>>& bits) {
  FEFET_REQUIRE(static_cast<int>(bits.size()) == config_.rows,
                "pattern row count mismatch");
  for (int r = 0; r < config_.rows; ++r) {
    FEFET_REQUIRE(static_cast<int>(bits[r].size()) == config_.cols,
                  "pattern column count mismatch");
    for (int c = 0; c < config_.cols; ++c) {
      bool one = bits[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
      const CellFault fault = faultAt(r, c);
      if (fault == CellFault::kStuckAtZero) one = false;
      if (fault == CellFault::kStuckAtOne) one = true;
      cell(r, c).fe->setPolarization(one ? states_.pOn : states_.pOff);
      sim_->setNodeVoltage(netlist_.nodeName(cell(r, c).internalNode),
                           one ? states_.psiOn : states_.psiOff);
    }
  }
  sim_->initializeUic();
}

CellFault MemoryArray::faultAt(int row, int col) const {
  if (cellFaults_.empty()) return CellFault::kNone;
  return cellFaults_[static_cast<std::size_t>(row * config_.cols + col)];
}

bool MemoryArray::enforceFaultState(int revertRow, int revertCol,
                                    double revertP) {
  bool changed = false;
  const auto pin = [&](int r, int c, double p) {
    cell(r, c).fe->setPolarization(p);
    sim_->setNodeVoltage(netlist_.nodeName(cell(r, c).internalNode),
                         p > states_.pSaddle ? states_.psiOn : states_.psiOff);
    changed = true;
  };
  if (revertRow >= 0) pin(revertRow, revertCol, revertP);
  if (injector_.spec().anyCellFaults()) {
    for (int r = 0; r < config_.rows; ++r) {
      for (int c = 0; c < config_.cols; ++c) {
        const CellFault fault = faultAt(r, c);
        const bool one = bitAt(r, c);
        if (fault == CellFault::kStuckAtZero && one) pin(r, c, states_.pOff);
        if (fault == CellFault::kStuckAtOne && !one) pin(r, c, states_.pOn);
      }
    }
  }
  // Re-seeding the solver keeps the aux polarization unknowns and device
  // histories consistent with the overridden committed state; untouched
  // cells keep their exact committed values.
  if (changed) sim_->initializeUic();
  return changed;
}

bool MemoryArray::bitAt(int row, int col) const {
  return cell(row, col).fe->polarization() > states_.pSaddle;
}

std::vector<std::vector<double>> MemoryArray::polarizations() const {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(config_.rows));
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      out[static_cast<std::size_t>(r)].push_back(cell(r, c).fe->polarization());
    }
  }
  return out;
}

void MemoryArray::groundAll() {
  for (auto* s : wsSources_) s->setShape(dc(0.0));
  for (auto* s : rsSources_) s->setShape(dc(0.0));
  for (auto* s : wblSources_) s->setShape(dc(0.0));
  for (auto* s : slSources_) s->setShape(dc(0.0));
}

ArrayOpResult MemoryArray::runOp(double duration, int accessedRow,
                                 int accessedCol, bool isRead) {
  const auto before = polarizations();
  for (auto* s : wsSources_) s->resetEnergy();
  for (auto* s : rsSources_) s->resetEnergy();
  for (auto* s : wblSources_) s->resetEnergy();
  for (auto* s : slSources_) s->resetEnergy();

  spice::TransientOptions options;
  options.duration = duration;
  options.dtMax = duration / 150.0;
  options.dtInitial = std::min(1e-12, options.dtMax);
  auto transient = sim_->runTransient(options, probes_);

  ArrayOpResult result;
  const auto after = polarizations();
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      if (r == accessedRow && c == accessedCol) continue;
      const double dP = std::abs(after[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] -
                                 before[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]);
      result.maxUnaccessedDisturb = std::max(result.maxUnaccessedDisturb, dP);
    }
  }
  // Sneak currents.  During a read the whole accessed row legitimately
  // conducts into its column sense lines (row-parallel read), so sneak
  // paths are currents on UNACCESSED rows' read-select lines; during
  // writes and holds no sense line should carry anything at all.
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    const int row = static_cast<int>(k) - config_.cols;  // < 0: a sense line
    if (isRead && (row < 0 || row == accessedRow)) continue;
    for (double i : transient.waveform.column(probes_[k].label)) {
      result.maxSneakCurrent = std::max(result.maxSneakCurrent, std::abs(i));
    }
  }
  if (isRead && accessedRow >= 0) {
    // Accessed column current plateau (sampled mid-operation); the SL
    // source absorbs the cell current, so negate its delivered current.
    const auto t = transient.waveform.time();
    result.readCurrent = -transient.waveform.valueAt(
        probes_[static_cast<std::size_t>(accessedCol)].label, 0.6 * t.back());
    result.bitRead = result.readCurrent > config_.readCurrentThreshold;
  }
  for (auto* s : wsSources_) result.totalEnergy += s->energyDelivered();
  for (auto* s : rsSources_) result.totalEnergy += s->energyDelivered();
  for (auto* s : wblSources_) result.totalEnergy += s->energyDelivered();
  for (auto* s : slSources_) result.totalEnergy += s->energyDelivered();
  result.waveform = std::move(transient.waveform);
  return result;
}

ArrayOpResult MemoryArray::writeBit(int row, int col, bool one) {
  return writeBit(row, col, one, WriteDrive{});
}

ArrayOpResult MemoryArray::writeBit(int row, int col, bool one,
                                    const WriteDrive& drive) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "writeBit: cell index out of range");
  FEFET_REQUIRE(drive.voltageScale >= 1.0 && drive.pulseScale >= 1.0,
                "write drive scales must be >= 1");
  groundAll();
  const double edge = config_.edgeTime;
  const double width = config_.writePulse * drive.pulseScale;
  const double lead = 2.0 * edge;
  // Table 1 write biases: accessed WS boosted, unaccessed WS at -VDD.
  // The select boost scales with the bit-line drive so the access
  // transistor keeps passing the escalated level.
  for (int r = 0; r < config_.rows; ++r) {
    if (r == row) {
      wsSources_[static_cast<std::size_t>(r)]->setShape(
          pulse(0.0, config_.levels.writeBoost * drive.voltageScale, edge,
                edge, width + 4.0 * edge + 0.8 * config_.settleTime, edge));
    } else if (config_.negativeUnaccessedSelect) {
      wsSources_[static_cast<std::size_t>(r)]->setShape(
          pulse(0.0, -config_.levels.vdd, edge, edge,
                width + 4.0 * edge + 0.8 * config_.settleTime, edge));
    } else {
      wsSources_[static_cast<std::size_t>(r)]->setShape(dc(0.0));
    }
  }
  const double vw = config_.levels.vWrite * drive.voltageScale;
  wblSources_[static_cast<std::size_t>(col)]->setShape(
      pulse(0.0, one ? vw : -vw, lead + edge, edge, width, edge));
  const double duration = lead + width + 6.0 * edge + config_.settleTime;

  const double pBefore = cell(row, col).fe->polarization();
  auto result = runOp(duration, row, col, /*isRead=*/false);

  // Fault events: a transient write failure reverts the accessed cell to
  // its pre-write state; stuck cells are re-pinned regardless.
  int revertRow = -1, revertCol = -1;
  double revertP = 0.0;
  if (injector_.spec().writeFailureProbability > 0.0 &&
      injector_.nextWriteFails(drive.voltageScale)) {
    revertRow = row;
    revertCol = col;
    revertP = pBefore;
    result.faultInjected = true;
  }
  if (enforceFaultState(revertRow, revertCol, revertP) &&
      faultAt(row, col) != CellFault::kNone) {
    result.faultInjected = true;
  }
  result.ok = (bitAt(row, col) == one);
  return result;
}

ArrayOpResult MemoryArray::readBit(int row, int col) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "readBit: cell index out of range");
  groundAll();
  const double edge = config_.edgeTime;
  const double duration = 2e-9;
  // Accessed row: WS = VDD (gate pinned to the grounded WBL), RS = V_read.
  wsSources_[static_cast<std::size_t>(row)]->setShape(
      pulse(0.0, config_.levels.vdd, edge, edge, duration - 6.0 * edge,
            edge));
  rsSources_[static_cast<std::size_t>(row)]->setShape(
      pulse(0.0, config_.levels.vRead, 3.0 * edge, edge,
            duration - 10.0 * edge, edge));
  const bool expected = bitAt(row, col);
  auto result = runOp(duration, row, col, /*isRead=*/true);
  // Non-destructive read can still nudge a stuck cell's committed state in
  // simulation; re-pin so subsequent classification stays faulted.
  enforceFaultState(-1, -1, 0.0);
  result.ok = (result.bitRead == expected) && (bitAt(row, col) == expected);
  return result;
}

ArrayOpResult MemoryArray::hold(double duration) {
  groundAll();
  auto result = runOp(duration, -1, -1, /*isRead=*/false);
  // Retention / depolarization decay: stored polarization relaxes toward
  // the basin boundary, faster for weak cells; stuck cells stay pinned.
  if (injector_.spec().retentionDecayPerSecond > 0.0) {
    for (int r = 0; r < config_.rows; ++r) {
      for (int c = 0; c < config_.cols; ++c) {
        const CellFault fault = faultAt(r, c);
        if (fault == CellFault::kStuckAtZero ||
            fault == CellFault::kStuckAtOne) {
          continue;
        }
        const double factor = injector_.retentionFactor(duration, fault);
        const double p = cell(r, c).fe->polarization();
        cell(r, c).fe->setPolarization(states_.pSaddle +
                                       (p - states_.pSaddle) * factor);
      }
    }
    sim_->initializeUic();
    result.faultInjected = true;
  }
  enforceFaultState(-1, -1, 0.0);
  result.ok = true;
  return result;
}

}  // namespace fefet::core

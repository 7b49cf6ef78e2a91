#include "core/feram_array.h"

#include <string>

#include "common/error.h"
#include "spice/passives.h"

namespace fefet::core {

using spice::Probe;
using spice::shapes::dc;
using spice::shapes::pulse;

FeRamArray::FeRamArray(const FeRamArrayConfig& config) : config_(config) {
  FEFET_REQUIRE(config_.rows >= 1 && config_.cols >= 1,
                "FERAM array needs at least one cell");
  auto& n = netlist_;
  const auto& cc = config_.cell;
  for (int r = 0; r < config_.rows; ++r) {
    const std::string wl = "wl" + std::to_string(r);
    const std::string pl = "pl" + std::to_string(r);
    wlSources_.push_back(
        n.add<spice::VoltageSource>("V" + wl, n.node(wl), n.ground(), dc(0.0)));
    plSources_.push_back(
        n.add<spice::VoltageSource>("V" + pl, n.node(pl), n.ground(), dc(0.0)));
  }
  for (int c = 0; c < config_.cols; ++c) {
    const std::string bl = "bl" + std::to_string(c);
    blSources_.push_back(n.add<spice::VoltageSource>(
        "V" + bl, n.node(bl + "d"), n.ground(), dc(0.0)));
    blSwitches_.push_back(n.add<spice::TimedSwitch>(
        "S" + bl, n.node(bl + "d"), n.node(bl), dc(1.0), 50.0));
    n.add<spice::Capacitor>(
        "C" + bl, n.node(bl), n.ground(),
        cc.bitLineCap + config_.colWireCapPerCell * config_.rows);
  }
  const ferro::LandauKhalatnikov lk(cc.lk);
  const double pr = lk.remnantPolarization();
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      const std::string id =
          "cell" + std::to_string(r) + "_" + std::to_string(c);
      cells_.push_back(attachFeRamCell(
          n, id, "bl" + std::to_string(c), "wl" + std::to_string(r),
          "pl" + std::to_string(r), cc, -pr));
    }
  }
  sim_ = std::make_unique<spice::Simulator>(netlist_);
  sim_->initializeUic();
}

void FeRamArray::setPattern(const std::vector<std::vector<bool>>& bits) {
  FEFET_REQUIRE(static_cast<int>(bits.size()) == config_.rows,
                "pattern row count mismatch");
  const ferro::LandauKhalatnikov lk(config_.cell.lk);
  const double pr = lk.remnantPolarization();
  for (int r = 0; r < config_.rows; ++r) {
    FEFET_REQUIRE(static_cast<int>(bits[r].size()) == config_.cols,
                  "pattern column count mismatch");
    for (int c = 0; c < config_.cols; ++c) {
      cells_[static_cast<std::size_t>(r * config_.cols + c)]->setPolarization(
          bits[r][c] ? pr : -pr);
    }
  }
  sim_->initializeUic();
}

bool FeRamArray::bitAt(int row, int col) const {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "bitAt: cell index out of range");
  return cells_[static_cast<std::size_t>(row * config_.cols + col)]
             ->polarization() > 0.0;
}

void FeRamArray::groundAll() {
  for (auto* s : wlSources_) s->setShape(dc(0.0));
  for (auto* s : plSources_) s->setShape(dc(0.0));
  for (std::size_t c = 0; c < blSources_.size(); ++c) {
    blSources_[c]->setShape(dc(0.0));
    blSwitches_[c]->setControl(dc(1.0));
  }
}

void FeRamArray::resetEnergies() {
  for (auto* s : wlSources_) s->resetEnergy();
  for (auto* s : plSources_) s->resetEnergy();
  for (auto* s : blSources_) s->resetEnergy();
}

double FeRamArray::collectEnergies() const {
  double e = 0.0;
  for (auto* s : wlSources_) e += s->energyDelivered();
  for (auto* s : plSources_) e += s->energyDelivered();
  for (auto* s : blSources_) e += s->energyDelivered();
  return e;
}

FeRamRowResult FeRamArray::driveRow(int row, const std::vector<bool>& bits) {
  const auto& cc = config_.cell;
  const double edge = cc.edgeTime;
  const double phase = 700e-12;  // per-phase drive width
  groundAll();
  resetEnergies();
  // Phase A [lead .. lead+phase]: BL = V for the ones, PL = 0.
  // Phase B [lead+phase+gap ..]: PL = V, BLs of ones held high.
  const double lead = 2.0 * edge;
  const double gap = 4.0 * edge;
  const double wlSpan = lead + 2.0 * phase + gap + 6.0 * edge +
                        0.8 * cc.settleTime;
  wlSources_[static_cast<std::size_t>(row)]->setShape(
      pulse(0.0, cc.wordLineBoost, edge, edge, wlSpan, edge));
  plSources_[static_cast<std::size_t>(row)]->setShape(
      pulse(0.0, cc.vWrite, lead + phase + gap, edge, phase, edge));
  for (int c = 0; c < config_.cols; ++c) {
    if (bits[static_cast<std::size_t>(c)]) {
      blSources_[static_cast<std::size_t>(c)]->setShape(
          pulse(0.0, cc.vWrite, lead, edge, 2.0 * phase + gap, edge));
    }
  }
  spice::TransientOptions options;
  options.duration = wlSpan + 4.0 * edge + cc.settleTime;
  options.dtMax = options.duration / 200.0;
  sim_->runTransient(options, {});

  FeRamRowResult result;
  result.totalEnergy = collectEnergies();
  result.ok = true;
  for (int c = 0; c < config_.cols; ++c) {
    if (bitAt(row, c) != bits[static_cast<std::size_t>(c)]) result.ok = false;
  }
  return result;
}

FeRamRowResult FeRamArray::writeRow(int row,
                                    const std::vector<bool>& bits) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows, "writeRow: row out of range");
  FEFET_REQUIRE(static_cast<int>(bits.size()) == config_.cols,
                "writeRow: bit count mismatch");
  return driveRow(row, bits);
}

FeRamRowResult FeRamArray::readRow(int row) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows, "readRow: row out of range");
  const auto& cc = config_.cell;
  groundAll();
  resetEnergies();
  // Sense phase: BLs float, WL on, row plate pulses.
  const FeRamReadPulses pulses{cc.edgeTime, cc.settleTime};
  for (auto* sw : blSwitches_) sw->setControl(pulses.bitLineConnect());
  wlSources_[static_cast<std::size_t>(row)]->setShape(
      pulses.wordLine(cc.wordLineBoost));
  plSources_[static_cast<std::size_t>(row)]->setShape(
      pulses.plate(cc.vWrite));

  std::vector<Probe> probes;
  for (int c = 0; c < config_.cols; ++c) {
    probes.push_back(Probe::v("bl" + std::to_string(c)));
  }
  spice::TransientOptions options;
  options.duration = pulses.duration();
  options.dtMax = options.duration / 300.0;
  const auto tr = sim_->runTransient(options, probes);

  FeRamRowResult result;
  result.totalEnergy = collectEnergies();
  result.bitsRead.resize(static_cast<std::size_t>(config_.cols));
  for (int c = 0; c < config_.cols; ++c) {
    const double swing =
        tr.waveform.valueAt("v(bl" + std::to_string(c) + ")",
                            pulses.senseAt());
    result.bitsRead[static_cast<std::size_t>(c)] =
        swing > cc.senseThreshold;
  }
  // Write-back the sensed data (the read flipped every stored '1').
  const auto restore = driveRow(row, result.bitsRead);
  result.totalEnergy += restore.totalEnergy;
  result.ok = restore.ok;
  return result;
}

FeRamRowResult FeRamArray::updateBit(int row, int col, bool value) {
  FEFET_REQUIRE(col >= 0 && col < config_.cols, "updateBit: col out of range");
  // Row-granular RMW: destructive read (with restore energy folded in),
  // then rewrite the row with the one bit changed.
  auto read = readRow(row);
  if (!read.ok) return read;
  read.bitsRead[static_cast<std::size_t>(col)] = value;
  const auto write = writeRow(row, read.bitsRead);
  FeRamRowResult result;
  result.ok = write.ok;
  result.bitsRead = read.bitsRead;
  result.totalEnergy = read.totalEnergy + write.totalEnergy;
  return result;
}

}  // namespace fefet::core

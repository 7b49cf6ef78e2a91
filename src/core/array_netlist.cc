#include "core/array_netlist.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "spice/passives.h"

namespace fefet::core {

using spice::Probe;
using spice::shapes::dc;

std::string emitArrayDeck(const ArrayNetlistConfig& config) {
  FEFET_REQUIRE(config.rows >= 1 && config.cols >= 1,
                "emitArrayDeck: array needs at least one cell");
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  std::ostringstream deck;
  deck << "* " << config.rows << "x" << config.cols
       << " FEFET 2T array (paper Fig. 7 line organization)\n";
  deck << ".subckt cell2t wbl ws rs sl\n";
  deck << "Macc wbl ws fg nmos w=" << num(config.accessWidth)
       << " l=" << num(config.accessMos.length)
       << " vt=" << num(config.accessMos.vt0) << "\n";
  deck << "Xfe fg int fecap t=" << num(config.fefet.feThickness)
       << " w=" << num(config.fefet.width)
       << " l=" << num(config.fefet.mos.length)
       << " rho=" << num(config.fefet.lk.rho) << "\n";
  // COV=0: the internal MFMIS gate carries no explicit overlap parasitics
  // (see attachFefet).
  deck << "Mfet rs int sl nmos w=" << num(config.fefet.width)
       << " l=" << num(config.fefet.mos.length)
       << " vt=" << num(config.fefet.mos.vt0) << " cov=0\n";
  deck << ".ends\n";
  const double rowCap = config.rowWireCapPerCell * config.cols;
  const double colCap = config.colWireCapPerCell * config.rows;
  for (int r = 0; r < config.rows; ++r) {
    deck << "Vws" << r << " ws" << r << " 0 DC 0\n";
    deck << "Vrs" << r << " rs" << r << " 0 DC 0\n";
    deck << "Cws" << r << " ws" << r << " 0 " << num(rowCap) << "\n";
    deck << "Crs" << r << " rs" << r << " 0 " << num(rowCap) << "\n";
  }
  for (int c = 0; c < config.cols; ++c) {
    deck << "Vwbl" << c << " wbl" << c << " 0 DC 0\n";
    deck << "Vsl" << c << " sl" << c << " 0 DC 0\n";
    deck << "Cwbl" << c << " wbl" << c << " 0 " << num(colCap) << "\n";
    deck << "Csl" << c << " sl" << c << " 0 " << num(colCap) << "\n";
  }
  for (int r = 0; r < config.rows; ++r) {
    for (int c = 0; c < config.cols; ++c) {
      deck << "Xc" << r << "_" << c << " wbl" << c << " ws" << r << " rs"
           << r << " sl" << c << " cell2t\n";
    }
  }
  deck << ".end\n";
  return deck.str();
}

ArrayNetlist::ArrayNetlist(const ArrayNetlistConfig& config)
    : config_(config) {
  FEFET_REQUIRE(config_.rows >= 1 && config_.cols >= 1,
                "ArrayNetlist: array needs at least one cell");
  states_ = bistableStates(config_.fefet);

  // Each line pair (WS/RS per row, WBL/SL per column): the two drivers,
  // then their wire caps, in the order emitArrayDeck writes them.
  auto& n = netlist_;
  const auto addLines = [&](const std::string& a, const std::string& b,
                            double cap,
                            std::vector<spice::VoltageSource*>& aSources,
                            std::vector<spice::VoltageSource*>& bSources) {
    aSources.push_back(n.add<spice::VoltageSource>("V" + a, n.node(a),
                                                   n.ground(), dc(0.0)));
    bSources.push_back(n.add<spice::VoltageSource>("V" + b, n.node(b),
                                                   n.ground(), dc(0.0)));
    n.add<spice::Capacitor>("C" + a, n.node(a), n.ground(), cap);
    n.add<spice::Capacitor>("C" + b, n.node(b), n.ground(), cap);
  };
  for (int r = 0; r < config_.rows; ++r) {
    addLines("ws" + std::to_string(r), "rs" + std::to_string(r),
             config_.rowWireCapPerCell * config_.cols, wsSources_,
             rsSources_);
  }
  for (int c = 0; c < config_.cols; ++c) {
    const std::string wbl = "wbl" + std::to_string(c);
    const std::string sl = "sl" + std::to_string(c);
    addLines(wbl, sl, config_.colWireCapPerCell * config_.rows, wblSources_,
             slSources_);
    // Shared column lines become the BBD border; freeze() then partitions
    // the interior into one block per word-line row.
    n.markBorderNode(wbl);
    n.markBorderNode(sl);
    probes_.push_back(Probe::i("Vsl" + std::to_string(c)));
  }
  for (int r = 0; r < config_.rows; ++r) {
    probes_.push_back(Probe::i("Vrs" + std::to_string(r)));
  }
  for (const auto* lines : {&wsSources_, &rsSources_, &wblSources_,
                            &slSources_}) {
    drivers_.insert(drivers_.end(), lines->begin(), lines->end());
  }
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      const std::string cell =
          "cell" + std::to_string(r) + "_" + std::to_string(c);
      cells_.push_back(attachCell2T(
          n, cell, cell + ":g", "wbl" + std::to_string(c),
          "ws" + std::to_string(r), "rs" + std::to_string(r),
          "sl" + std::to_string(c), config_.fefet, config_.accessMos,
          config_.accessWidth));
    }
  }

  sim_ = std::make_unique<spice::Simulator>(netlist_, config_.newton);
  std::vector<std::vector<bool>> zeros(
      static_cast<std::size_t>(config_.rows),
      std::vector<bool>(static_cast<std::size_t>(config_.cols), false));
  setPattern(zeros);
}

void ArrayNetlist::setPattern(const std::vector<std::vector<bool>>& bits) {
  FEFET_REQUIRE(static_cast<int>(bits.size()) == config_.rows,
                "pattern row count mismatch");
  for (int r = 0; r < config_.rows; ++r) {
    FEFET_REQUIRE(static_cast<int>(bits[static_cast<std::size_t>(r)].size()) ==
                      config_.cols,
                  "pattern column count mismatch");
    for (int c = 0; c < config_.cols; ++c) {
      const bool one =
          bits[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
      const FefetInstance& cell = this->cell(r, c);
      cell.fe->setPolarization(one ? states_.pOn : states_.pOff);
      sim_->setNodeVoltage(netlist_.nodeName(cell.internalNode),
                           one ? states_.psiOn : states_.psiOff);
    }
  }
  sim_->initializeUic();
}

bool ArrayNetlist::bitAt(int row, int col) const {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "bitAt: cell index out of range");
  return cell(row, col).polarization() > states_.pSaddle;
}

std::vector<std::vector<double>> ArrayNetlist::polarizations() const {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(config_.rows));
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      out[static_cast<std::size_t>(r)].push_back(cell(r, c).polarization());
    }
  }
  return out;
}

void ArrayNetlist::groundAll() {
  for (auto* s : drivers_) s->setShape(dc(0.0));
}

ArrayNetOpResult ArrayNetlist::runOp(double duration, int accessedRow,
                                     int accessedCol, bool isRead) {
  std::vector<double> before;
  for (const auto& cell : cells_) before.push_back(cell.polarization());
  for (auto* s : drivers_) s->resetEnergy();

  spice::TransientOptions options;
  options.duration = duration;
  options.dtMax = duration / 150.0;
  auto transient = sim_->runTransient(options, probes_);

  ArrayNetOpResult result;
  const int accessed = accessedRow * config_.cols + accessedCol;
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    if (static_cast<int>(k) == accessed) continue;
    result.maxUnaccessedDisturb =
        std::max(result.maxUnaccessedDisturb,
                 std::abs(cells_[k].polarization() - before[k]));
  }
  // Sneak paths: during a read the whole accessed row legitimately
  // conducts into its column sense lines (row-parallel read), so sneak
  // currents are those on UNACCESSED rows' read-select lines; during
  // writes and holds no sense line should carry anything at all.
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    const int row = static_cast<int>(k) - config_.cols;  // < 0: a sense line
    if (isRead && (row < 0 || row == accessedRow)) continue;
    for (double i : transient.waveform.column(probes_[k].label)) {
      result.maxSneakCurrent = std::max(result.maxSneakCurrent, std::abs(i));
    }
  }
  if (isRead && accessedRow >= 0) {
    const auto t = transient.waveform.time();
    result.readCurrent = -transient.waveform.valueAt(
        probes_[static_cast<std::size_t>(accessedCol)].label, 0.6 * t.back());
    result.bitRead = result.readCurrent > config_.readCurrentThreshold;
  }
  for (auto* s : drivers_) result.totalEnergy += s->energyDelivered();
  result.waveform = std::move(transient.waveform);
  return result;
}

ArrayNetOpResult ArrayNetlist::writeBit(int row, int col, bool one) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "writeBit: cell index out of range");
  groundAll();
  const WritePulses pulses{config_.writePulse, config_.edgeTime,
                           config_.settleTime};
  // Table 1 write biases: accessed WS boosted, unaccessed WS at -VDD.
  for (int r = 0; r < config_.rows; ++r) {
    auto* ws = wsSources_[static_cast<std::size_t>(r)];
    if (r == row) {
      ws->setShape(pulses.select(config_.levels.writeBoost));
    } else if (config_.negativeUnaccessedSelect) {
      ws->setShape(pulses.select(-config_.levels.vdd));
    } else {
      ws->setShape(dc(0.0));
    }
  }
  const double vw = config_.levels.vWrite;
  wblSources_[static_cast<std::size_t>(col)]->setShape(
      pulses.bitLine(one ? vw : -vw));
  auto result = runOp(pulses.duration(), row, col, /*isRead=*/false);
  result.ok = (bitAt(row, col) == one);
  return result;
}

ArrayNetOpResult ArrayNetlist::readBit(int row, int col) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "readBit: cell index out of range");
  groundAll();
  const ReadPulses pulses{2e-9, config_.edgeTime};
  // Accessed row: WS = VDD (gate pinned to the grounded WBL), RS = V_read.
  wsSources_[static_cast<std::size_t>(row)]->setShape(
      pulses.select(config_.levels.vdd));
  rsSources_[static_cast<std::size_t>(row)]->setShape(
      pulses.readSelect(config_.levels.vRead));
  const bool expected = bitAt(row, col);
  auto result = runOp(pulses.duration, row, col, /*isRead=*/true);
  result.ok = (result.bitRead == expected) && (bitAt(row, col) == expected);
  return result;
}

ArrayNetOpResult ArrayNetlist::hold(double duration) {
  groundAll();
  auto result = runOp(duration, -1, -1, /*isRead=*/false);
  result.ok = true;
  return result;
}

}  // namespace fefet::core

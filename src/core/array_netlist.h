// array_netlist.h — an R x C array of 2T FEFET cells with the paper's line
// organization (Fig. 7) and bias scheme (Table 1).
//
// Per row:    write-select (WS) and read-select (RS) lines.
// Per column: write bit line (WBL) and sense line (SL).
// The RS line doubles as the read supply; SL is held at virtual ground by
// the sensing scheme (an ideal 0 V source whose current is the column read
// current).  All four line sets carry lumped wire capacitance derived from
// the cell pitch and the paper's 0.2 fF/um metal.
//
// Each cell is built by attachCell2T, the builder Cell2T and
// SenseAmpCircuit use: an access NMOS (drain = WBL, gate = WS, source =
// floating gate), the FE capacitor from the floating gate to the internal
// node, and the FEFET read transistor (drain = RS, gate = internal, source
// = SL) with zero overlap capacitance (see attachFefet's MFMIS rationale).
// Any FefetParams and access-MOS parameters flow into the cells.  The
// shared column lines (WBL, SL) are marked as border nodes so
// Netlist::freeze() builds the bordered-block-diagonal partition
// (spice/partition.h): one diagonal block per word-line row, ready for the
// hierarchical Schur solver (off unless NewtonOptions::useHierarchicalSolve
// is set).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bias_scheme.h"
#include "core/fefet.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

struct ArrayNetlistConfig {
  int rows = 4;
  int cols = 4;
  FefetParams fefet;  ///< every cell's FEFET
  xtor::MosParams accessMos = xtor::nmos45();
  double accessWidth = 65e-9;
  BiasLevels levels;
  /// Lumped wire capacitance added per cell on each horizontal line (WS,
  /// RS) and vertical line (WBL, SL).  Defaults: 0.2 fF/um metal times a
  /// ~0.35 um cell pitch.
  double rowWireCapPerCell = 0.07e-15;
  double colWireCapPerCell = 0.06e-15;
  double edgeTime = 20e-12;
  double settleTime = 150e-12;
  double writePulse = 700e-12;         ///< write pulse width
  double readCurrentThreshold = 1e-6;  ///< '1' classification level [A]
  /// Table 1 drives unaccessed write-select lines to -VDD during writes.
  /// Setting this false grounds them instead — the ablation knob that
  /// demonstrates why the paper's scheme needs the negative level.
  bool negativeUnaccessedSelect = true;
  /// Solver configuration; set newton.useHierarchicalSolve for the
  /// BBD/Schur engine (the flat sparse LU otherwise).
  spice::NewtonOptions newton;
};

/// Outcome of one array operation, including disturb bookkeeping.
struct ArrayNetOpResult {
  bool ok = false;
  bool bitRead = false;
  double readCurrent = 0.0;           ///< accessed column current [A]
  double maxUnaccessedDisturb = 0.0;  ///< max |dP| on any unaccessed cell
  double maxSneakCurrent = 0.0;       ///< peak |I| on unaccessed SLs/RSs [A]
  double totalEnergy = 0.0;           ///< all line drivers [J]
  spice::Waveform waveform;
};

/// The array as a SPICE deck: a `.subckt cell2t` definition plus the R x C
/// instance grid, in ArrayNetlist's device order.  Its cards carry only the
/// FEFET's width, length, V_T, T_FE and rho and the access MOS's length and
/// V_T, so it describes the array only for configs that leave every other
/// field at its default.  A deck-parser fixture; ArrayNetlist does not use it.
std::string emitArrayDeck(const ArrayNetlistConfig& config);

class ArrayNetlist {
 public:
  explicit ArrayNetlist(const ArrayNetlistConfig& config);

  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }
  const ArrayNetlistConfig& config() const { return config_; }

  spice::Netlist& netlist() { return netlist_; }
  spice::Simulator& simulator() { return *sim_; }

  /// Quasi-static state targets (bistableStates of the cell's FEFET).
  double pOn() const { return states_.pOn; }
  double pOff() const { return states_.pOff; }
  double pSaddle() const { return states_.pSaddle; }

  void setPattern(const std::vector<std::vector<bool>>& bits);
  bool bitAt(int row, int col) const;
  std::vector<std::vector<double>> polarizations() const;

  ArrayNetOpResult writeBit(int row, int col, bool one);
  ArrayNetOpResult readBit(int row, int col);
  ArrayNetOpResult hold(double duration);

 private:
  ArrayNetOpResult runOp(double duration, int accessedRow, int accessedCol,
                         bool isRead);
  void groundAll();
  const FefetInstance& cell(int row, int col) const {
    return cells_[static_cast<std::size_t>(row * config_.cols + col)];
  }

  ArrayNetlistConfig config_;
  spice::Netlist netlist_;
  std::vector<spice::VoltageSource*> wsSources_, rsSources_;
  std::vector<spice::VoltageSource*> wblSources_, slSources_;
  std::vector<spice::VoltageSource*> drivers_;  // all of the above, in order
  std::vector<FefetInstance> cells_;  // row-major
  /// Recorded by every op: i(Vsl<c>) per column, then i(Vrs<r>) per row.
  std::vector<spice::Probe> probes_;
  std::unique_ptr<spice::Simulator> sim_;
  BistableStates states_;
};

}  // namespace fefet::core

// memory_array.h — an RxC array of 2T FEFET cells with the paper's line
// organization (Fig. 7) and bias scheme (Table 1).
//
// Per row:    write-select (WS) and read-select (RS) lines.
// Per column: write bit line (WBL) and sense line (SL).
// The RS line doubles as the read supply; SL is held at virtual ground by
// the sensing scheme (modeled here as an ideal 0 V source whose current is
// the column read current).  All four line sets carry lumped wire
// capacitance derived from the cell pitch and the paper's 0.2 fF/um metal.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bias_scheme.h"
#include "core/cell2t.h"
#include "core/fault_model.h"
#include "core/fefet.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

struct ArrayConfig {
  int rows = 2;
  int cols = 3;
  FefetParams fefet;
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
  double writePulse = 700e-12;   ///< default write pulse width
  double readCurrentThreshold = 1e-6;  ///< '1' classification level [A]
  /// Table 1 drives unaccessed write-select lines to -VDD during writes.
  /// Setting this false grounds them instead — the ablation knob that
  /// demonstrates why the paper's scheme needs the negative level.
  bool negativeUnaccessedSelect = true;
  /// Injected cell faults (all-zero rates = pristine array).
  FaultSpec faults;
};

/// Write-drive override for verify–retry escalation (paper Fig. 10: a
/// failed write succeeds at higher voltage or longer pulse).
struct WriteDrive {
  double voltageScale = 1.0;  ///< scales V_write and the select boost
  double pulseScale = 1.0;    ///< scales the write pulse width
};

/// Outcome of one array operation, including disturb bookkeeping.
struct ArrayOpResult {
  spice::Waveform waveform;        ///< line currents over the operation
  bool ok = false;                 ///< intended effect achieved
  bool bitRead = false;            ///< sensed value (reads)
  double readCurrent = 0.0;        ///< accessed column current [A]
  double maxUnaccessedDisturb = 0.0;  ///< max |dP| on any unaccessed cell
  double maxSneakCurrent = 0.0;    ///< peak |I| on unaccessed SLs/RSs [A]
  double totalEnergy = 0.0;        ///< all line drivers [J]
  bool faultInjected = false;      ///< a fault event altered this op
};

class MemoryArray {
 public:
  explicit MemoryArray(const ArrayConfig& config);

  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }

  /// Directly set every cell's stored state (row-major pattern).
  void setPattern(const std::vector<std::vector<bool>>& bits);
  /// Stored bit of one cell (classified from committed polarization).
  bool bitAt(int row, int col) const;
  /// Committed polarization map.
  std::vector<std::vector<double>> polarizations() const;

  /// Write one bit using the Table 1 bias conditions.
  ArrayOpResult writeBit(int row, int col, bool one);
  /// Write with escalated drive (verify–retry path).
  ArrayOpResult writeBit(int row, int col, bool one, const WriteDrive& drive);
  /// Read one bit (current sensing on the accessed column, virtual-ground
  /// sense lines everywhere).
  ArrayOpResult readBit(int row, int col);
  /// Hold with all lines grounded.  With retention decay configured the
  /// stored polarizations relax toward the basin boundary.
  ArrayOpResult hold(double duration);

  /// Injected fault class of one cell.
  CellFault faultAt(int row, int col) const;
  FaultInjector& faultInjector() { return injector_; }

  const ArrayConfig& config() const { return config_; }

 private:
  struct Lines {
    spice::VoltageSource* ws;
    spice::VoltageSource* rs;
    spice::VoltageSource* wbl;
    spice::VoltageSource* sl;
  };

  ArrayOpResult runOp(double duration, int accessedRow, int accessedCol,
                      bool isRead);
  void groundAll();
  /// Re-pin stuck cells (and optionally revert one cell) in the committed
  /// state, then re-seed the solver so the next op starts consistent.
  /// Returns true when any state was overridden.
  bool enforceFaultState(int revertRow, int revertCol, double revertP);
  FefetInstance& cell(int row, int col) {
    return cells_[static_cast<std::size_t>(row * config_.cols + col)];
  }
  const FefetInstance& cell(int row, int col) const {
    return cells_[static_cast<std::size_t>(row * config_.cols + col)];
  }

  ArrayConfig config_;
  FaultInjector injector_;
  std::vector<CellFault> cellFaults_;  // row-major
  spice::Netlist netlist_;
  std::vector<FefetInstance> cells_;  // row-major
  std::vector<spice::VoltageSource*> wsSources_, rsSources_;
  std::vector<spice::VoltageSource*> wblSources_, slSources_;
  /// Recorded by every op: i(Vsl<c>) per column, then i(Vrs<r>) per row.
  std::vector<spice::Probe> probes_;
  std::unique_ptr<spice::Simulator> sim_;
  BistableStates states_;
};

}  // namespace fefet::core

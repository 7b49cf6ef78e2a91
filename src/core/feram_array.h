// feram_array.h — an RxC 1T-1C FERAM array (paper Fig. 9 scaled up).
//
// Word and plate lines are shared per ROW, so asserting a word line
// exposes every cell in the row and the plate pulse drives them all:
// FERAM is intrinsically row-at-a-time.  Updating a single bit therefore
// costs a destructive read of the whole row followed by a full row
// write-back — which is exactly the access-granularity disadvantage the
// paper contrasts with its bit-addressable FEFET array ("this work
// supports bit-level access").  bench_granularity quantifies it.
#pragma once

#include <memory>
#include <vector>

#include "core/feram_cell.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

struct FeRamArrayConfig {
  int rows = 2;
  int cols = 3;
  FeRamConfig cell;  ///< material/geometry/drive levels per cell
  double colWireCapPerCell = 0.06e-15;  ///< BL loading per attached row
};

struct FeRamRowResult {
  bool ok = false;
  std::vector<bool> bitsRead;   ///< sensed data (reads)
  double totalEnergy = 0.0;     ///< all line drivers [J]
};

class FeRamArray {
 public:
  explicit FeRamArray(const FeRamArrayConfig& config);

  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }

  void setPattern(const std::vector<std::vector<bool>>& bits);
  bool bitAt(int row, int col) const;

  /// Write a full row (two plate phases: BL-high writes the ones, then the
  /// row plate pulse writes the zeros).
  FeRamRowResult writeRow(int row, const std::vector<bool>& bits);

  /// Destructive read of a full row followed by automatic write-back.
  FeRamRowResult readRow(int row);

  /// Update one bit: the row-granular read-modify-write sequence.
  FeRamRowResult updateBit(int row, int col, bool value);

  const FeRamArrayConfig& config() const { return config_; }

 private:
  FeRamRowResult driveRow(int row, const std::vector<bool>& bits);
  void groundAll();
  void resetEnergies();
  double collectEnergies() const;

  FeRamArrayConfig config_;
  spice::Netlist netlist_;
  std::vector<spice::VoltageSource*> wlSources_, plSources_;
  std::vector<spice::VoltageSource*> blSources_;
  std::vector<spice::TimedSwitch*> blSwitches_;
  std::vector<spice::FeCapDevice*> cells_;  // row-major
  std::unique_ptr<spice::Simulator> sim_;
};

}  // namespace fefet::core

// bias_scheme.h — the array bias conditions of paper Table 1.
#pragma once

#include <string>
#include <vector>

#include "spice/sources.h"

namespace fefet::core {

enum class ArrayOp { kWrite, kRead, kHold };
enum class RowKind { kAccessed, kUnaccessed };

/// Line voltages for one (operation, row kind) combination.  For writes the
/// bit line carries +V_write for a '1' and -V_write for a '0'; `bitLine`
/// here stores the magnitude with the sign applied by the caller.
struct BiasCondition {
  double readSelect = 0.0;
  double writeSelect = 0.0;
  double bitLine = 0.0;
  double senseLine = 0.0;
};

/// Supply levels the scheme is built from.
struct BiasLevels {
  double vdd = 0.68;          ///< V_DD
  double vWrite = 0.68;       ///< write bit-line magnitude
  double vRead = 0.40;        ///< read-select (drain) level
  double writeBoost = 1.36;   ///< boosted write-select level (2x V_DD)
};

/// Paper Table 1 (with the select-line boost of §4.1 made explicit).
BiasCondition biasFor(ArrayOp op, RowKind row, const BiasLevels& levels,
                      bool writeOne = true);

/// Pretty table of all conditions (used by the Table 1 bench).
std::string describeBiasTable(const BiasLevels& levels);

/// Table 1 write timing, shared by Cell2T and ArrayNetlist: WS rises one
/// edge in, the WBL pulse starts two edges later, and WS stays up across
/// it and 0.8 of the settle window, so the gate is held at 0 V while P
/// settles into its basin (write recovery; a floating gate would freeze P
/// mid-flight).
struct WritePulses {
  double width, edge, settle;  ///< WBL pulse, source edges, settling [s]

  /// WS at `level`: the boost on the accessed row, -VDD on the others.
  spice::Shape select(double level) const {
    return spice::shapes::pulse(0.0, level, edge, edge,
                                width + 4.0 * edge + 0.8 * settle, edge);
  }
  /// WBL at `level`: +V_write for a '1', -V_write for a '0'.
  spice::Shape bitLine(double level) const {
    return spice::shapes::pulse(0.0, level, 2.0 * edge + edge, edge, width,
                                edge);
  }
  double duration() const { return 2.0 * edge + width + 6.0 * edge + settle; }
};

/// Table 1 read timing, shared by Cell2T and ArrayNetlist: WS = VDD with
/// WBL grounded pins the FEFET gate to 0 V, and RS = V_read rises two
/// edges after WS and falls two edges before it.
struct ReadPulses {
  double duration, edge;  ///< read window, source edges [s]

  spice::Shape select(double vdd) const {
    return spice::shapes::pulse(0.0, vdd, edge, edge, duration - 6.0 * edge,
                                edge);
  }
  spice::Shape readSelect(double vRead) const {
    return spice::shapes::pulse(0.0, vRead, 3.0 * edge, edge,
                                duration - 10.0 * edge, edge);
  }
};

}  // namespace fefet::core

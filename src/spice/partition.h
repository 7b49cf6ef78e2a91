// partition.h — bordered-block-diagonal row partition of a frozen netlist.
//
// Built at Netlist::freeze() when border nodes were marked (markBorderNode).
// The border starts from the marked nodes' rows; any auxiliary row whose
// union-pattern entries couple it (in either direction) to a border unknown
// is promoted to the border as well, iterated to a fixpoint — a voltage
// source driving a shared line has its branch-current row tied to that
// line, and leaving it interior would strand it as a structurally singular
// 1x1 block.  The diagonal blocks are then the connected components of the
// union sparsity graph with the border rows removed: for an N x M memory
// array with the bit/source lines marked, that is one block per word-line
// row of the array.  Rows within a block keep their discovery order; the
// block factorizers choose their own elimination order.
#pragma once

#include <vector>

#include "common/schur.h"

namespace fefet::spice {

class StampPattern;

class BbdPartition {
 public:
  /// `borderSeeds` are global unknown rows (node rows of the marked
  /// border nodes).  Throws InvalidArgumentError on out-of-range seeds.
  BbdPartition(const StampPattern& pattern, std::vector<int> borderSeeds);

  const linalg::SchurPartition& schurPartition() const { return partition_; }
  int blockCount() const { return static_cast<int>(partition_.blocks.size()); }
  int borderSize() const {
    return static_cast<int>(partition_.borderRows.size());
  }
  int maxBlockRows() const { return maxBlockRows_; }

  /// True when the partition actually decomposes the system (at least two
  /// diagonal blocks); a single-block partition is a flat solve with extra
  /// steps and callers should fall back to the flat engines.
  bool useful() const { return blockCount() >= 2; }

 private:
  linalg::SchurPartition partition_;
  int maxBlockRows_ = 0;
};

}  // namespace fefet::spice

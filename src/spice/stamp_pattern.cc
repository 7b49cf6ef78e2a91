#include "spice/stamp_pattern.h"

#include <algorithm>

#include "common/error.h"

namespace fefet::spice {

StampPattern::StampPattern(std::vector<std::vector<std::size_t>> rowCols,
                           int nodeCount)
    : nodeCount_(nodeCount) {
  const std::size_t unknowns = rowCols.size();
  FEFET_REQUIRE(nodeCount >= 0 &&
                    static_cast<std::size_t>(nodeCount) <= unknowns,
                "StampPattern: inconsistent unknown/node counts");
  for (int row = 0; row < nodeCount; ++row) {
    rowCols[static_cast<std::size_t>(row)].push_back(
        static_cast<std::size_t>(row));
  }
  // Sorted-unique per row gives the CSR layout.
  rowPtr_.assign(unknowns + 1, 0);
  for (std::size_t r = 0; r < unknowns; ++r) {
    auto& cols = rowCols[r];
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    colIdx_.insert(colIdx_.end(), cols.begin(), cols.end());
    rowPtr_[r + 1] = colIdx_.size();
  }

  nodeDiagonals_.resize(static_cast<std::size_t>(nodeCount));
  for (int row = 0; row < nodeCount; ++row) {
    nodeDiagonals_[static_cast<std::size_t>(row)] = csrIndex(row, row);
  }
}

std::size_t StampPattern::csrIndex(int row, int col) const {
  if (row < 0 || col < 0) return npos;
  const std::size_t r = static_cast<std::size_t>(row);
  const std::size_t c = static_cast<std::size_t>(col);
  const auto begin = colIdx_.begin() + static_cast<std::ptrdiff_t>(rowPtr_[r]);
  const auto end = colIdx_.begin() + static_cast<std::ptrdiff_t>(rowPtr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return npos;
  return static_cast<std::size_t>(it - colIdx_.begin());
}

}  // namespace fefet::spice

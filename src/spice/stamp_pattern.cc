#include "spice/stamp_pattern.h"

#include <algorithm>

#include "common/error.h"

namespace fefet::spice {

namespace {

/// Stamper that records call positions and discards values.
class RecordingStamper final : public Stamper {
 public:
  explicit RecordingStamper(std::vector<StampEntry>& calls) : calls_(calls) {}

  void addResidual(int, double) override {}
  void addJacobian(int row, int col, double) override {
    calls_.push_back({row, col});
  }

 private:
  std::vector<StampEntry>& calls_;
};

}  // namespace

StampPattern::StampPattern(
    const std::vector<std::unique_ptr<Device>>& devices, int unknowns,
    int nodeCount)
    : unknowns_(unknowns), nodeCount_(nodeCount), deviceCount_(devices.size()) {
  FEFET_REQUIRE(unknowns >= nodeCount && nodeCount >= 0,
                "StampPattern: inconsistent unknown/node counts");

  // Evaluation point for the recording pass: the seeded initial iterate
  // (devices with aux unknowns, e.g. the FeCap polarization, expect a
  // sensible value there) and a representative small dt so transient
  // companion terms are live.  Call *positions* must not depend on the
  // iterate — only values do — so any point works; this one avoids
  // evaluating models at garbage inputs.
  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.0);
  for (const auto& device : devices) device->seedUnknowns(x);
  const SystemView view(x, nodeCount);
  constexpr double kRecordDt = 1e-12;

  for (int m = 0; m < kStampModeCount; ++m) {
    const StampMode mode = static_cast<StampMode>(m);
    const bool dc = mode == StampMode::kDc;
    RecordingStamper recorder(calls_[m]);
    EvalContext ctx{view,          dc,      /*time=*/0.0,
                    dc ? 0.0 : kRecordDt,   IntegrationMethod::kTrapezoidal,
                    /*gmin=*/0.0,  nullptr, &recorder};
    deviceEnds_[m].reserve(devices.size());
    for (const auto& device : devices) {
      device->stamp(ctx);
      deviceEnds_[m].push_back(calls_[m].size());
    }
  }

  // Union sparsity: all recorded non-ground entries plus the node-row
  // diagonals (gmin).  Sorted-unique per row gives the CSR layout.
  std::vector<std::vector<std::size_t>> cols(
      static_cast<std::size_t>(unknowns));
  for (int row = 0; row < nodeCount; ++row) {
    cols[static_cast<std::size_t>(row)].push_back(
        static_cast<std::size_t>(row));
  }
  for (const auto& calls : calls_) {
    for (const StampEntry& e : calls) {
      if (e.row < 0 || e.col < 0) continue;
      FEFET_REQUIRE(e.row < unknowns && e.col < unknowns,
                    "StampPattern: device stamped outside the system");
      cols[static_cast<std::size_t>(e.row)].push_back(
          static_cast<std::size_t>(e.col));
    }
  }
  rowPtr_.assign(static_cast<std::size_t>(unknowns) + 1, 0);
  for (std::size_t r = 0; r < cols.size(); ++r) {
    auto& rowCols = cols[r];
    std::sort(rowCols.begin(), rowCols.end());
    rowCols.erase(std::unique(rowCols.begin(), rowCols.end()), rowCols.end());
    colIdx_.insert(colIdx_.end(), rowCols.begin(), rowCols.end());
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

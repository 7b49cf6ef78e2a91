#include "spice/waveform.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"
#include "common/math.h"
#include "common/strings.h"

namespace fefet::spice {

void Waveform::addColumn(const std::string& name) {
  FEFET_REQUIRE(index_.find(name) == index_.end(),
                "duplicate waveform column: " + name);
  FEFET_REQUIRE(time_.empty(), "cannot add columns after sampling started");
  index_[name] = names_.size();
  names_.push_back(name);
  columns_.emplace_back();
}

void Waveform::reserve(std::size_t samples) {
  time_.reserve(samples);
  for (auto& column : columns_) column.reserve(samples);
}

void Waveform::appendSample(double time, const std::vector<double>& values) {
  FEFET_REQUIRE(values.size() == names_.size(),
                "waveform sample arity mismatch");
  time_.push_back(time);
  for (std::size_t i = 0; i < values.size(); ++i) {
    columns_[i].push_back(values[i]);
  }
}

std::span<const double> Waveform::column(const std::string& name) const {
  const auto it = index_.find(name);
  FEFET_REQUIRE(it != index_.end(), "no such waveform column: " + name);
  return columns_[it->second];
}

std::vector<std::string> Waveform::columnNames() const { return names_; }

std::span<const double> Waveform::nonEmptyColumn(const std::string& name)
    const {
  const auto col = column(name);
  // col.back()/front() on an empty column is UB; this happens when a probe
  // is evaluated before any accepted timestep (e.g. a transient aborted on
  // its first step), so fail with the diagnosis instead.
  FEFET_REQUIRE(!col.empty(),
                "waveform column '" + name +
                    "' has no samples (probe evaluated before any accepted "
                    "timestep?)");
  return col;
}

double Waveform::finalValue(const std::string& name) const {
  return nonEmptyColumn(name).back();
}

double Waveform::valueAt(const std::string& name, double t) const {
  const auto col = nonEmptyColumn(name);
  // A single accepted sample is a degenerate but valid trace: clamping
  // semantics make every query return that sample.
  if (col.size() == 1) return col.front();
  return math::interp1(time_, col, t);
}

double Waveform::firstCrossing(const std::string& name, double level,
                               bool rising) const {
  return math::firstCrossing(time_, nonEmptyColumn(name), level, rising);
}

double Waveform::minimum(const std::string& name) const {
  const auto col = nonEmptyColumn(name);
  return *std::min_element(col.begin(), col.end());
}

double Waveform::maximum(const std::string& name) const {
  const auto col = nonEmptyColumn(name);
  return *std::max_element(col.begin(), col.end());
}

void Waveform::writeCsv(std::ostream& os) const {
  os << "time";
  for (const auto& n : names_) os << ',' << n;
  os << '\n';
  for (std::size_t s = 0; s < time_.size(); ++s) {
    os << strings::generalFormat(time_[s], 9);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << ',' << strings::generalFormat(columns_[c][s], 9);
    }
    os << '\n';
  }
}

}  // namespace fefet::spice

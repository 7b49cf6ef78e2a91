// waveform.h — recorded simulation traces and measurement helpers.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

namespace fefet::spice {

/// A set of named signals sampled on a shared time axis.
class Waveform {
 public:
  /// Register a signal column (order of registration = column order).
  void addColumn(const std::string& name);

  /// Reserve room for `samples` time samples in every registered column.
  void reserve(std::size_t samples);

  /// Append one time sample; `values` must match the registered columns.
  void appendSample(double time, const std::vector<double>& values);

  std::span<const double> time() const { return time_; }
  std::span<const double> column(const std::string& name) const;
  std::vector<std::string> columnNames() const;
  std::size_t sampleCount() const { return time_.size(); }

  /// Value of a column at its last sample.  Throws InvalidArgumentError
  /// (like every reducer here) when the column has no samples yet.
  double finalValue(const std::string& name) const;
  /// Linear interpolation of a column at time t.  Queries outside
  /// [time().front(), time().back()] clamp to the first/last sample — no
  /// extrapolation; a single-sample trace returns that sample for any t.
  double valueAt(const std::string& name, double t) const;
  /// First time the column crosses `level` in the given direction.
  double firstCrossing(const std::string& name, double level,
                       bool rising) const;
  /// Min / max of a column.
  double minimum(const std::string& name) const;
  double maximum(const std::string& name) const;

  /// Write all columns as CSV (time first).
  void writeCsv(std::ostream& os) const;

 private:
  std::span<const double> nonEmptyColumn(const std::string& name) const;

  std::vector<double> time_;
  std::vector<std::string> names_;
  std::map<std::string, std::size_t> index_;
  std::vector<std::vector<double>> columns_;
};

/// What to record during a transient.
struct Probe {
  enum class Kind { kNodeVoltage, kDeviceState };
  Kind kind;
  std::string target;  ///< node name, or device name
  std::string state;   ///< state name for kDeviceState ("P", "i", "id", ...)
  std::string label;   ///< column label in the waveform

  static Probe v(const std::string& node) {
    return {Kind::kNodeVoltage, node, "", "v(" + node + ")"};
  }
  static Probe deviceState(const std::string& device,
                           const std::string& stateName) {
    return {Kind::kDeviceState, device, stateName,
            stateName + "(" + device + ")"};
  }
  /// Current delivered by a voltage source (device state "i").
  static Probe i(const std::string& source) {
    return {Kind::kDeviceState, source, "i", "i(" + source + ")"};
  }
};

}  // namespace fefet::spice

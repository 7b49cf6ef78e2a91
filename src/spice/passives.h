// passives.h — resistor, capacitor, timed switch and junction diode.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>

#include "spice/device.h"

namespace fefet::spice {

/// Linear resistor between two nodes.
class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double resistance);

  void stamp(const EvalContext& ctx) override;
  double current(const SystemView& view) const;

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  NodeId a_, b_;
  double resistance_;
};

/// Linear capacitor between two nodes (companion-model transient; open in
/// DC).  Supports an initial voltage for UIC starts.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance);

  void stamp(const EvalContext& ctx) override;
  void initializeState(const SystemView& view) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  static constexpr std::string_view kStateNames[] = {"q"};
  StateNames stateNames() const override { return kStateNames; }
  double state(int k, const SystemView& view) const override;

  double capacitance() const { return capacitance_; }

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  NodeId a_, b_;
  double capacitance_;
  ChargeIntegrator charge_;
};

/// Time-scheduled ideal switch: a resistor whose value is Ron while the
/// control shape exceeds 0.5 and Roff otherwise.  Used to float bit lines
/// (FERAM charge-share read) and gate pre-charge pulses without adding
/// transistors to every test circuit.  It batches as a resistor lane whose
/// conductance is re-evaluated only when the time or the control changed.
class TimedSwitch final : public Device {
 public:
  using Control = std::function<double(double)>;

  TimedSwitch(std::string name, NodeId a, NodeId b, Control control,
              double ron = 100.0, double roff = 1e12);

  void stamp(const EvalContext& ctx) override;
  void setControl(Control control) {
    control_ = std::move(control);
    ++controlVersion_;
  }

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  /// 1/Ron or 1/Roff at time t.
  double conductanceAt(double t) const {
    return (control_(t) > 0.5) ? 1.0 / ron_ : 1.0 / roff_;
  }

  NodeId a_, b_;
  Control control_;
  /// Bumped by setControl: the batch re-evaluates a lane whose control
  /// changed even at the time it last evaluated.
  std::uint64_t controlVersion_ = 0;
  double ron_, roff_;
};

/// Current and conductance of a diode branch.
struct DiodeBranch {
  double i;
  double g;
};

/// i = Is (exp(v/vt) - 1) and di/dv at junction voltage v, continued
/// linearly above 40 vt to keep Newton stable.  Diode::stamp and the
/// diode lane both call it, so the two stay bit-identical.
inline DiodeBranch diodeBranch(double v, double is, double vt) {
  const double vMax = 40.0 * vt;
  if (v <= vMax) {
    const double e = std::exp(v / vt);
    return {is * (e - 1.0), is * e / vt};
  }
  const double eMax = std::exp(vMax / vt);
  const double gMax = is * eMax / vt;
  return {is * (eMax - 1.0) + gMax * (v - vMax), gMax};
}

/// Junction diode: i = Is (exp(v/(n Vt)) - 1), with a series conductance
/// limit to keep Newton iterations bounded.
class Diode final : public Device {
 public:
  struct Params {
    double saturationCurrent = 1e-14;  ///< Is [A]
    double idealityFactor = 1.0;       ///< n
    double temperature = 300.0;        ///< [K], finite and positive
  };

  Diode(std::string name, NodeId anode, NodeId cathode, Params params);
  Diode(std::string name, NodeId anode, NodeId cathode)
      : Diode(std::move(name), anode, cathode, Params{}) {}

  void stamp(const EvalContext& ctx) override;
  static constexpr std::string_view kStateNames[] = {"i", "v"};
  StateNames stateNames() const override { return kStateNames; }
  double state(int k, const SystemView& view) const override;

  /// Diode current at a given junction voltage.
  double currentAt(double v) const {
    return diodeBranch(v, params_.saturationCurrent, vt_).i;
  }

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  NodeId anode_, cathode_;
  Params params_;
  double vt_;  ///< n k T / q
};

}  // namespace fefet::spice

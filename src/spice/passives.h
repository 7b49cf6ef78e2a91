// passives.h — resistor, capacitor, timed switch and junction diode.
#pragma once

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
/// transistors to every test circuit.
class TimedSwitch final : public Device {
 public:
  using Control = std::function<double(double)>;

  TimedSwitch(std::string name, NodeId a, NodeId b, Control control,
              double ron = 100.0, double roff = 1e12);

  void stamp(const EvalContext& ctx) override;
  void setControl(Control control) { control_ = std::move(control); }

 private:
  NodeId a_, b_;
  Control control_;
  double ron_, roff_;
};

/// Junction diode: i = Is (exp(v/(n Vt)) - 1), with a series conductance
/// limit to keep Newton iterations bounded.
class Diode final : public Device {
 public:
  struct Params {
    double saturationCurrent = 1e-14;  ///< Is [A]
    double idealityFactor = 1.0;       ///< n
    double temperature = 300.0;        ///< [K]
  };

  Diode(std::string name, NodeId anode, NodeId cathode, Params params);
  Diode(std::string name, NodeId anode, NodeId cathode)
      : Diode(std::move(name), anode, cathode, Params{}) {}

  void stamp(const EvalContext& ctx) override;
  static constexpr std::string_view kStateNames[] = {"i", "v"};
  StateNames stateNames() const override { return kStateNames; }
  double state(int k, const SystemView& view) const override;

  /// Diode current at a given junction voltage.
  double currentAt(double v) const;

 private:
  NodeId anode_, cathode_;
  Params params_;
};

}  // namespace fefet::spice

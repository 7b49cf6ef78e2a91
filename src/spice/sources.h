// sources.h — independent sources and their time-shapes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "spice/device.h"

namespace fefet::spice {

/// A source waveform: value as a function of time.
using Shape = std::function<double(double)>;

namespace shapes {

/// Constant value.
Shape dc(double value);

/// SPICE-style pulse: v0 before delay, ramp to v1 over `rise`, hold for
/// `width`, ramp back over `fall`; repeats with `period` when period > 0.
Shape pulse(double v0, double v1, double delay, double rise, double width,
            double fall, double period = 0.0);

/// Piecewise-linear through (t, v) points (sorted by t); clamps outside.
Shape pwl(std::vector<std::pair<double, double>> points);

/// Sine: offset + amplitude * sin(2 pi f (t - delay)).
Shape sine(double offset, double amplitude, double frequency,
           double delay = 0.0);

}  // namespace shapes

/// Entry-major stamp body of an ideal voltage source on terminals plus
/// (0), minus (1) and its branch current (2): branch current i, and the
/// branch equation's residual v+ - v- - shape(t).
template <class Sink>
void stampVoltageSource(const Sink& s, double i, double branchResidual) {
  // KCL: branch current leaves the + node into the source.
  s.residual(0) += i;
  s.residual(1) += -i;
  s.jacobian(0, 2) += 1.0;
  s.jacobian(1, 2) += -1.0;
  s.residual(2) += branchResidual;
  s.jacobian(2, 0) += 1.0;
  s.jacobian(2, 1) += -1.0;
}

/// Stamp body of an ideal current source pushing i from terminal 0 into
/// terminal 1 (residual only).
template <class Sink>
void stampCurrentSource(const Sink& s, double i) {
  s.residual(0) += i;
  s.residual(1) += -i;
}

/// Ideal voltage source between plus and minus nodes.  Adds one auxiliary
/// unknown: the branch current flowing plus -> (through source) -> minus.
/// Tracks delivered energy (integral of v * i_out dt) across a transient.
class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, NodeId plus, NodeId minus, Shape shape);

  void setup(SetupContext& ctx) override;
  void stamp(const EvalContext& ctx) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  static constexpr std::string_view kStateNames[] = {"i", "e"};
  StateNames stateNames() const override { return kStateNames; }
  double state(int k, const SystemView& view) const override;

  /// Branch current at the given solution (positive = out of + terminal
  /// into the external circuit).
  double current(const SystemView& view) const;

  /// Cumulative energy delivered to the circuit since the last reset [J].
  double energyDelivered() const { return energy_; }
  void resetEnergy() { energy_ = 0.0; }

  /// Replace the waveform (e.g. between operations on the same netlist).
  void setShape(Shape shape) {
    shape_ = std::move(shape);
    ++shapeVersion_;
  }
  double valueAt(double time) const { return shape_(time); }

  int auxRow() const { return auxRow_; }

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  NodeId plus_, minus_;
  Shape shape_;
  /// Bumped by setShape: the batch re-evaluates a lane whose shape changed
  /// even at the time it last evaluated.
  std::uint64_t shapeVersion_ = 0;
  int auxRow_ = -1;
  double energy_ = 0.0;
};

/// Ideal current source pushing `shape(t)` amperes from plus node, through
/// the source, into minus node (i.e. conventional current flows out of the
/// minus terminal through the external circuit back into plus... in short:
/// a positive value pulls current out of `from` and pushes it into `to`).
class CurrentSource final : public Device {
 public:
  CurrentSource(std::string name, NodeId from, NodeId to, Shape shape);

  void stamp(const EvalContext& ctx) override;
  void setShape(Shape shape) {
    shape_ = std::move(shape);
    ++shapeVersion_;
  }

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  NodeId from_, to_;
  Shape shape_;
  std::uint64_t shapeVersion_ = 0;  ///< as VoltageSource::shapeVersion_
};

}  // namespace fefet::spice

// device_batch.h — structure-of-arrays device batches for the compiled
// stamp pipeline.
//
// Netlist::freeze() groups homogeneous devices (resistors, capacitors,
// sources, MOSFETs, FE capacitors) into SoA parameter/state
// arrays.  Each assembly then runs in two phases:
//
//  1. eval — type-major batch kernels sweep the SoA arrays and write every
//     lane's currents/conductances into preallocated scratch.  The model
//     evaluations (xtor::MosfetModel::evaluateBatch, gateChargeBatch,
//     ferro::LandauKhalatnikov::staticFieldBatch) run as tight non-virtual
//     loops in the model translation units over the same inline per-lane
//     helpers the scalar methods call.  A MOSFET lane does its
//     transcendental work once: softplus/logistic pairs share one
//     exponential, and the gate charge and capacitance come from one pass.
//  2. scatter — devices replay in netlist order, reading their scratch
//     lanes and writing straight into the Assembler's StampBuffer (slot
//     program + padded residual), with no per-entry sink dispatch.  Only
//     the generic fallback below goes through EvalContext.
//
// This is the one assembly path.  The phase split keeps it bit-identical
// to scalar Device::stamp() (the pattern recorder and the test oracle's
// input): every lane's arithmetic is the same expression sequence the
// scalar Device::stamp evaluates (phase 1 calls the same inline helpers,
// e.g. ChargeIntegrator::currentFor), and phase 2 accumulates into shared
// CSR slots / residual rows in the original device order, so the
// floating-point accumulation order never changes.  A type-major single
// pass would reorder those additions and drift in the last ulp.
//
// The one exception is MOSFET bypass (DESIGN.md §6.5.1).  A MOSFET lane
// whose three terminal voltages all stayed inside a narrow band of its
// last full evaluation skips the model: it stamps the first-order
// extrapolation ids + gm·Δvg + gds·Δvd − (gm+gds)·Δvs and q + c·Δvgs with
// the cached gm, gds and c, off the exact stamp by a second-order
// remainder.  The lanes outside the band are gathered into one list and
// run through the kernels in one call each; they stay bit-identical.
//
// Devices with a time-dependent control or no batch kernel (TimedSwitch,
// Diode, custom test devices) fall back to their virtual stamp() inside
// the scatter loop, preserving order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spice/device.h"
#include "xtor/mosfet_model.h"

namespace fefet::ferro {
class LandauKhalatnikov;
}  // namespace fefet::ferro

namespace fefet::spice {

class Netlist;
class Resistor;
class Capacitor;
class VoltageSource;
class CurrentSource;
class MosfetDevice;
class FeCapDevice;

class DeviceBatches {
 public:
  /// Build the batches for a frozen netlist (auxiliary rows assigned).
  /// The netlist owns both; device pointers stay valid for its lifetime.
  explicit DeviceBatches(const Netlist& netlist);

  DeviceBatches(const DeviceBatches&) = delete;
  DeviceBatches& operator=(const DeviceBatches&) = delete;

  /// One full batched assembly pass: eval every batch kernel at the
  /// iterate, then scatter all devices in netlist order into
  /// `ctx.buffer`, which must be set (the recording pass and the test
  /// oracle use the scalar Device::stamp, not this).  `jacobianEnds` is
  /// the active mode's cumulative per-device Jacobian call count
  /// (StampPattern::deviceJacobianEnds); every device's consumed slot
  /// count is verified against it, naming the culprit on mismatch.
  /// Performs no heap allocation (scratch was sized at construction).
  void stampAll(const EvalContext& ctx,
                std::span<const std::size_t> jacobianEnds);

  /// Devices covered by a typed batch kernel (the rest use the generic
  /// virtual fallback inside the scatter loop).
  std::size_t batchedDeviceCount() const { return batchedCount_; }
  std::size_t deviceCount() const { return order_.size(); }

  /// MOSFET lanes, and how many of them the last stampAll bypassed.
  std::size_t mosfetLanes() const { return mosfets_.dev.size(); }
  std::size_t mosfetBypassed() const { return mosfetBypassed_; }

  /// Gate charge density of MOSFET lane `lane` at (vg, vs), through the
  /// bypass cache: the first-order extrapolation from the lane's last full
  /// evaluation when vg and vs are inside the band, the exact model
  /// otherwise.  MosfetDevice::commitStep reads its channel charge here.
  double mosfetGateChargeDensity(std::uint32_t lane, double vg,
                                 double vs) const;

 private:
  enum class Kind : std::uint8_t {
    kGeneric,
    kResistor,
    kCapacitor,
    kVoltageSource,
    kCurrentSource,
    kMosfet,
    kFeCap,
  };
  /// Per-device dispatch record, netlist order: which batch, which lane.
  struct Ref {
    Kind kind = Kind::kGeneric;
    std::uint32_t lane = 0;
  };

  struct ResistorBatch {
    std::vector<NodeId> a, b;
    std::vector<double> g;  ///< 1/R, precomputed at freeze
    std::vector<double> i;  ///< scratch: branch current per lane
  };

  struct CapacitorBatch {
    std::vector<const Capacitor*> dev;  ///< integrator state access
    std::vector<NodeId> a, b;
    std::vector<double> c;
    std::vector<double> i, g;  ///< scratch: companion current/conductance
  };

  struct VoltageSourceBatch {
    std::vector<const VoltageSource*> dev;  ///< shape evaluation
    std::vector<NodeId> plus, minus;
    std::vector<int> auxRow;
    std::vector<double> v;  ///< scratch: shape(t) per lane
  };

  struct CurrentSourceBatch {
    std::vector<const CurrentSource*> dev;  ///< shape evaluation
    std::vector<NodeId> from, to;
    std::vector<double> i;  ///< scratch: shape(t) per lane
  };

  struct MosfetBatch {
    std::vector<const MosfetDevice*> dev;  ///< integrator state access
    std::vector<NodeId> drain, gate, source;
    std::vector<const xtor::MosfetModel*> model;
    std::vector<double> gateLeak, overlapCap, junctionCap, gateArea;
    // Bypass cache, one lane per device: the terminal voltages of the
    // lane's last full model evaluation (NaN before the first, which no
    // band test passes) and what it computed there.  A DC assembly
    // evaluates no gate charge, so the charge part has its own flag.
    std::vector<double> vdEval, vgEval, vsEval;
    std::vector<xtor::MosOperatingPoint> opEval;
    std::vector<double> qEval, cEval;  ///< gate charge/capacitance density
    std::vector<std::uint8_t> chargeValid;
    // Scratch, one lane per device:
    std::vector<std::uint32_t> evalLanes;  ///< lanes not bypassed this pass
    std::vector<double> vd, vg, vs;
    std::vector<double> ids;               ///< stamped drain current
    std::vector<double> qDensity;          ///< stamped gate charge density
    std::vector<double> chanI, chanG;      ///< intrinsic charge companion
    std::vector<double> ovlGdI, ovlGdG, ovlGsI, ovlGsG;
    std::vector<double> junDI, junDG, junSI, junSG;
  };

  struct FeCapBatch {
    std::vector<const FeCapDevice*> dev;  ///< committed state access
    std::vector<NodeId> a, b;
    std::vector<int> auxRow;
    std::vector<double> tFe, area, rho, backgroundCap;
    std::vector<const ferro::LandauKhalatnikov*> lk;
    // Scratch, one lane per device:
    std::vector<double> p, pPrev;
    std::vector<double> field, slope;  ///< E_s(P), dE_s/dP
    std::vector<double> dPdt, dRatedP;
    std::vector<double> bgI, bgG;  ///< background dielectric companion
  };

  void evalResistors(const EvalContext& ctx);
  void evalCapacitors(const EvalContext& ctx,
                      const ChargeIntegrator::Companion& companion);
  void evalVoltageSources(const EvalContext& ctx);
  void evalCurrentSources(const EvalContext& ctx);
  void evalMosfets(const EvalContext& ctx,
                   const ChargeIntegrator::Companion& companion);
  void evalFeCaps(const EvalContext& ctx,
                  const ChargeIntegrator::Companion& companion);

  /// q + c·Δvgs from MOSFET lane `lane`'s charge cache: the gate charge
  /// density a bypassed lane stamps and a bypassed commit stores.
  double extrapolatedChargeDensity(std::size_t lane, double vg,
                                   double vs) const;

  void scatterResistor(std::uint32_t lane, StampBuffer& buf) const;
  void scatterCapacitor(std::uint32_t lane, StampBuffer& buf) const;
  void scatterVoltageSource(std::uint32_t lane, const SystemView& view,
                            StampBuffer& buf) const;
  void scatterCurrentSource(std::uint32_t lane, StampBuffer& buf) const;
  void scatterMosfet(std::uint32_t lane, bool dc, StampBuffer& buf) const;
  void scatterFeCap(std::uint32_t lane, const EvalContext& ctx,
                    StampBuffer& buf) const;

  [[noreturn]] void throwCountMismatch(
      std::size_t deviceIndex, std::size_t consumed,
      std::span<const std::size_t> jacobianEnds) const;

  std::vector<Device*> order_;  ///< netlist order (generic fallback + names)
  std::vector<Ref> refs_;       ///< parallel to order_
  std::size_t batchedCount_ = 0;
  std::size_t mosfetBypassed_ = 0;

  ResistorBatch resistors_;
  CapacitorBatch capacitors_;
  VoltageSourceBatch vsources_;
  CurrentSourceBatch isources_;
  MosfetBatch mosfets_;
  FeCapBatch fecaps_;
};

}  // namespace fefet::spice

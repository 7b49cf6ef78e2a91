// device_batch.h — structure-of-arrays device batches for the compiled
// stamp pipeline.
//
// Netlist::freeze() groups the devices by kind (resistors and timed
// switches, capacitors, diodes, sources, MOSFETs, FE capacitors) into SoA
// parameter/state arrays.  Every device class has a lane kind, and freeze
// throws, naming the device, for a class without one.  Each assembly then
// runs in two phases:
//
//  1. eval — type-major batch kernels sweep the SoA arrays and write every
//     lane's currents/conductances into preallocated scratch.  The model
//     evaluations (xtor::MosfetModel::evaluateBatch, gateChargeBatch,
//     ferro::LandauKhalatnikov::staticFieldBatch) run as tight non-virtual
//     loops in the model translation units over the same inline per-lane
//     helpers the scalar methods call.  A MOSFET lane does its
//     transcendental work once: softplus/logistic pairs share one
//     exponential, and the gate charge and capacitance come from one pass.
//     A source lane evaluates its waveform, and a switch lane its control,
//     only when the time or its shape/control changed since its last
//     evaluation, so once per Newton solve.
//  2. stamp — one loop in netlist order: each lane runs its kind's
//     entry-major stamp body (the one its scalar Device::stamp runs)
//     through a SlotSink over its LaneSlots table (stamp_buffer.h): each
//     residual row and Jacobian entry it touches is loaded once, summed in
//     a register and stored once.
//
// This is the one assembly path.  The phase split keeps it bit-identical
// to scalar Device::stamp() (the pattern recorder and the test oracle's
// input): every lane's arithmetic is the same expression sequence the
// scalar Device::stamp evaluates (phase 1 calls the same inline helpers,
// e.g. ChargeIntegrator::currentFor, diodeBranch), both paths add each
// entry's terms in the order of the one stamp body, and phase 2 visits
// devices in the original order, so every shared CSR slot and residual row
// accumulates the same additions in the same order.  A type-major single
// pass would reorder those additions and drift in the last ulp.
//
// The lane tables are checked once, at freeze: in both modes, each lane's
// stamp body must emit exactly the (row, col) sequence the pattern
// recorded for its device, or the constructor throws naming the device.
//
// The one exception is MOSFET bypass (DESIGN.md §6.5.1).  A MOSFET lane
// whose three terminal voltages all stayed inside a narrow band of its
// last full evaluation skips the model: it stamps the first-order
// extrapolation ids + gm·Δvg + gds·Δvd − (gm+gds)·Δvs and q + c·Δvgs with
// the cached gm, gds and c, off the exact stamp by a second-order
// remainder.  The lanes outside the band are gathered into one list and
// run through the kernels in one call each; they stay bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "spice/device.h"
#include "spice/fecap_device.h"
#include "spice/mosfet_device.h"
#include "spice/stamp_pattern.h"
#include "xtor/mosfet_model.h"

namespace fefet::spice {

class Netlist;
class Resistor;
class Capacitor;
class TimedSwitch;
class Diode;
class VoltageSource;
class CurrentSource;

class DeviceBatches {
 public:
  /// Build the batches for a frozen netlist (auxiliary rows assigned) and,
  /// when the netlist has unknowns, the lane tables from its recorded
  /// `pattern`.  Throws InvalidArgumentError naming a device with no lane
  /// kind, and NumericalError naming a device whose stamp body disagrees
  /// with the recording.  The netlist owns all three; device pointers stay
  /// valid for its lifetime.
  DeviceBatches(const Netlist& netlist, const StampPattern* pattern);

  DeviceBatches(const DeviceBatches&) = delete;
  DeviceBatches& operator=(const DeviceBatches&) = delete;

  /// One full batched assembly pass: eval every batch kernel at the
  /// iterate in `ctx`, then stamp all devices in netlist order into `out`
  /// (ctx's stamper is not used: the recording pass and the test oracle
  /// run the scalar Device::stamp, not this).  Performs no heap allocation
  /// (scratch was sized at construction).
  void stampAll(const EvalContext& ctx, const StampBuffer& out);

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
    kResistor,
    kCapacitor,
    kDiode,
    kVoltageSource,
    kCurrentSource,
    kMosfet,
    kFeCap,
  };
  /// Per-device dispatch record, netlist order: which batch, which lane.
  struct Ref {
    Kind kind;
    std::uint32_t lane;
  };

  /// A resistor lane whose conductance a timed switch's control sets, with
  /// the time and control version it was evaluated at (NaN time before
  /// the first evaluation).
  struct SwitchLane {
    std::uint32_t lane;
    const TimedSwitch* dev;
    double time;
    std::uint64_t version;
  };

  struct ResistorBatch {
    std::vector<NodeId> a, b;
    std::vector<LaneSlots<2>> slots;
    /// 1/R, precomputed at freeze; a switch lane's 1/Ron or 1/Roff
    std::vector<double> g;
    std::vector<double> i;  ///< scratch: branch current per lane
    std::vector<SwitchLane> switches;
  };

  struct CapacitorBatch {
    std::vector<const Capacitor*> dev;  ///< integrator state access
    std::vector<NodeId> a, b;
    std::vector<LaneSlots<2>> slots;
    std::vector<double> c;
    std::vector<double> i, g;  ///< scratch: companion current/conductance
  };

  struct DiodeBatch {
    std::vector<NodeId> anode, cathode;
    std::vector<LaneSlots<2>> slots;
    std::vector<double> is, vt;
    std::vector<double> i, g;  ///< scratch: diodeBranch per lane
  };

  /// shape(t) per source lane, with the time and shape version it was
  /// evaluated at (NaN time before the first evaluation).
  struct ShapeCache {
    std::vector<double> value;
    std::vector<double> time;
    std::vector<std::uint64_t> version;
  };

  struct VoltageSourceBatch {
    std::vector<const VoltageSource*> dev;  ///< shape evaluation
    std::vector<NodeId> plus, minus;
    std::vector<int> auxRow;
    std::vector<LaneSlots<3>> slots;  ///< +, -, branch current
    ShapeCache v;
  };

  struct CurrentSourceBatch {
    std::vector<const CurrentSource*> dev;  ///< shape evaluation
    std::vector<NodeId> from, to;
    std::vector<LaneSlots<2>> slots;
    ShapeCache i;
  };

  struct MosfetBatch {
    std::vector<const MosfetDevice*> dev;  ///< integrator state access
    std::vector<NodeId> drain, gate, source;
    std::vector<LaneSlots<3>> slots;  ///< drain, gate, source
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
    std::vector<double> qDensity;          ///< stamped gate charge density
    std::vector<MosfetStampTerms> terms;   ///< the stamp body's input
  };

  struct FeCapBatch {
    std::vector<const FeCapDevice*> dev;  ///< committed state access
    std::vector<NodeId> a, b;
    std::vector<int> auxRow;
    std::vector<LaneSlots<3>> slots;  ///< a, b, polarization
    std::vector<double> tFe, area, rho, backgroundCap;
    std::vector<const ferro::LandauKhalatnikov*> lk;
    // Scratch, one lane per device:
    std::vector<double> p, pPrev;
    std::vector<double> field, slope;  ///< E_s(P), dE_s/dP
    std::vector<double> dPdt, dRatedP;
    std::vector<FeCapStampTerms> terms;  ///< the stamp body's input
  };

  void evalResistors(const EvalContext& ctx);
  void evalCapacitors(const EvalContext& ctx,
                      const ChargeIntegrator::Companion& companion);
  void evalDiodes(const EvalContext& ctx);
  template <class Source>
  static void evalShapes(const std::vector<const Source*>& dev,
                         ShapeCache& cache, double time);
  void evalMosfets(const EvalContext& ctx,
                   const ChargeIntegrator::Companion& companion);
  void evalFeCaps(const EvalContext& ctx,
                  const ChargeIntegrator::Companion& companion);

  /// q + c·Δvgs from MOSFET lane `lane`'s charge cache: the gate charge
  /// density a bypassed lane stamps and a bypassed commit stores.
  double extrapolatedChargeDensity(std::size_t lane, double vg,
                                   double vs) const;

  /// Run device `ref`'s stamp body through `sinkOf(lane slots)`: a
  /// SlotSink in assembly, a CallSink when the tables are checked.
  template <class SinkOf>
  void stampLane(Ref ref, const EvalContext& ctx, const SinkOf& sinkOf) const;

  /// The freeze-time check of every lane's table against the recorded
  /// `pattern` of `netlist`.
  void checkLaneTables(const Netlist& netlist, const StampPattern& pattern);

  std::vector<Ref> refs_;  ///< netlist order
  std::size_t mosfetBypassed_ = 0;

  ResistorBatch resistors_;
  CapacitorBatch capacitors_;
  DiodeBatch diodes_;
  VoltageSourceBatch vsources_;
  CurrentSourceBatch isources_;
  MosfetBatch mosfets_;
  FeCapBatch fecaps_;
};

}  // namespace fefet::spice

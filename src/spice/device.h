// device.h — the device abstraction of the MNA circuit simulator.
//
// The solver works in residual form: for the unknown vector x (node
// voltages followed by auxiliary unknowns such as source branch currents
// and ferroelectric polarizations), every device adds its KCL /
// constraint-equation contributions to the residual F(x) and its partial
// derivatives to the Jacobian J(x).  Newton–Raphson then solves
// J·dx = -F.  Dynamic devices keep committed history (charges,
// polarization) and discretize d/dt with backward Euler or trapezoidal
// companion forms supplied through the EvalContext.
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fefet::spice {

/// Node handle.  0 is ground; positive values index named circuit nodes.
using NodeId = int;
inline constexpr NodeId kGround = 0;

enum class IntegrationMethod { kBackwardEuler, kTrapezoidal };

/// Read access to the current Newton iterate.
/// Indexing convention (audited, PR 7): the unknown vector is laid out as
/// node rows first, aux rows after —
///   x[row] with row = node - 1        for node voltages (node 1 -> row 0;
///                                     ground is node 0 and has no row), and
///   x[auxRow]                         for auxiliary unknowns, where auxRow
///                                     is ABSOLUTE (>= nodeCount): the
///                                     AuxAllocator starts at nodeCount(),
///                                     so allocated rows are passed through
///                                     unshifted.
/// nodeVoltage() applies the -1 shift; aux() does not.  Passing a node id
/// to aux() or an aux row to nodeVoltage() is therefore always a bug —
/// rowOfNode(node) == node - 1 is the only node-to-row mapping, and
/// SetupContext::allocateAux() results are the only valid aux() inputs.
class SystemView {
 public:
  SystemView(std::span<const double> x, int nodeCount)
      : x_(x), nodeCount_(nodeCount) {}

  /// Voltage of a node (ground returns 0).  `node` is a node id, not a
  /// row: the -1 shift happens here.
  double nodeVoltage(NodeId node) const {
    return node == kGround ? 0.0 : x_[static_cast<std::size_t>(node - 1)];
  }
  /// Value of an auxiliary unknown by absolute row index (as returned by
  /// SetupContext::allocateAux — already >= nodeCount, no shift applied).
  double aux(int auxRow) const { return x_[static_cast<std::size_t>(auxRow)]; }

  int nodeCount() const { return nodeCount_; }
  std::span<const double> raw() const { return x_; }

 private:
  std::span<const double> x_;
  int nodeCount_;
};

/// Write access to the Jacobian and residual being assembled.  Rows/columns
/// attached to ground are silently dropped.  The stamper also accumulates a
/// per-row magnitude scale used for relative convergence checks.
class Stamper {
 public:
  virtual ~Stamper() = default;
  virtual void addResidual(int row, double value) = 0;
  virtual void addJacobian(int row, int col, double value) = 0;

  /// Residual row of a node (-1 for ground = dropped).
  static int rowOfNode(NodeId node) { return node - 1; }
};

/// Per-evaluation context handed to Device::stamp().  One signature serves
/// the DC, transient and gmin-escalation paths (gmin rides along so the
/// whole evaluation state lives in one place).  Its one sink is the virtual
/// Stamper: the pass that records the StampPattern, the freeze-time check
/// of the lane tables and the test-side reference oracle.  Assembly never
/// calls Device::stamp; it runs the same stamp bodies through the lane
/// tables (device_batch.h), and the stamper of its context is null.
struct EvalContext {
  const SystemView& view;
  bool dc = false;                ///< DC operating point: d/dt == 0
  double time = 0.0;              ///< evaluation time (end of step) [s]
  double dt = 0.0;                ///< step size (0 in DC) [s]
  IntegrationMethod method = IntegrationMethod::kBackwardEuler;
  /// Node-to-ground regularization applied by the assembly engine after
  /// the device loop (informational for devices; escalation raises it).
  double gmin = 0.0;
  Stamper* stamper = nullptr;

  void addResidual(int row, double value) const {
    stamper->addResidual(row, value);
  }
  void addJacobian(int row, int col, double value) const {
    stamper->addJacobian(row, col, value);
  }
};

/// Scalar-path sink of an entry-major stamp body (see stampBranch):
/// residual(t) and jacobian(t, u) forward every contribution as one
/// EvalContext call on terminal t's row (-1 = ground).  Device::stamp
/// runs a kind's body through it; DeviceBatches runs the same body through
/// a SlotSink (stamp_buffer.h), so the two paths add the same terms to each
/// entry in the same order.
template <int T>
class CallSink {
 public:
  CallSink(const EvalContext& ctx, const std::array<int, T>& rows)
      : ctx_(ctx), rows_(rows) {}

  struct Row {
    const EvalContext& ctx;
    int row;
    void operator+=(double x) const { ctx.addResidual(row, x); }
  };
  struct Entry {
    const EvalContext& ctx;
    int row;
    int col;
    void operator+=(double x) const { ctx.addJacobian(row, col, x); }
  };

  Row residual(int t) const {
    return {ctx_, rows_[static_cast<std::size_t>(t)]};
  }
  Entry jacobian(int t, int u) const {
    return {ctx_, rows_[static_cast<std::size_t>(t)],
            rows_[static_cast<std::size_t>(u)]};
  }

 private:
  const EvalContext& ctx_;
  std::array<int, T> rows_;
};

/// Entry-major stamp body of a two-terminal branch: current i leaving
/// terminal 0 into terminal 1, and its conductance g.  Resistors,
/// capacitors, the timed switch and the diode stamp exactly this.
template <class Sink>
void stampBranch(const Sink& s, double i, double g) {
  s.residual(0) += i;
  s.residual(1) += -i;
  s.jacobian(0, 0) += g;
  s.jacobian(0, 1) += -g;
  s.jacobian(1, 0) += -g;
  s.jacobian(1, 1) += g;
}

/// Allocation interface passed to Device::setup().
class SetupContext {
 public:
  virtual ~SetupContext() = default;
  /// Allocate one auxiliary unknown; returns its absolute row index.
  virtual int allocateAux(const std::string& label) = 0;
};

/// Helper implementing the companion form of a two-terminal charge element
/// i = dQ/dt.  Devices own one instance per independent charge.
///
/// The "trapezoidal" branch is actually a theta-method with theta = 0.60:
/// pure trapezoidal (theta = 0.5) has no numerical damping, so the branch
/// current of a capacitor rings forever at +/-constant amplitude after a
/// sharp edge; theta slightly above 0.5 damps the ring by (1-theta)/theta
/// per step while staying near second-order accurate.
class ChargeIntegrator {
 public:
  static constexpr double kTheta = 0.60;

  /// The companion form's step constants at one evaluation, shared by
  /// every integrator of an assembly (the batch kernels compute them once
  /// per assembly instead of once per charge element).
  struct Companion {
    bool active = false;  ///< false in DC and at dt <= 0: no current
    bool backwardEuler = false;
    double dt = 0.0;
    double gain = 0.0;  ///< dI/dQ: 1/dt (BE) or 1/(theta dt)

    static Companion of(const EvalContext& ctx) {
      if (ctx.dc || ctx.dt <= 0.0) return {};
      if (ctx.method == IntegrationMethod::kBackwardEuler) {
        return {true, true, ctx.dt, 1.0 / ctx.dt};
      }
      return {true, false, ctx.dt, 1.0 / (kTheta * ctx.dt)};
    }
  };

  /// Current and dI/dQ for charge value q at the present iterate.
  std::pair<double, double> currentFor(double q, const Companion& c) const {
    if (!c.active) return {0.0, 0.0};
    if (c.backwardEuler) return {(q - qPrev_) / c.dt, c.gain};
    return {(q - qPrev_) * c.gain - (1.0 - kTheta) / kTheta * iPrev_,
            c.gain};
  }
  std::pair<double, double> currentFor(double q,
                                       const EvalContext& ctx) const {
    return currentFor(q, Companion::of(ctx));
  }

  /// Accept the converged end-of-step values.
  void commit(double q, double i) {
    qPrev_ = q;
    iPrev_ = i;
  }

  /// Accept a converged end-of-step charge, recomputing the branch current
  /// with the same companion form used during stamping.
  void commitFrom(double q, double dt, IntegrationMethod method) {
    double i = 0.0;
    if (dt > 0.0) {
      i = (method == IntegrationMethod::kBackwardEuler)
              ? (q - qPrev_) / dt
              : (q - qPrev_) / (kTheta * dt) -
                    (1.0 - kTheta) / kTheta * iPrev_;
    }
    qPrev_ = q;
    iPrev_ = i;
  }

  /// Set history without recording a current (initial conditions).
  void initialize(double q) {
    qPrev_ = q;
    iPrev_ = 0.0;
  }

  double charge() const { return qPrev_; }

 private:
  double qPrev_ = 0.0;
  double iPrev_ = 0.0;
};

/// Names of a device's probe-readable states (see Device::stateNames).
using StateNames = std::span<const std::string_view>;

/// Base class of the circuit devices.  Devices are owned by the Netlist,
/// whose freeze() accepts only the classes DeviceBatches has a lane kind for.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Allocate auxiliary unknowns.  Called once when the netlist freezes.
  virtual void setup(SetupContext&) {}

  /// Write initial guesses for this device's auxiliary unknowns into the
  /// full solution vector (e.g. the committed polarization).
  virtual void seedUnknowns(std::vector<double>&) const {}

  /// Add residual/Jacobian contributions for the current iterate through
  /// ctx's Stamper (recording and oracle only; see EvalContext).
  virtual void stamp(const EvalContext& ctx) = 0;

  /// Initialize dynamic history from a consistent solution (t = tstart).
  virtual void initializeState(const SystemView&) {}

  /// Accept the converged solution of the step ending at `time`.
  virtual void commitStep(const SystemView&, double /*time*/, double /*dt*/,
                          IntegrationMethod /*method*/) {}

  /// Largest tolerable next step given internal state rates (0 = no limit).
  virtual double maxStepHint(const SystemView&) const { return 0.0; }

  /// Names of the internal states a probe can read (polarization,
  /// charges, energies), in the order state() indexes them.
  virtual StateNames stateNames() const { return {}; }

  /// Value of state `k`, an index into stateNames(), at `view`.
  virtual double state(int /*k*/, const SystemView&) const { return 0.0; }

 private:
  std::string name_;
};

}  // namespace fefet::spice

// mosfet_device.h — circuit-level MOSFET wrapping xtor::MosfetModel.
//
// Stamps the nonlinear channel current with analytic partials and four
// charge elements: the intrinsic gate-channel charge (lumped gate-source),
// the two overlap capacitances and the source/drain junction capacitances
// to ground.  A small gate leakage conductance gives internal gate nodes a
// DC path (needed for FEFET internal nodes).
#pragma once

#include <cstdint>

#include "spice/device.h"
#include "xtor/mosfet_model.h"

namespace fefet::spice {

class DeviceBatches;

/// Currents and conductances of one MOSFET evaluation: the input of its
/// entry-major stamp body (a batch keeps one per lane as scratch).  Each
/// charge-element pair is the companion current i and conductance g of a
/// branch: the intrinsic gate charge (gate -> source), the overlaps
/// (gate -> drain, gate -> source) and the junctions (drain -> ground,
/// source -> ground).  The charge terms are read in transient only, and
/// the leakage, overlap and junction terms only when the device has them.
struct MosfetStampTerms {
  bool leak = false;      ///< gateLeak > 0
  bool overlap = false;   ///< overlapCap > 0
  bool junction = false;  ///< junctionCap > 0
  double ids = 0.0, gm = 0.0, gds = 0.0;
  double leakI = 0.0, leakG = 0.0;
  double chanI = 0.0, chanG = 0.0;
  double ovlGdI = 0.0, ovlGdG = 0.0, ovlGsI = 0.0, ovlGsG = 0.0;
  double junDI = 0.0, junDG = 0.0, junSI = 0.0, junSG = 0.0;
};

/// Entry-major stamp body of a MOSFET on terminals drain (0), gate (1)
/// and source (2).  Each residual row and Jacobian entry takes its terms
/// in one group, in the order the channel, the gate leakage, the
/// intrinsic charge, the overlaps and the junctions contribute them;
/// entries to ground are left out.
template <class Sink>
void stampMosfet(const Sink& s, const MosfetStampTerms& t, bool dc) {
  constexpr int d = 0, g = 1, src = 2;
  const bool charge = !dc;
  const bool ovl = charge && t.overlap;
  const bool jun = charge && t.junction;
  const double gms = -(t.gm + t.gds);
  {
    auto r = s.residual(d);
    r += t.ids;
    if (ovl) r += -t.ovlGdI;
    if (jun) r += t.junDI;
  }
  {
    auto r = s.residual(src);
    r += -t.ids;
    if (t.leak) r += -t.leakI;
    if (charge) r += -t.chanI;
    if (ovl) r += -t.ovlGsI;
    if (jun) r += t.junSI;
  }
  {
    auto e = s.jacobian(d, d);
    e += t.gds;
    if (ovl) e += t.ovlGdG;
    if (jun) e += t.junDG;
  }
  {
    auto e = s.jacobian(d, g);
    e += t.gm;
    if (ovl) e += -t.ovlGdG;
  }
  s.jacobian(d, src) += gms;
  s.jacobian(src, d) += -t.gds;
  {
    auto e = s.jacobian(src, g);
    e += -t.gm;
    if (t.leak) e += -t.leakG;
    if (charge) e += -t.chanG;
    if (ovl) e += -t.ovlGsG;
  }
  {
    auto e = s.jacobian(src, src);
    e += -gms;
    if (t.leak) e += t.leakG;
    if (charge) e += t.chanG;
    if (ovl) e += t.ovlGsG;
    if (jun) e += t.junSG;
  }
  if (!t.leak && !charge) return;  // nothing reaches the gate row
  {
    auto r = s.residual(g);
    if (t.leak) r += t.leakI;
    if (charge) r += t.chanI;
    if (ovl) {
      r += t.ovlGdI;
      r += t.ovlGsI;
    }
  }
  {
    auto e = s.jacobian(g, g);
    if (t.leak) e += t.leakG;
    if (charge) e += t.chanG;
    if (ovl) {
      e += t.ovlGdG;
      e += t.ovlGsG;
    }
  }
  {
    auto e = s.jacobian(g, src);
    if (t.leak) e += -t.leakG;
    if (charge) e += -t.chanG;
    if (ovl) e += -t.ovlGsG;
  }
  if (ovl) s.jacobian(g, d) += -t.ovlGdG;
}

class MosfetDevice final : public Device {
 public:
  MosfetDevice(std::string name, NodeId drain, NodeId gate, NodeId source,
               const xtor::MosParams& params, double width,
               double gateLeak = 1e-12);

  void stamp(const EvalContext& ctx) override;
  void initializeState(const SystemView& view) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  static constexpr std::string_view kStateNames[] = {"id", "vgs", "vds"};
  StateNames stateNames() const override { return kStateNames; }
  double state(int k, const SystemView& view) const override;

  const xtor::MosfetModel& model() const { return model_; }

 private:
  friend class DeviceBatches;  // SoA batching (device_batch.h)

  double channelCharge(const SystemView& view) const;

  NodeId drain_, gate_, source_;
  xtor::MosfetModel model_;
  double gateLeak_;
  double overlapCap_;   ///< per side [F]
  double junctionCap_;  ///< per S/D terminal [F]
  ChargeIntegrator chanCharge_;  // gate <-> source (intrinsic)
  ChargeIntegrator ovlGd_;       // gate <-> drain overlap
  ChargeIntegrator ovlGs_;       // gate <-> source overlap
  ChargeIntegrator junD_;        // drain <-> ground
  ChargeIntegrator junS_;        // source <-> ground
  /// This transistor's lane in the netlist's batches, set at freeze:
  /// commitStep reads the channel charge through the lane's bypass cache.
  const DeviceBatches* batches_ = nullptr;
  std::uint32_t lane_ = 0;
};

}  // namespace fefet::spice

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

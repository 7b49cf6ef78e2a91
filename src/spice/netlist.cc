#include "spice/netlist.h"

#include "spice/device_batch.h"
#include "spice/partition.h"

namespace fefet::spice {

namespace {
bool isGroundName(const std::string& name) {
  return name == "0" || name == "gnd" || name == "GND";
}
}  // namespace

// Out of line so the unique_ptr members compile against the complete
// types.
Netlist::Netlist() = default;
Netlist::~Netlist() = default;

NodeId Netlist::node(const std::string& name) {
  FEFET_REQUIRE(!name.empty(), "node name must be nonempty");
  if (isGroundName(name)) return kGround;
  const auto it = nodeIndex_.find(name);
  if (it != nodeIndex_.end()) return it->second;
  FEFET_REQUIRE(!frozen_, "netlist is frozen; cannot create node " + name);
  const NodeId id = static_cast<NodeId>(nodeNames_.size());
  nodeNames_.push_back(name);
  nodeIndex_[name] = id;
  return id;
}

NodeId Netlist::findNode(const std::string& name) const {
  if (isGroundName(name)) return kGround;
  const auto it = nodeIndex_.find(name);
  FEFET_REQUIRE(it != nodeIndex_.end(), "no such node: " + name);
  return it->second;
}

const std::string& Netlist::nodeName(NodeId id) const {
  FEFET_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodeNames_.size()),
                "node id out of range");
  return nodeNames_[static_cast<std::size_t>(id)];
}

Device* Netlist::find(const std::string& name) const {
  const auto it = deviceIndex_.find(name);
  if (it == deviceIndex_.end()) return nullptr;
  return devices_[it->second].get();
}

class Netlist::AuxAllocator final : public SetupContext {
 public:
  AuxAllocator(int firstRow, std::vector<std::string>& labels)
      : nextRow_(firstRow), labels_(labels) {}

  int allocateAux(const std::string& label) override {
    labels_.push_back(label);
    return nextRow_++;
  }

 private:
  int nextRow_;
  std::vector<std::string>& labels_;
};

int Netlist::freeze() {
  if (!frozen_) {
    // Marked frozen only once everything is built: a retry after a throw
    // (a device without a lane kind) redoes the setup and throws again.
    auxLabels_.clear();
    AuxAllocator allocator(nodeCount(), auxLabels_);
    for (const auto& device : devices_) device->setup(allocator);
    batches_ = std::make_unique<DeviceBatches>(*this);
    const StampPattern* pattern = batches_->pattern();
    if (!borderNodeNames_.empty() && pattern != nullptr) {
      std::vector<int> seeds;
      seeds.reserve(borderNodeNames_.size());
      for (const auto& name : borderNodeNames_) {
        const NodeId id = nodeIndex_.at(name);
        seeds.push_back(static_cast<int>(id) - 1);  // node id 1 -> row 0
      }
      partition_ = std::make_unique<BbdPartition>(*pattern, std::move(seeds));
    }
    frozen_ = true;
  }
  return unknownCount();
}

void Netlist::markBorderNode(const std::string& name) {
  FEFET_REQUIRE(!frozen_, "netlist is frozen; cannot mark border node");
  FEFET_REQUIRE(nodeIndex_.count(name) > 0,
                "markBorderNode: no such node: " + name);
  borderNodeNames_.push_back(name);
}

const BbdPartition* Netlist::partition() const {
  FEFET_REQUIRE(frozen_, "partition() requires a frozen netlist");
  return partition_.get();
}

DeviceBatches& Netlist::deviceBatches() const {
  FEFET_REQUIRE(frozen_ && batches_ != nullptr,
                "deviceBatches() requires a frozen netlist");
  return *batches_;
}

const StampPattern& Netlist::stampPattern() const {
  FEFET_REQUIRE(frozen_ && batches_->pattern() != nullptr,
                "stampPattern() requires a frozen, non-empty netlist");
  return *batches_->pattern();
}

int Netlist::unknownCount() const {
  return nodeCount() + static_cast<int>(auxLabels_.size());
}

}  // namespace fefet::spice

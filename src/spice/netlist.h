// netlist.h — circuit container: named nodes plus owned devices.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "spice/device.h"

namespace fefet::spice {

/// A circuit under construction.  Nodes are created on first use by name;
/// devices are owned by the netlist.  After freeze() the unknown layout
/// (node rows followed by auxiliary rows) is fixed.
class StampPattern;
class DeviceBatches;
class BbdPartition;

class Netlist {
 public:
  Netlist();
  ~Netlist();
  Netlist(const Netlist&) = delete;
  Netlist& operator=(const Netlist&) = delete;

  /// Get-or-create a named node.
  NodeId node(const std::string& name);

  /// Ground node (always exists).
  NodeId ground() const { return kGround; }

  /// Id of an existing node; never creates one.  Throws
  /// InvalidArgumentError("no such node: <name>") when it is absent.
  NodeId findNode(const std::string& name) const;

  /// Name of a node id (for diagnostics).
  const std::string& nodeName(NodeId id) const;

  /// Number of non-ground nodes.
  int nodeCount() const { return static_cast<int>(nodeNames_.size()) - 1; }

  /// Construct and register a device.  Returns a non-owning pointer valid
  /// for the netlist lifetime.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    FEFET_REQUIRE(!frozen_, "netlist is frozen; cannot add devices");
    auto device = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = device.get();
    FEFET_REQUIRE(deviceIndex_.find(raw->name()) == deviceIndex_.end(),
                  "duplicate device name: " + raw->name());
    deviceIndex_[raw->name()] = devices_.size();
    devices_.push_back(std::move(device));
    return raw;
  }

  /// Find a device by name (nullptr when absent).
  Device* find(const std::string& name) const;

  /// Find and downcast; throws InvalidArgumentError on missing/mismatch.
  template <typename T>
  T* get(const std::string& name) const {
    Device* d = find(name);
    FEFET_REQUIRE(d != nullptr, "no such device: " + name);
    T* t = dynamic_cast<T*>(d);
    FEFET_REQUIRE(t != nullptr, "device has unexpected type: " + name);
    return t;
  }

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Freeze the netlist: run device setup, assign auxiliary rows and build
  /// the device batches, which build the compiled stamp pattern from their
  /// lanes.  Idempotent.
  /// Returns the total unknown count.  Throws InvalidArgumentError naming
  /// a device whose class has no lane kind (the device set is closed; see
  /// device_batch.h).
  int freeze();

  bool frozen() const { return frozen_; }
  int unknownCount() const;
  const std::vector<std::string>& auxLabels() const { return auxLabels_; }

  /// Symbolic stamp structure built at freeze() — the compiled
  /// pipeline's pattern (see stamp_pattern.h).  Requires frozen() and at
  /// least one unknown.
  const StampPattern& stampPattern() const;

  /// Structure-of-arrays device batches built at freeze() (see
  /// device_batch.h).  Mutable — stampAll writes into its preallocated
  /// scratch.  Requires frozen().
  DeviceBatches& deviceBatches() const;

  /// Mark a node as a border unknown of the bordered-block-diagonal
  /// partition built at freeze() (see partition.h).  For a memory array
  /// the shared bit/source lines are marked; the hierarchical solver then
  /// treats each word-line row as an independent diagonal block.  Must be
  /// called before freeze(); the node must already exist.
  void markBorderNode(const std::string& name);

  /// The BBD partition built at freeze(), or nullptr when no border nodes
  /// were marked.  Requires frozen().
  const BbdPartition* partition() const;

 private:
  class AuxAllocator;

  std::map<std::string, NodeId> nodeIndex_;
  std::vector<std::string> nodeNames_{"0"};  // index 0 = ground
  std::vector<std::unique_ptr<Device>> devices_;
  std::map<std::string, std::size_t> deviceIndex_;
  std::vector<std::string> auxLabels_;
  std::vector<std::string> borderNodeNames_;
  std::unique_ptr<DeviceBatches> batches_;
  std::unique_ptr<BbdPartition> partition_;
  bool frozen_ = false;
};

}  // namespace fefet::spice

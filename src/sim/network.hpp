// Simulated network: named nodes connected by directed channels with
// configurable latency, jitter, loss, duplication and bandwidth.
//
// This substitutes for the paper's physical testbed (802.11 multicast between
// a server, an iPAQ hand-held, and a Toughbook laptop).  Channels can be
// FIFO-ordered (a TCP-like manager/agent control connection) or unordered and
// lossy (UDP-like data multicast). The paper's "long-term network failure"
// (a partition) is injected by inject::FaultyTransport over this network.
//
// The Network IS the sim backend's runtime::Transport: protocol and
// application layers talk to that interface and reach this implementation
// through the SimRuntime adapter. Each channel's loss, delay and duplication
// are decided by the shared runtime::Link model; the Network only schedules
// the arrivals it returns on the Simulator. Message, channel, and trace types
// are the runtime layer's, re-exported here under sa::sim for source
// compatibility.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sa::sim {

using NodeId = runtime::NodeId;
using Message = runtime::Message;
using MessagePtr = runtime::MessagePtr;
using ReceiveHandler = runtime::ReceiveHandler;
using ChannelConfig = runtime::ChannelConfig;
using ChannelStats = runtime::ChannelStats;
using TraceEntry = runtime::TraceEntry;

class Network final : public runtime::Transport {
 public:
  Network(Simulator& sim, std::uint64_t seed = 42) : sim_(&sim), rng_(seed) {}

  /// Registers a node; `name` appears in traces. Handler may be bound later
  /// via set_handler (nodes are often constructed before their owners).
  NodeId add_node(std::string name, ReceiveHandler handler = nullptr) override;
  void set_handler(NodeId node, ReceiveHandler handler) override;
  const std::string& node_name(NodeId node) const override { return names_.at(node); }
  std::size_t node_count() const override { return names_.size(); }

  /// Creates (or replaces, with fresh stats) the directed channel from -> to.
  void connect(NodeId from, NodeId to, ChannelConfig config = {}) override;
  bool has_channel(NodeId from, NodeId to) const override;

  /// Sends over the from->to channel; throws std::out_of_range when no such
  /// channel exists. Returns false if the channel dropped the message.
  bool send(NodeId from, NodeId to, MessagePtr message) override;

  ChannelStats channel_stats(NodeId from, NodeId to) const override;

  Simulator& simulator() { return *sim_; }

 private:
  void deliver(NodeId from, NodeId to, const MessagePtr& message);

  Simulator* sim_;
  util::Rng rng_;
  std::vector<std::string> names_;
  std::vector<ReceiveHandler> handlers_;
  std::map<std::pair<NodeId, NodeId>, runtime::Link> channels_;
};

}  // namespace sa::sim

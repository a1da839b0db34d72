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
// through the SimRuntime adapter. Message, channel, and trace types are the
// runtime layer's, re-exported here under sa::sim for source compatibility.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/message_observer.hpp"
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

class Channel {
 public:
  Channel(Simulator& sim, util::Rng& rng, NodeId from, NodeId to, ChannelConfig config)
      : sim_(&sim), rng_(&rng), from_(from), to_(to), config_(config) {}

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  const ChannelConfig& config() const { return config_; }
  const ChannelStats& stats() const { return stats_; }

  /// Queues `message` for delivery to `deliver` subject to loss;
  /// returns true if the message was accepted (i.e. not dropped).
  bool send(MessagePtr message, const std::function<void(NodeId, MessagePtr)>& deliver);

 private:
  Simulator* sim_;
  util::Rng* rng_;
  NodeId from_;
  NodeId to_;
  ChannelConfig config_;
  ChannelStats stats_;
  Time last_delivery_ = 0;   // FIFO clamp
  Time link_free_at_ = 0;    // bandwidth serialization
};

class Network final : public runtime::Transport {
 public:
  Network(Simulator& sim, std::uint64_t seed = 42) : sim_(&sim), rng_(seed) {}

  /// Registers a node; `name` appears in traces. Handler may be bound later
  /// via set_handler (nodes are often constructed before their owners).
  NodeId add_node(std::string name, ReceiveHandler handler = nullptr) override;
  void set_handler(NodeId node, ReceiveHandler handler) override;
  const std::string& node_name(NodeId node) const override { return names_.at(node); }
  std::size_t node_count() const override { return names_.size(); }

  /// Creates (or reconfigures) the directed channel from -> to.
  Channel& link(NodeId from, NodeId to, ChannelConfig config = {});

  /// Both directions with the same config.
  void link_bidirectional(NodeId a, NodeId b, ChannelConfig config = {});

  /// Transport interface spellings of link()/link_bidirectional().
  void connect(NodeId from, NodeId to, ChannelConfig config = {}) override;
  void connect_bidirectional(NodeId a, NodeId b, ChannelConfig config = {}) override;

  Channel& channel(NodeId from, NodeId to);
  bool has_channel(NodeId from, NodeId to) const override;

  /// Sends over the from->to channel; throws std::out_of_range when no such
  /// channel exists. Returns false if the channel dropped the message.
  bool send(NodeId from, NodeId to, MessagePtr message) override;

  ChannelStats channel_stats(NodeId from, NodeId to) const override;

  /// Enables trace recording; entries accumulate in trace().
  void set_tracing(bool enabled) override { tracing_ = enabled; }
  const std::vector<TraceEntry>& trace() const override { return trace_; }
  void clear_trace() override { trace_.clear(); }

  void set_observer(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics) override {
    observer_.attach(recorder, metrics);
  }

  Simulator& simulator() { return *sim_; }
  util::Rng& rng() { return rng_; }

 private:
  Simulator* sim_;
  util::Rng rng_;
  std::vector<std::string> names_;
  std::vector<ReceiveHandler> handlers_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Channel>> channels_;
  bool tracing_ = false;
  std::vector<TraceEntry> trace_;
  obs::MessageObserver observer_;
};

}  // namespace sa::sim

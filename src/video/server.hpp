// Video server: camera + video processor + sending MetaSocket (paper Fig. 3).
//
// The synthetic StreamSource feeds packets into a FilterChain holding the
// encoder filter(s); the chain's output is multicast to every subscribed
// client's data node.  The server exposes a FilterChainProcess so an
// adaptation agent can reset / adapt / resume its MetaSocket.
#pragma once

#include <memory>
#include <vector>

#include "components/filter_chain.hpp"
#include "proto/adaptable_process.hpp"
#include "runtime/transport.hpp"
#include "video/stream.hpp"

namespace sa::video {

/// Network message wrapping one stream packet.
struct PacketMsg final : runtime::Message {
  components::Packet packet;
  std::string type_name() const override { return "video-packet"; }
  std::size_t size_bytes() const override {
    return packet.payload.size() + 24;  // payload + header
  }
};

class VideoServer {
 public:
  /// `data_node` must already exist in `transport`; data channels to client
  /// nodes are created by the caller before subscribe(). See FilterChainProcess.
  VideoServer(runtime::Clock& clock, runtime::Transport& transport, runtime::NodeId data_node,
              const config::ComponentRegistry& registry, config::ProcessId process,
              StreamConfig config = {}, proto::FilterFactory factory = nullptr);

  /// Adds a client data node to the multicast set.
  void subscribe(runtime::NodeId client_data_node);

  void start() { source_.start([this](components::Packet p) { chain_.submit(std::move(p)); }); }
  void stop() { source_.stop(); }

  components::FilterChain& chain() { return chain_; }
  proto::AdaptableProcess& process() { return process_; }
  StreamSource& source() { return source_; }

  std::uint64_t packets_emitted() const { return source_.packets_emitted(); }

 private:
  runtime::Transport* transport_;
  runtime::NodeId data_node_;
  components::FilterChain chain_;
  proto::FilterChainProcess process_;
  StreamSource source_;
  std::vector<runtime::NodeId> subscribers_;
};

}  // namespace sa::video

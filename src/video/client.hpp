// Video client: receiving MetaSocket + video processor + player (paper
// Fig. 3).  Packets arriving on the client's data node flow through the
// decoder FilterChain into the StreamSink, which verifies integrity.
#pragma once

#include "components/filter_chain.hpp"
#include "proto/adaptable_process.hpp"
#include "runtime/transport.hpp"
#include "video/stream.hpp"

namespace sa::video {

class VideoClient {
 public:
  /// Takes over `data_node`'s receive handler. See FilterChainProcess.
  VideoClient(runtime::Clock& clock, runtime::Transport& transport, runtime::NodeId data_node,
              std::string name, const config::ComponentRegistry& registry,
              config::ProcessId process, proto::FilterFactory factory = nullptr);

  components::FilterChain& chain() { return chain_; }
  proto::AdaptableProcess& process() { return process_; }
  const PlayerStats& player_stats() const { return sink_.stats(); }
  const StreamSink& sink() const { return sink_; }

  /// Observer invoked for every decoded packet just before it reaches the
  /// player — used e.g. to feed a safe-state monitor with frame boundaries.
  using PacketObserver = std::function<void(const components::Packet&)>;
  void set_packet_observer(PacketObserver observer) { observer_ = std::move(observer); }

 private:
  components::FilterChain chain_;
  proto::FilterChainProcess process_;
  StreamSink sink_;
  PacketObserver observer_;
};

}  // namespace sa::video

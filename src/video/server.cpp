#include "video/server.hpp"

namespace sa::video {

VideoServer::VideoServer(runtime::Clock& clock, runtime::Transport& transport,
                         runtime::NodeId data_node, const config::ComponentRegistry& registry,
                         config::ProcessId process, StreamConfig config,
                         proto::FilterFactory factory)
    : transport_(&transport),
      data_node_(data_node),
      chain_(clock, "server-metasocket"),
      process_(chain_, registry, process, std::move(factory)),
      source_(clock, config) {
  chain_.set_output([this](components::Packet packet) {
    auto msg = std::make_shared<PacketMsg>();
    msg->packet = std::move(packet);
    for (const runtime::NodeId subscriber : subscribers_) {
      transport_->send(data_node_, subscriber, msg);
    }
  });
}

void VideoServer::subscribe(runtime::NodeId client_data_node) {
  subscribers_.push_back(client_data_node);
}

}  // namespace sa::video

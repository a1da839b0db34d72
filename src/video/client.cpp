#include "video/client.hpp"

#include "video/server.hpp"

namespace sa::video {

VideoClient::VideoClient(runtime::Clock& clock, runtime::Transport& transport,
                         runtime::NodeId data_node, std::string name,
                         const config::ComponentRegistry& registry, config::ProcessId process,
                         proto::FilterFactory factory)
    : chain_(clock, name + "-metasocket"),
      process_(chain_, registry, process, std::move(factory)),
      sink_(clock) {
  chain_.set_output([this](components::Packet packet) {
    if (observer_) observer_(packet);
    sink_.accept(packet);
  });
  transport.set_handler(data_node, [this](runtime::NodeId, runtime::MessagePtr message) {
    if (const auto* packet_msg = dynamic_cast<const PacketMsg*>(message.get())) {
      chain_.submit(packet_msg->packet);
    }
  });
}

}  // namespace sa::video

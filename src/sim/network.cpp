#include "sim/network.hpp"

#include <stdexcept>

#include "util/log.hpp"

namespace sa::sim {

NodeId Network::add_node(std::string name, ReceiveHandler handler) {
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(std::move(name));
  handlers_.push_back(std::move(handler));
  return id;
}

void Network::set_handler(NodeId node, ReceiveHandler handler) {
  handlers_.at(node) = std::move(handler);
}

void Network::connect(NodeId from, NodeId to, ChannelConfig config) {
  if (from >= names_.size() || to >= names_.size()) {
    throw std::out_of_range("Network::connect: unknown node");
  }
  channels_.insert_or_assign({from, to}, runtime::Link(config));
}

ChannelStats Network::channel_stats(NodeId from, NodeId to) const {
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) throw_no_channel(names_.at(from), names_.at(to));
  return it->second.stats();
}

bool Network::has_channel(NodeId from, NodeId to) const {
  return channels_.contains({from, to});
}

bool Network::send(NodeId from, NodeId to, MessagePtr message) {
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) throw_no_channel(names_.at(from), names_.at(to));
  const std::string type = message->type_name();
  const runtime::LinkOutcome out = it->second.send(sim_->now(), message->size_bytes(), rng_);
  if (!out.accepted) {
    SA_DEBUG("network") << names_[from] << " -> " << names_[to] << " dropped " << type;
    record(sim_->now(), from, to, message, /*delivered=*/false, /*keep_payload=*/false);
    observer_.on_dropped(sim_->now(), from, to, type);
    return false;
  }
  sim_->schedule_at(out.arrival, [this, from, to, message] { deliver(from, to, message); });
  if (out.copy_arrival >= 0) {
    sim_->schedule_at(out.copy_arrival,
                      [this, from, to, message] { deliver(from, to, message); });
  }
  observer_.on_sent(sim_->now(), from, to, type);
  if (out.copy_arrival >= 0) observer_.on_duplicated(sim_->now(), from, to, type);
  return true;
}

void Network::deliver(NodeId from, NodeId to, const MessagePtr& message) {
  record(sim_->now(), from, to, message, /*delivered=*/true, /*keep_payload=*/true);
  observer_.on_delivered(sim_->now(), from, to, message->type_name());
  if (handlers_.at(to)) handlers_[to](from, message);
}

}  // namespace sa::sim

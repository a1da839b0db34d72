#include "sim/network.hpp"

#include <algorithm>

#include <stdexcept>

#include "util/log.hpp"

namespace sa::sim {

bool Channel::send(MessagePtr message, const std::function<void(NodeId, MessagePtr)>& deliver) {
  ++stats_.sent;
  if (config_.loss_probability > 0.0 && rng_->next_bool(config_.loss_probability)) {
    ++stats_.dropped_loss;
    return false;
  }
  Time send_complete = sim_->now();
  if (config_.bytes_per_second > 0) {
    // Serialize on the link: transmission starts when the link frees up and
    // occupies it for size/bandwidth.
    const Time start = std::max(sim_->now(), link_free_at_);
    const Time transmission = static_cast<Time>(
        (static_cast<__int128>(message->size_bytes()) * 1'000'000) / config_.bytes_per_second);
    send_complete = start + transmission;
    link_free_at_ = send_complete;
  }

  Time delay = config_.latency;
  if (config_.jitter > 0) {
    delay += static_cast<Time>(rng_->next_below(static_cast<std::uint64_t>(config_.jitter) + 1));
  }
  Time arrival = send_complete + delay;
  if (config_.fifo && arrival < last_delivery_) arrival = last_delivery_;
  last_delivery_ = arrival;

  const NodeId sender = from_;
  sim_->schedule_at(arrival, [sender, message, deliver]() { deliver(sender, message); });
  ++stats_.delivered;

  if (config_.duplicate_probability > 0.0 && rng_->next_bool(config_.duplicate_probability)) {
    // The copy trails the original by up to one extra jitter window.
    Time copy_arrival =
        arrival + 1 +
        (config_.jitter > 0
             ? static_cast<Time>(rng_->next_below(static_cast<std::uint64_t>(config_.jitter) + 1))
             : config_.latency);
    if (config_.fifo && copy_arrival < last_delivery_) copy_arrival = last_delivery_;
    last_delivery_ = std::max(last_delivery_, copy_arrival);
    sim_->schedule_at(copy_arrival,
                      [sender, message = std::move(message), deliver]() {
                        deliver(sender, message);
                      });
    ++stats_.duplicated;
  }
  return true;
}

NodeId Network::add_node(std::string name, ReceiveHandler handler) {
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(std::move(name));
  handlers_.push_back(std::move(handler));
  return id;
}

void Network::set_handler(NodeId node, ReceiveHandler handler) {
  handlers_.at(node) = std::move(handler);
}

Channel& Network::link(NodeId from, NodeId to, ChannelConfig config) {
  if (from >= names_.size() || to >= names_.size()) {
    throw std::out_of_range("Network::link: unknown node");
  }
  runtime::checked_channel_config(config);
  auto& slot = channels_[{from, to}];
  slot = std::make_unique<Channel>(*sim_, rng_, from, to, config);
  return *slot;
}

void Network::link_bidirectional(NodeId a, NodeId b, ChannelConfig config) {
  link(a, b, config);
  link(b, a, config);
}

void Network::connect(NodeId from, NodeId to, ChannelConfig config) { link(from, to, config); }

void Network::connect_bidirectional(NodeId a, NodeId b, ChannelConfig config) {
  link_bidirectional(a, b, config);
}

ChannelStats Network::channel_stats(NodeId from, NodeId to) const {
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) {
    throw std::out_of_range("no channel " + names_.at(from) + " -> " + names_.at(to));
  }
  return it->second->stats();
}

Channel& Network::channel(NodeId from, NodeId to) {
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) {
    throw std::out_of_range("no channel " + names_.at(from) + " -> " + names_.at(to));
  }
  return *it->second;
}

bool Network::has_channel(NodeId from, NodeId to) const {
  return channels_.contains({from, to});
}

bool Network::send(NodeId from, NodeId to, MessagePtr message) {
  Channel& ch = channel(from, to);
  const std::string type = message->type_name();
  const std::uint64_t duplicated_before = ch.stats().duplicated;
  const bool accepted = ch.send(std::move(message), [this, to](NodeId sender, MessagePtr msg) {
    const std::string delivered_type = msg->type_name();
    if (tracing_) {
      trace_.push_back(TraceEntry{sim_->now(), sender, to, delivered_type, true, msg});
    }
    observer_.on_delivered(sim_->now(), sender, to, delivered_type);
    if (handlers_.at(to)) handlers_[to](sender, std::move(msg));
  });
  if (accepted) {
    observer_.on_sent(sim_->now(), from, to, type);
    if (ch.stats().duplicated > duplicated_before) {
      observer_.on_duplicated(sim_->now(), from, to, type);
    }
  } else {
    SA_DEBUG("network") << names_[from] << " -> " << names_[to] << " dropped " << type;
    if (tracing_) trace_.push_back(TraceEntry{sim_->now(), from, to, type, false, nullptr});
    observer_.on_dropped(sim_->now(), from, to, type);
  }
  return accepted;
}

}  // namespace sa::sim

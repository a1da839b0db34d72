#include "inject/faulty_runtime.hpp"

#include <algorithm>
#include <cmath>

namespace sa::inject {

namespace {

runtime::Time skewed(runtime::Time delay, double factor) {
  if (factor == 1.0) return delay;
  const double scaled = std::round(static_cast<double>(delay) * factor);
  return std::max<runtime::Time>(0, static_cast<runtime::Time>(scaled));
}

}  // namespace

runtime::TimerId FaultyClock::schedule_at(runtime::Time t, std::function<void()> fn) {
  const double factor = skew();
  if (factor == 1.0) return inner_->schedule_at(t, std::move(fn));
  const runtime::Time delay = std::max<runtime::Time>(0, t - inner_->now());
  return inner_->schedule_after(skewed(delay, factor), std::move(fn));
}

runtime::TimerId FaultyClock::schedule_after(runtime::Time delay, std::function<void()> fn) {
  return inner_->schedule_after(skewed(delay, skew()), std::move(fn));
}

FaultyTransport::~FaultyTransport() {
  for (const auto& [node, handler] : handlers_) inner_->set_handler(node, nullptr);
}

runtime::NodeId FaultyTransport::add_node(std::string name, runtime::ReceiveHandler handler) {
  const runtime::NodeId id = inner_->add_node(std::move(name));
  set_handler(id, std::move(handler));
  return id;
}

void FaultyTransport::set_handler(runtime::NodeId node, runtime::ReceiveHandler handler) {
  // Detaching goes to the inner transport first: its set_handler(nullptr)
  // waits out a delivery running the old handler. The interposer installed
  // afterwards captures only (this, node), so the inner transport copies it
  // per delivery without allocating; deliveries to a handler-less endpoint
  // still reach the decorator trace and crash accounting.
  if (!handler) inner_->set_handler(node, nullptr);
  {
    std::lock_guard lock(mutex_);
    handlers_[node] = std::move(handler);
  }
  inner_->set_handler(node, [this, node](runtime::NodeId from, runtime::MessagePtr message) {
    deliver(node, from, std::move(message));
  });
}

bool FaultyTransport::send(runtime::NodeId from, runtime::NodeId to,
                           runtime::MessagePtr message) {
  bool may_duplicate = false;
  {
    std::lock_guard lock(mutex_);
    std::uint64_t* dropped = nullptr;
    if (crashed_.contains(from) || crashed_.contains(to)) {
      dropped = &stats_.dropped_crash_send;
    } else if (partitioned(from, to)) {
      dropped = &stats_.dropped_partition;
    } else if (extra_loss_ > 0.0 && rng_.next_bool(extra_loss_)) {
      dropped = &stats_.dropped_loss;
    }
    if (dropped != nullptr) {
      ++*dropped;
      report(MessageEvent::Dropped, clock_->now(), from, to, message);
      return false;
    }
    may_duplicate = extra_duplication_ > 0.0;
  }
  const bool accepted = inner_->send(from, to, message);
  if (!accepted || !may_duplicate) return accepted;
  {
    std::lock_guard lock(mutex_);
    if (!(extra_duplication_ > 0.0 && rng_.next_bool(extra_duplication_))) return accepted;
    ++stats_.duplicated;
  }
  inner_->send(from, to, std::move(message));
  return accepted;
}

void FaultyTransport::partition_node(runtime::NodeId node, bool partitioned) {
  std::lock_guard lock(mutex_);
  if (partitioned) {
    partitioned_nodes_.insert(node);
  } else {
    partitioned_nodes_.erase(node);
  }
}

void FaultyTransport::partition_pair(runtime::NodeId a, runtime::NodeId b, bool partitioned) {
  const auto key = std::minmax(a, b);
  std::lock_guard lock(mutex_);
  if (partitioned) {
    partitioned_pairs_.insert(key);
  } else {
    partitioned_pairs_.erase(key);
  }
}

void FaultyTransport::set_extra_loss(double probability) {
  runtime::checked_probability(probability, "extra loss probability");
  std::lock_guard lock(mutex_);
  extra_loss_ = probability;
}

void FaultyTransport::set_extra_duplication(double probability) {
  runtime::checked_probability(probability, "extra duplication probability");
  std::lock_guard lock(mutex_);
  extra_duplication_ = probability;
}

void FaultyTransport::set_crashed(runtime::NodeId node, bool crashed) {
  std::lock_guard lock(mutex_);
  if (crashed) {
    crashed_.insert(node);
  } else {
    crashed_.erase(node);
  }
}

FaultyTransport::Stats FaultyTransport::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void FaultyTransport::deliver(runtime::NodeId to, runtime::NodeId from,
                              runtime::MessagePtr message) {
  runtime::ReceiveHandler handler;
  {
    std::lock_guard lock(mutex_);
    const bool dead = crashed_.contains(to);
    report(dead ? MessageEvent::Dropped : MessageEvent::Delivered, clock_->now(), from, to,
           message);
    if (dead) {
      ++stats_.dropped_crash_delivery;
      return;
    }
    handler = handlers_.at(to);
  }
  if (handler) handler(from, std::move(message));
}

bool FaultyTransport::partitioned(runtime::NodeId from, runtime::NodeId to) const {
  if (partitioned_nodes_.contains(from) || partitioned_nodes_.contains(to)) return true;
  return partitioned_pairs_.contains(std::minmax(from, to));
}

void arm_plan(const FaultPlan& plan, FaultyRuntime& frt, const PlanTargets& targets) {
  runtime::Clock& clock = frt.faulty_clock().inner();
  FaultyTransport& net = frt.faulty_transport();
  FaultyClock& skew = frt.faulty_clock();
  const runtime::Time origin = clock.now();
  for (const FaultEvent& event : plan.events) {
    std::function<void(bool)> toggle;
    switch (event.kind) {
      case FaultKind::Loss:
        toggle = [&net, p = event.probability](bool open) { net.set_extra_loss(open ? p : 0.0); };
        break;
      case FaultKind::Duplicate:
        toggle = [&net, p = event.probability](bool open) {
          net.set_extra_duplication(open ? p : 0.0);
        };
        break;
      case FaultKind::TimerSkew:
        toggle = [&skew, f = event.factor](bool open) { skew.set_skew(open ? f : 1.0); };
        break;
      case FaultKind::PartitionNode:
        toggle = [&net, node = targets.link(event.process).second](bool open) {
          net.partition_node(node, open);
        };
        break;
      case FaultKind::PartitionPair:
        toggle = [&net, link = targets.link(event.process)](bool open) {
          net.partition_pair(link.first, link.second, open);
        };
        break;
      case FaultKind::Crash:
        toggle = [&net, node = targets.link(event.process).second](bool open) {
          net.set_crashed(node, open);
        };
        break;
      case FaultKind::FailToReset:
        if (!targets.fail_to_reset) continue;
        toggle = [hook = targets.fail_to_reset, process = event.process](bool open) {
          hook(process, open);
        };
        break;
    }
    clock.schedule_at(origin + event.start, [toggle] { toggle(true); });
    clock.schedule_at(origin + event.end, [toggle] { toggle(false); });
  }
}

}  // namespace sa::inject

#include "obs/message_observer.hpp"

namespace sa::obs {

void MessageObserver::attach(TraceRecorder* recorder, MetricsRegistry* metrics) {
  recorder_ = recorder;
  metrics_ = metrics;
  counters_.clear();
}

Counter* MessageObserver::counter_for(std::string_view event, const std::string& type) {
  if (!metrics_) return nullptr;
  const auto key = std::make_pair(std::string(event), type);
  const auto it = counters_.find(key);
  if (it != counters_.end()) return it->second;
  Counter& counter =
      metrics_->counter("sa_messages_total", {{"event", key.first}, {"type", type}},
                        "Transport messages by lifecycle event and message type");
  counters_.emplace(key, &counter);
  return &counter;
}

void MessageObserver::record(EventKind kind, runtime::Time t, runtime::NodeId from,
                             runtime::NodeId to, const std::string& type,
                             std::string_view detail) {
  if (Counter* counter = counter_for(to_string(kind).substr(sizeof("message_") - 1), type)) {
    counter->inc();
  }
  if (recorder_ && recorder_->enabled()) {
    Event e;
    e.time = t;
    e.kind = kind;
    e.from = from;
    e.to = to;
    e.name = type;
    e.detail = std::string(detail);
    recorder_->record(std::move(e));
  }
}

void MessageObserver::on_sent(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
                              const std::string& type) {
  record(EventKind::MessageSent, t, from, to, type, {});
}

void MessageObserver::on_delivered(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
                                   const std::string& type) {
  record(EventKind::MessageDelivered, t, from, to, type, {});
}

void MessageObserver::on_dropped(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
                                 const std::string& type) {
  record(EventKind::MessageDropped, t, from, to, type, "loss");
}

void MessageObserver::on_duplicated(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
                                    const std::string& type) {
  record(EventKind::MessageDuplicated, t, from, to, type, {});
}

}  // namespace sa::obs
